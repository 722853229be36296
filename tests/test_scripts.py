"""The experiment scripts reject bad arguments and report their tallies."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SURVEY = ROOT / "scripts" / "random_channel_survey.py"


def run_survey(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(SURVEY), *argv], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv", [("--count", "0"), ("--count", "-2"),
                                  ("--budget", "-1")])
def test_survey_rejects_bad_arguments(argv):
    done = run_survey(*argv)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "must be" in done.stderr


def test_survey_tallies_certificates():
    done = run_survey("--count", "3", "--budget", "2")
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert sum(out["certificates"].values()) == 3
    assert set(out["certificates"]) == {"realignment", "symmetric_extension", "null"}


def test_survey_stops_on_a_channel_that_fails_validation(monkeypatch):
    # an explicit check, not an assert, so it also holds under python -O
    spec = importlib.util.spec_from_file_location("random_channel_survey", SURVEY)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    real = survey.validate
    monkeypatch.setattr(survey, "validate", lambda ch: dataclasses.replace(
        real(ch), completely_positive=False))
    with pytest.raises(SystemExit, match="channel 0 is not CP and TP"):
        survey.run(survey.SurveyConfig(count=1, budget=0))
