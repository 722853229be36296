"""The installed entry point against the goldens, through stdout.

Every row of ``GOLDEN_RUNS`` runs in a child process, without ``--out``,
and its stdout must equal the golden byte for byte.  The console script
is used when ``choiscope`` is on PATH; otherwise ``python -m choiscope``
runs with this checkout's ``src`` on ``PYTHONPATH``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from choiscope.cli import EXIT_IO, EXIT_OK

from conftest import GOLDEN_RUNS, fixture_argv

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def choiscope(*argv):
    """The finished child process of ``choiscope argv...``, stdout as bytes."""
    script = shutil.which("choiscope")
    env = dict(os.environ)
    if script:
        command = [script]
    else:
        command = [sys.executable, "-m", "choiscope"]
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([*command, *fixture_argv(argv)], env=env, cwd=ROOT,
                          capture_output=True, timeout=300)


@pytest.mark.parametrize("argv,golden,code", GOLDEN_RUNS,
                         ids=[golden for _, golden, _ in GOLDEN_RUNS])
def test_golden_through_stdout(argv, golden, code):
    done = choiscope(*argv)
    assert done.returncode == code, done.stderr.decode()
    assert done.stdout == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv,code,output", [
    # a CP map with entries ~1e7, whose Choi matrix's Hermitian gap exceeds atol
    (["inspect", "large_kraus18.json"], EXIT_OK, None),
    # a negative seed is a parse error: exit 1, nothing on stdout
    (["gen", "random-cp", "2", "--seed", "-1"], EXIT_IO, False),
    # the product of two square maps of different dimensions (4 and 2)
    (["tensor", "swap2.json", "random_cp2.json"], EXIT_OK, True),
    # a usage error is a parse error: exit 1, nothing on stdout
    (["inspect", "maxmixed.json", "--tol", "abc"], EXIT_IO, False),
], ids=["inspect-large-entries", "gen-negative-seed", "tensor-4-by-2", "inspect-tol-abc"])
def test_exit_code(argv, code, output):
    done = choiscope(*argv)
    assert done.returncode == code, done.stderr.decode()
    if output is not None:  # whether stdout holds a report
        assert bool(done.stdout) == output
