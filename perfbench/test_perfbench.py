"""The benchmark's own tests (short mode: one item per workload).

    python3 -m pytest -q perfbench

They check that every metric named in BENCHMARK.json is printed with its
unit, that a deliberately wrong result is counted as failed, and that the
benchmark refuses to run without the library's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

run.import_library()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = ROOT / ".perfbench_tmp"


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    yield path
    shutil.rmtree(path)
    try:
        SCRATCH.rmdir()
    except OSError:  # another test's directory is still there
        pass


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _short(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--max-items", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_short_mode_prints_every_metric_with_its_unit(workload, trace):
    result = _short(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _first(workload, kind, workdir):
    wl = workloads.WORKLOADS[workload]
    index = wl.cycle.index(kind)
    return wl, wl.make_item(kind, index, 5, workdir)


def _failed_frac(wl, item, tamper):
    """Run the item through the harness with its result tampered with."""
    class Tampered(type(wl)):
        def run(self, item):
            return tamper(super().run(item))
    outcome = run.run_item(Tampered(), item)
    result = run.summarize([outcome], {})
    return result["failed"] / result["attempted"], result["correct"]


def test_werner_weight_above_the_closed_form_fails(workdir):
    wl, item = _first("state_bsa", "werner", workdir)
    item.inputs["p"] = 0.5
    item.inputs["rho"] = workloads.generators.werner_state(0.5)
    dec = wl.run(item)
    assert wl.check(item, dec) == []
    frac, correct = _failed_frac(
        wl, item, lambda d: dataclasses.replace(d, lambda_total=0.75 + 0.01))
    assert frac == 1.0 and correct is False


def test_residual_that_is_not_psd_fails(workdir):
    wl, item = _first("state_bsa", "wishart_2x3", workdir)
    dec = wl.run(item)
    bad = dataclasses.replace(dec, residual=dec.residual - 1e-6 * np.eye(6))
    assert any("residual" in f for f in wl.check(item, bad))


def test_cli_report_with_the_wrong_verdict_fails(workdir):
    wl, item = _first("operation_cli", "swap", workdir)

    def flip_verdict(result):
        out = Path(item.inputs["out"])
        report = json.loads(out.read_text(encoding="utf-8"))
        report["verdict"] = "separable"
        out.write_text(json.dumps(report), encoding="utf-8")
        return result

    assert wl.check(item, wl.run(item)) == []
    frac, correct = _failed_frac(wl, item, flip_verdict)
    assert frac == 1.0 and correct is False


def test_cli_nonzero_exit_fails(workdir):
    wl, item = _first("operation_cli", "identity", workdir)
    frac, _ = _failed_frac(wl, item, lambda result: (2, "error: NotAState"))
    assert frac == 1.0


def test_channel_algebra_broken_round_trip_fails(workdir):
    wl, item = _first("channel_algebra", "N3", workdir)
    out = wl.run(item)
    assert wl.check(item, out) == []
    label, text, _ = out["dumps"][0]
    out["dumps"][0] = (label, text, text.replace("]]", "]] "))
    out["roundtrip_L"] = out["roundtrip_L"] + 1e-6
    fails = wl.check(item, out)
    assert any("dump(parse(dump(x)))" in f for f in fails)
    assert any("round trip" in f for f in fails)


def test_item_that_raises_is_counted(workdir):
    wl, item = _first("channel_algebra", "N3", workdir)

    def boom(result):
        raise RuntimeError("injected")
    frac, correct = _failed_frac(wl, item, boom)
    assert frac == 1.0 and correct is False


def test_tracer_catches_cli_copies_and_restores_everything():
    from choiscope import bsa, cli
    originals = (np.linalg.eigh, bsa.bsa_state, cli.bsa_state)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.bsa_state is bsa.bsa_state is not originals[1]
        tracer.active = True
        tracer.item_id = 0
        bsa.bsa_state(workloads.generators.werner_state(0.2),
                      workloads.reshape.BipartiteShape(2, 2), budget=4, seed=0)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (np.linalg.eigh, bsa.bsa_state, cli.bsa_state) == originals
    spans = tracer.summary()
    assert spans["bsa.bsa_state"]["calls"] == 1
    assert spans["numpy.linalg.eigh"]["calls"] > 0
    whole = spans["bsa.bsa_state"]
    assert 0 <= whole["self_s"] <= whole["time_s"]


def test_times_scale_with_the_nearby_kernel_runs():
    import speed
    log = speed.SpeedLog()
    # the kernel ran at reference speed around t=0 and at half speed around t=100
    log.at, log.took = [0.0, 1.0, 100.0, 101.0], [speed.REF_S] * 2 + [2 * speed.REF_S] * 2
    assert log.scale(0.5, 0.2) == pytest.approx(0.2)
    assert log.scale(100.5, 0.2) == pytest.approx(0.1)
    # far from every kernel run, the nearest one sets the scale
    assert log.scale(60.0, 0.2) == pytest.approx(0.1)


def test_refuses_to_run_without_the_library(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(workdir, "--workload", "state_bsa", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
