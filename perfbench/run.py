#!/usr/bin/env python3
"""choiscope benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload state_bsa --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed`` during set-up, runs its items
in a closed loop (one program call at a time) for ``--seconds``, checks
every result against an oracle that does not use the library's BSA code,
and prints a report whose last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with every time scaled to a
fixed machine speed (see speed.py).  ``--trace 1`` runs each item
of a fixed list twice, untraced and traced, and reports the per-layer
metrics derived from the spans (see tracer.py) plus the tracer's overhead.
The library is imported from ``src/`` of the checkout this file sits in.
See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# Pin BLAS/OpenMP to one thread before numpy is imported: the default
# multi-threaded OpenBLAS makes the small matrix products here slower and
# erratic.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

from speed import REF_S, SAMPLE_EVERY_S, SpeedLog  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-ups per timed run; one before the timed loop, the others spread
# evenly through it, so their median does not hang on one phase of the
# machine's speed
SETUP_REPEATS = 7
# deck size: enough items for this many times the nominal rate
DECK_HEADROOM = 1.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-items", type=int, default=None,
                   help="stop after this many items (the short mode uses 1)")
    return p.parse_args(argv)


def import_library():
    """Import choiscope from this checkout's src/, never from elsewhere."""
    if not (SRC / "choiscope" / "__init__.py").is_file():
        raise SystemExit(f"error: no choiscope sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import choiscope
    if Path(choiscope.__file__).resolve().parent != SRC / "choiscope":
        raise SystemExit(f"error: imported choiscope from {choiscope.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


@dataclass
class Outcome:
    """One item's start, duration, failures and BSA weight."""

    item: object
    start: float
    seconds: float
    failures: list
    lam: Optional[float]


def _describe(exc: Exception) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {Path(frame.filename).name}:{frame.lineno})"


def run_item(workload, item, tracer=None):
    if tracer is not None:
        tracer.item_id = item.index
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = workload.run(item)
        error = None
    except Exception as exc:  # an item that raises is a failed item
        result, error = None, f"raised {_describe(exc)}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if error is not None:
        return Outcome(item, t0, seconds, [error], None)
    try:
        failures = workload.check(item, result)
        lam = workload.lam(item, result)
    except Exception as exc:  # a result the oracle cannot read has failed
        failures, lam = [f"oracle could not check the result: {_describe(exc)}"], None
    return Outcome(item, t0, seconds, failures, lam)


def import_in_fresh_interpreter():
    """Import numpy, scipy and the workloads (the library with them) in a new process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(HERE), str(SRC))),
               PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", "import numpy, scipy.optimize, workloads"],
                   env=env, check=True, timeout=120)


class Setup:
    """Repeatable set-up: imports, deck and warm-up item, each repeat timed."""

    def __init__(self, workload, seed, deck_size, workdir):
        self.args = (workload, seed, deck_size)
        self.workdir = workdir
        self.starts, self.times, self.warm_outcomes = [], [], []

    def __call__(self):
        """Set up once more; return the deck."""
        workload, seed, deck_size = self.args
        workdir = self.workdir / f"setup{len(self.times)}"
        t0 = time.perf_counter()
        import_in_fresh_interpreter()
        workdir.mkdir()
        deck = workload.make_deck(seed, deck_size, workdir)
        warm = run_item(workload, workload.warmup_item(workdir))
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)
        self.warm_outcomes.append(warm)
        return deck


def timed_loop(workload, deck, seconds, max_items, pauses, speed):
    """Run deck items for ``seconds`` of loop time, calling each of ``pauses``
    at evenly spaced points of it (or after it, when it ends early), and
    sampling ``speed`` every SAMPLE_EVERY_S of loop time.

    Time spent in pauses and samples is not loop time.
    """
    outcomes = []
    pending = list(pauses)
    slots = len(pending) + 1
    paused = 0.0
    start = time.perf_counter()
    speed.sample()
    last_sample = 0.0

    def elapsed():
        return time.perf_counter() - start - paused

    while not outcomes or (elapsed() < seconds
                           and (max_items is None or len(outcomes) < max_items)):
        if pending and elapsed() >= seconds * (slots - len(pending)) / slots:
            t0 = time.perf_counter()
            pending.pop(0)()
            speed.sample()
            paused += time.perf_counter() - t0
        outcomes.append(run_item(workload, deck[len(outcomes) % len(deck)]))
        if elapsed() - last_sample >= SAMPLE_EVERY_S:
            t0 = time.perf_counter()
            speed.sample()
            paused += time.perf_counter() - t0
            last_sample = elapsed()
    for pause in pending:
        pause()
        speed.sample()
    return outcomes


def end_to_end(workload, outcomes, setup, speed):
    import numpy as np
    times = [speed.scale(o.start, o.seconds) for o in outcomes]
    setup_s = statistics.median(speed.scale(t0, t) for t0, t in zip(setup.starts, setup.times))
    p = workload.tail_percentile
    tail = float(np.percentile(times, p))
    lams = [o.lam for o in outcomes if o.lam is not None]
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = sum(t > tail for t in times)
    wall = [o.seconds for o in outcomes]
    notes = [f"times are scaled to the reference speed; the kernel took "
             f"{statistics.median(speed.took) / REF_S:.3f} x REF_S (median of "
             f"{len(speed.took)} runs)",
             f"wall clock: items_per_s {len(wall) / sum(wall):.6g}, item_p50_s "
             f"{statistics.median(wall):.6g}, item_tail_s {np.percentile(wall, p):.6g}, "
             f"setup_s {statistics.median(setup.times):.6g}",
             f"item_tail_s is p{p} of {len(times)} items ({beyond} beyond it)"]
    if beyond < 10:
        notes.append(f"WARNING: fewer than 10 items beyond p{p}")
    if lams:
        notes.append(f"lambda_mean = {statistics.fmean(lams):.9f} over {len(lams)} items")
    return metrics, notes


def traced_run(workload, deck, count):
    """Run deck[:count]; each item once untraced and once traced, in alternating order.

    Pairing the two runs of an item keeps slow drifts of machine speed
    out of the overhead estimate.
    """
    from tracer import Tracer, per_layer_metrics
    tracer = Tracer()
    plain, traced = [], []
    for k in range(count):
        item = deck[k % len(deck)]
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(run_item(workload, item))
                continue
            tracer.install()
            try:
                traced.append(run_item(workload, item, tracer))
            finally:
                tracer.uninstall()
    metrics = per_layer_metrics(tracer, count)
    overhead = sum(o.seconds for o in plain) / sum(o.seconds for o in traced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return plain + traced, metrics


def summarize(outcomes, metrics) -> dict:
    """The result line: every item checked, failures counted, metrics by name."""
    failed = sum(1 for o in outcomes if o.failures)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import numpy  # noqa: F401  (imported before any timing)
    import scipy.optimize  # noqa: F401
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - _T0

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        deck_size = max(len(wl.cycle), int(args.seconds * wl.nominal_rate * DECK_HEADROOM))
        if args.max_items is not None:
            deck_size = min(deck_size, args.max_items)
        setup = Setup(wl, args.seed, deck_size, tmp)
        speed = SpeedLog()
        speed.sample()  # so the first set-up has kernel runs on both sides
        deck = setup()
        if args.trace:
            # whole cycles filling about half of --seconds per pass
            count = args.max_items or len(wl.cycle) * max(1, int(
                args.seconds * wl.nominal_rate / 2 / len(wl.cycle)))
            outcomes, metrics = traced_run(wl, deck, count)
            notes = []
        else:
            outcomes = timed_loop(wl, deck, args.seconds, args.max_items,
                                  [setup] * (SETUP_REPEATS - 1), speed)
            metrics, notes = end_to_end(wl, outcomes, setup, speed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    checked = outcomes + setup.warm_outcomes
    result = summarize(checked, metrics)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print(f"setup: this process's imports {import_s:.3f}s, "
          f"set-ups {[round(t, 3) for t in setup.times]}")
    kinds = dict(Counter(o.item.kind for o in outcomes))
    print(f"items {len(outcomes)} by kind {kinds}; warm-up items {len(setup.warm_outcomes)}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']})")
    for o in checked:
        if o.failures:
            print(f"  FAILED {o.item.kind}#{o.item.index}: {'; '.join(o.failures)}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
