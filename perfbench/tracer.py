"""Span tracer for the traced benchmark run.

The tracer works from outside the library: it replaces each public
function of the choiscope layer modules, wherever a choiscope module
binds it (so ``cli``'s ``from .bsa import ...`` copies are caught too),
and the numpy/scipy kernels below ``bsa`` with wrappers that record one
span per call.  A span is (name, start, end, parent span, item id); spans
are kept in flat arrays in memory until the run ends, and the per-layer
metrics are derived from them afterwards.  Nothing is recorded while
``active`` is false, so set-up and the oracles stay out of the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layer modules of the library; ``numerics`` is a set of thin wrappers
# whose cost shows up in the kernel counts, so it is not traced itself
LAYERS = ("reshape", "channels", "superop_space", "bsa", "serialization",
          "cli", "generators")
# the kernel boundary under ``bsa``
KERNELS = (("numpy.linalg", ("eigh", "eigvalsh", "svd")),
           ("scipy.optimize", ("minimize",)))


def _candidate_counts(tracer, args, kwargs, result):
    count = kwargs["count"] if "count" in kwargs else args[2]
    tracer.counters["bsa.candidate_products.requested"] += count
    tracer.counters["bsa.candidate_products.kept"] += len(result)


def _bsa_state_counts(tracer, args, kwargs, result):
    tracer.counters["bsa.bsa_state.lambda_sum"] += float(result.lambda_total)


def _dump_counts(tracer, args, kwargs, result):
    tracer.counters["serialization.dump_channel.bytes"] += len(result.encode("utf-8"))


def _minimize_counts(tracer, args, kwargs, result):
    tracer.counters["scipy.optimize.minimize.nfev"] += int(result.nfev)


# counters taken from a call's arguments or result, by span name
RESULT_HOOKS = {
    "bsa.candidate_products": _candidate_counts,
    "bsa.bsa_state": _bsa_state_counts,
    "serialization.dump_channel": _dump_counts,
    "scipy.optimize.minimize": _minimize_counts,
}


class Tracer:
    """Records spans of wrapped calls; install, run, uninstall, summarize."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item = array("q")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._stack: list[int] = []
        self._depth: dict[int, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(int)
        self.item_id = -1
        self.active = False
        self._patched: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.item_id)
            self.outer.append(depth[nid] == 0)
            self.end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every layer function and kernel; undone by :meth:`uninstall`."""
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"choiscope.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "choiscope" or n.startswith("choiscope.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        for modname, attrs in KERNELS:
            mod = importlib.import_module(modname)
            for attr in attrs:
                self._patch(mod, attr, self.wrap(f"{modname}.{attr}", getattr(mod, attr)))

    def _patch(self, mod, attr, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, time_s (outermost spans) and self_s."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        time_s = np.bincount(name[outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        return {nm: {"calls": int(calls[i]), "time_s": float(time_s[i]),
                     "self_s": float(self_s[i])}
                for i, nm in enumerate(self.names)}


# The per-layer metrics a traced run reports, with their units.
# ``<span>.calls``, ``.time_s`` and ``.self_s`` come from the spans; the
# rest are counters or ratios defined in :func:`per_layer_metrics`.
PER_LAYER = (
    ("numpy.linalg.eigh.calls", "count"),
    ("numpy.linalg.eigh.time_s", "s"),
    ("numpy.linalg.eigvalsh.calls", "count"),
    ("numpy.linalg.eigvalsh.time_s", "s"),
    ("numpy.linalg.svd.calls", "count"),
    ("scipy.optimize.minimize.calls", "count"),
    ("scipy.optimize.minimize.nfev", "count"),
    ("scipy.optimize.minimize.time_s", "s"),
    ("bsa.bsa_state.calls", "count"),
    ("bsa.bsa_state.per_item", "calls/item"),
    ("bsa.bsa_state.time_s", "s"),
    ("bsa.bsa_state.self_s", "s"),
    ("bsa.bsa_state.lambda_mean", "weight"),
    ("bsa.candidate_products.calls", "count"),
    ("bsa.candidate_products.time_s", "s"),
    ("bsa.candidate_products.kept_ratio", "ratio"),
    ("bsa.candidate_products.bsa_state_share", "ratio"),
    ("bsa.bsa_operation.time_s", "s"),
    ("bsa.is_separable_operation.time_s", "s"),
    ("cli.main.time_s", "s"),
    ("cli.main.self_s", "s"),
    ("channels.tensor_channels.time_s", "s"),
    ("bsa.bipartite_choi.time_s", "s"),
    ("reshape.middle_swap.calls", "count"),
    ("reshape.middle_swap.time_s", "s"),
    ("reshape.realign.time_s", "s"),
    ("reshape.partial_transpose.time_s", "s"),
    ("channels.validate.time_s", "s"),
    ("superop_space.coefficients.time_s", "s"),
    ("serialization.dump_channel.time_s", "s"),
    ("serialization.dump_channel.bytes", "bytes"),
    ("serialization.parse_text.time_s", "s"),
    ("serialization.load_path.time_s", "s"),
    ("serialization.canonical_dumps.time_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, items: int) -> dict:
    """Every PER_LAYER metric except the overhead, totalled over the traced items."""
    spans = tracer.summary()
    c = tracer.counters

    def stat(span, key):
        return spans.get(span, {}).get(key, 0)

    derived = {
        "bsa.bsa_state.per_item": _ratio(stat("bsa.bsa_state", "calls"), items),
        "bsa.bsa_state.lambda_mean": _ratio(c["bsa.bsa_state.lambda_sum"],
                                            stat("bsa.bsa_state", "calls")),
        "bsa.candidate_products.kept_ratio": _ratio(c["bsa.candidate_products.kept"],
                                                    c["bsa.candidate_products.requested"]),
        "bsa.candidate_products.bsa_state_share": _ratio(
            stat("bsa.candidate_products", "time_s"), stat("bsa.bsa_state", "time_s")),
        "scipy.optimize.minimize.nfev": c["scipy.optimize.minimize.nfev"],
        "serialization.dump_channel.bytes": c["serialization.dump_channel.bytes"],
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.startswith("trace."):
            continue
        else:
            span, key = name.rsplit(".", 1)
            value = stat(span, key)
        out[name] = (value, unit)
    return out

