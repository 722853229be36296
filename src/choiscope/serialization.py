"""Canonical JSON file format for states and channel representations.

One file holds exactly one object: a Kraus set, a Liouville matrix, a
Choi matrix, or a density matrix.  Complex entries are [re, im] pairs,
matrices are row-major nested lists with an explicit dims field, and the
canonical writer (sorted keys, 17-significant-digit floats) makes
serialize(parse(x)) byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import Channel
from .errors import ParseError
from .numerics import as_matrix

FORMAT_VERSION = "1"
KINDS = ("kraus", "liouville", "choi", "state")


@dataclass(frozen=True)
class ChannelFile:
    """Parsed contents of a channel/state file."""

    kind: str
    dims: tuple
    matrices: tuple  # one matrix, or the Kraus list

    def to_channel(self) -> Channel:
        if self.kind == "state":
            raise ParseError("file holds a state, not a channel")
        d_in, d_out = self.dims
        if self.kind == "kraus":
            return Channel.from_kraus(self.matrices, d_in=d_in, d_out=d_out)
        if self.kind == "liouville":
            return Channel.from_liouville(self.matrices[0], d_in, d_out)
        return Channel.from_choi(self.matrices[0], d_in, d_out)

    def to_state(self) -> np.ndarray:
        if self.kind != "state":
            raise ParseError(f"file holds a {self.kind} object, not a state")
        return self.matrices[0]


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ParseError("non-finite value cannot be serialized")
    # the parser reads "-0" as the integer 0, so -0.0 is written as 0 to keep
    # serialize(parse(x)) byte-identical
    return "%.17g" % (float(x) + 0.0)


def _emit(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(k) + ":" + _emit(v) for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise ParseError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, %.17g floats, no whitespace."""
    return _emit(obj) + "\n"


def matrix_to_lists(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _is_int(x) -> bool:
    """A JSON integer; ``true``/``false`` parse as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    """A JSON number (not a boolean) that converts to a finite float."""
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def _reject_constant(name: str):
    raise ParseError(f"invalid JSON: non-finite number {name} is not allowed")


def _lists_to_matrix(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    ncol = None
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or (ncol is not None and len(row) != ncol):
            raise ParseError(f"{where}[{i}]: ragged or non-list row")
        ncol = len(row)
        out = []
        for j, z in enumerate(row):
            if (not isinstance(z, list) or len(z) != 2
                    or not all(_is_finite_number(c) for c in z)):
                raise ParseError(f"{where}[{i}][{j}]: expected an [re, im] pair "
                                 "of finite numbers")
            out.append(complex(z[0], z[1]))
        rows.append(out)
    return np.array(rows, dtype=complex)


def dump_file(kind: str, dims, matrices) -> str:
    """Serialize one object to canonical JSON text."""
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    mats = [as_matrix(M) for M in matrices]
    data = matrix_to_lists(mats[0]) if kind != "kraus" else [matrix_to_lists(M) for M in mats]
    return canonical_dumps({
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "dims": [int(d) for d in dims],
        "data": data,
    })


def dump_channel(channel: Channel, kind: str = "kraus") -> str:
    dims = (channel.d_in, channel.d_out)
    if kind == "kraus":
        return dump_file("kraus", dims, channel.kraus_operators())
    if kind == "liouville":
        return dump_file("liouville", dims, [channel.liouville])
    if kind == "choi":
        return dump_file("choi", dims, [channel.choi])
    raise ParseError(f"unknown channel kind {kind!r}")


def dump_state(rho, dims) -> str:
    return dump_file("state", dims, [rho])


def parse_text(text: str) -> ChannelFile:
    """Parse file text; errors carry the offending position or key path."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"format_version: expected {FORMAT_VERSION!r}, got {version!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"kind: expected one of {KINDS}, got {kind!r}")
    dims = doc.get("dims")
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(_is_int(d) and d > 0 for d in dims)):
        raise ParseError("dims: expected two positive integers")
    data = doc.get("data")
    if kind == "kraus":
        if not isinstance(data, list) or not data:
            raise ParseError("data: expected a non-empty list of matrices")
        mats = tuple(_lists_to_matrix(M, f"data[{k}]") for k, M in enumerate(data))
    else:
        mats = (_lists_to_matrix(data, "data"),)
    _check_shapes(kind, tuple(dims), mats)
    return ChannelFile(kind=kind, dims=tuple(dims), matrices=mats)


def _check_shapes(kind, dims, mats):
    d0, d1 = dims
    expect = {
        "kraus": (d1, d0),
        "liouville": (d1 * d1, d0 * d0),
        "choi": (d1 * d0, d1 * d0),
        "state": (d0 * d1, d0 * d1),
    }[kind]
    for k, M in enumerate(mats):
        if M.shape != expect:
            raise ParseError(f"data[{k}]: shape {M.shape} does not match "
                             f"dims {dims} for kind {kind!r} (expected {expect})")


def load_path(path) -> ChannelFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())
