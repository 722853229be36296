"""Canonical JSON file format for states and channel representations.

One file holds exactly one object: a Kraus set, a Liouville matrix, a
Choi matrix, or a density matrix.  Complex entries are [re, im] pairs,
matrices are row-major nested lists with an explicit dims field, and the
canonical writer (sorted keys, 17-significant-digit floats) makes
serialize(parse(x)) byte-identical.

Matrices are handled whole: the writer fills one ``%.17g`` template per
matrix shape from the matrix's float view, and the parser checks and
converts each matrix in whole-array passes.  Both agree byte for byte with
an element-wise writer and parser (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import Channel
from .errors import ParseError
from .numerics import DEFAULT_TOL, Tolerance, as_matrix

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


@functools.lru_cache(maxsize=32)
def _matrix_template(rows: int, cols: int) -> str:
    row = "[" + ",".join(["[%.17g,%.17g]"] * cols) + "]"
    return "[" + ",".join([row] * rows) + "]"


def _matrix_text(M: np.ndarray) -> str:
    """Canonical text of a finite complex matrix (as ``as_matrix`` returns it)."""
    M = np.ascontiguousarray(M)
    # + 0.0 writes -0.0 as 0, as _fmt_float does
    return _matrix_template(*M.shape) % tuple((M.view(float).ravel() + 0.0).tolist())


def _is_int(x) -> bool:
    """A JSON integer; ``true``/``false`` parse as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _float_or_inf(x) -> float:
    try:
        return float(x)
    except OverflowError:  # an integer too large for a float
        return math.inf


def _reject_constant(name: str):
    raise ParseError(f"invalid JSON: non-finite number {name} is not allowed")


# exact types: JSON true/false parse as bool, a subclass of int
_NUMBER_TYPES = {float, int}


def _lists_to_matrix(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    ncol = len(data[0]) if type(data[0]) is list else -1
    nrow = next((i for i, row in enumerate(data)
                 if type(row) is not list or len(row) != ncol), len(data))
    pairs = list(itertools.chain.from_iterable(data[:nrow]))
    # each pass below lowers ``bad``, the flat index of the first entry that is
    # not an [re, im] pair of finite numbers, and reads only the pairs before it
    bad = len(pairs)
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        bad = next(k for k, z in enumerate(pairs) if type(z) is not list or len(z) != 2)
    flat = list(itertools.chain.from_iterable(pairs[:bad]))
    if not set(map(type, flat)) <= _NUMBER_TYPES:
        bad = next(k for k, x in enumerate(flat) if type(x) not in _NUMBER_TYPES) // 2
        flat = flat[:2 * bad]
    try:
        values = np.array(flat, dtype=float)
    except OverflowError:
        values = np.array([_float_or_inf(x) for x in flat], dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite)) // 2
    if bad < len(pairs):
        i, j = divmod(bad, ncol)
        raise ParseError(f"{where}[{i}][{j}]: expected an [re, im] pair "
                         "of finite numbers")
    if nrow < len(data):
        raise ParseError(f"{where}[{nrow}]: ragged or non-list row")
    return values.view(complex).reshape(nrow, ncol)


def dump_file(kind: str, dims, matrices) -> str:
    """Serialize one object to canonical JSON text.

    Raises ``ParseError`` for anything ``parse_text`` would reject: an
    unknown kind, dims that are not two positive integers, an empty Kraus
    list, or a matrix whose shape does not match ``dims``.
    """
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2 or min(dims) < 1:
        raise ParseError("dims: expected two positive integers")
    mats = [as_matrix(M) for M in matrices]
    if not mats:
        raise ParseError("data: expected a non-empty list of matrices")
    _check_shapes(kind, dims, mats)
    if kind == "kraus":
        data = "[" + ",".join(_matrix_text(M) for M in mats) + "]"
    else:
        data = _matrix_text(mats[0])
    # the keys in sorted order, as canonical_dumps writes them
    return ('{"data":%s,"dims":[%d,%d],"format_version":"%s","kind":"%s"}\n'
            % (data, dims[0], dims[1], FORMAT_VERSION, kind))


def dump_channel(channel: Channel, kind: str = "kraus",
                 tol: Tolerance = DEFAULT_TOL) -> str:
    """Serialize ``channel`` as ``kind``; a Kraus set read from the Choi
    matrix has its CP floor and rank cut at ``tol``."""
    dims = (channel.d_in, channel.d_out)
    if kind == "kraus":
        return dump_file("kraus", dims, channel.kraus_operators(tol))
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


def parse_bytes(data: bytes) -> ChannelFile:
    """Parse a file's bytes, which must be UTF-8 text."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start}: {exc.reason}") from None
    return parse_text(text)


def load_path(path) -> ChannelFile:
    with open(path, "rb") as fh:
        return parse_bytes(fh.read())
