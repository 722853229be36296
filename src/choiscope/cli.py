"""Command-line front end.

Verbs: inspect, convert, bsa, gen, compose, tensor.  Reports are
canonical JSON (deterministic for a fixed seed); exit codes are a stable
contract: 0 success, 1 I/O or parse failure, 2 validation or
feasibility failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import sys
import time

import numpy as np

from . import serialization as ser
from .bsa import bsa_operation, bsa_state
from .channels import compose, tensor_channels, validate
from .errors import ChoiscopeError, DimensionMismatch, ParseError
from .generators import (NAMED_CHANNELS, depolarizing_channel,
                         random_cp_channel, random_state)
from .numerics import DEFAULT_TOL, Tolerance, min_eigenvalue, validate_state
from .reshape import BipartiteShape

REPORT_SCHEMA = "1"

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2


def _tolerance(args) -> Tolerance:
    tol = args.tol
    if not (np.isfinite(tol) and tol > 0):
        raise ParseError(f"--tol must be positive and finite, got {tol!r}")
    return Tolerance(atol=tol, rtol=tol)


def _seed(args) -> int:
    if args.seed is None:
        raise ParseError(f"{getattr(args, 'name', args.verb)} requires an explicit --seed")
    if args.seed < 0:
        raise ParseError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _load(path):
    """The parsed file and the SHA-256 of the bytes it was parsed from."""
    with open(path, "rb") as fh:
        data = fh.read()
    return ser.parse_bytes(data), hashlib.sha256(data).hexdigest()


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _complex_pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).ravel()]


def _terms(terms) -> list:
    return [{"lambda": float(lam), "e": _complex_pairs(pv.e), "f": _complex_pairs(pv.f)}
            for lam, pv in terms]


def cmd_inspect(args) -> int:
    tol = _tolerance(args)
    cf, digest = _load(args.path)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "inspect",
        "input_digest": digest,
        "kind": cf.kind,
        "dims": list(cf.dims),
    }
    if cf.kind == "state":
        rep = validate_state(cf.to_state(), tol)
        valid = rep.hermitian and rep.positive_semidefinite
    else:
        rep = validate(cf.to_channel(), tol)
        valid = rep.completely_positive
    report.update(dataclasses.asdict(rep))
    _write(args, ser.canonical_dumps(report))
    return EXIT_OK if valid else EXIT_INVALID


def cmd_convert(args) -> int:
    cf, _ = _load(args.path)
    # a "kraus" target raises NotCompletelyPositive on maps like the transpose
    _write(args, ser.dump_channel(cf.to_channel(), args.target))
    return EXIT_OK


def _bsa_state_report(args, cf, tol):
    rho = cf.to_state()
    shape = BipartiteShape(*cf.dims)
    dec = bsa_state(rho, shape, budget=args.budget, seed=args.seed, tol=tol)
    return {
        "lambda_total": float(dec.lambda_total),
        "term_count": len(dec.terms),
        "residual_min_eigenvalue": float(min_eigenvalue(dec.residual)),
        "candidate_set_size": dec.candidate_set_size,
        "terms": _terms(dec.terms),
    }


def _bsa_operation_report(args, cf, tol):
    channel = cf.to_channel()
    d = int(round(channel.d_in ** 0.5))
    if d * d != channel.d_in:
        raise DimensionMismatch("--operation requires a channel on an N x N bipartite system")
    result = bsa_operation(channel, d, budget=args.budget, seed=args.seed, tol=tol)
    return {
        "lambda": float(result.lam),
        "term_count": len(result.terms),
        "ent_part_norm": float(np.linalg.norm(result.ent_part.choi)),
        "verdict": result.verdict.kind,
        "terms": _terms(result.terms),
    }


def cmd_bsa(args) -> int:
    _seed(args)
    if args.budget < 0:
        raise ParseError(f"--budget must be non-negative, got {args.budget}")
    tol = _tolerance(args)
    cf, digest = _load(args.path)
    start = time.monotonic()
    body = (_bsa_operation_report(args, cf, tol) if args.operation
            else _bsa_state_report(args, cf, tol))
    elapsed = time.monotonic() - start
    report = {
        "schema": REPORT_SCHEMA,
        "command": "bsa",
        "input_digest": digest,
        "seed": args.seed,
        "budget": args.budget,
    }
    report.update(body)
    # wall time goes to stderr so reports stay byte-identical per seed
    print(f"bsa wall time: {elapsed:.2f}s", file=sys.stderr)
    _write(args, ser.canonical_dumps(report))
    return EXIT_OK


def cmd_gen(args) -> int:
    name, dims = args.name, args.dims
    if any(d < 1 for d in dims):
        raise ParseError(f"gen: dimensions must be >= 1, got {dims}")
    second = dims[1] if len(dims) > 1 else dims[0]
    if name == "random-state":
        text = ser.dump_state(random_state(dims[0] * second, _seed(args)), (dims[0], second))
    else:
        if name == "random-cp":
            channel = random_cp_channel(dims[0], second, _seed(args))
        elif name == "depolarizing":
            channel = depolarizing_channel(dims[0], args.p)
        else:
            channel = NAMED_CHANNELS[name](dims[0])
        text = ser.dump_channel(channel, "liouville" if name == "transpose" else "kraus")
    _write(args, text)
    return EXIT_OK


def cmd_combine(args) -> int:
    """Write ``args.combine`` (compose or tensor_channels) of the two input channels."""
    a, b = (_load(path)[0].to_channel() for path in (args.path_a, args.path_b))
    _write(args, ser.dump_channel(args.combine(a, b), "liouville"))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser (and, through ``add_subparsers``, subparser) whose
    usage errors raise ``ParseError``, so they exit 1 like any parse failure."""

    def error(self, message):
        raise ParseError(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process (it holds no per-call state)."""
    parser = _Parser(
        prog="choiscope",
        description="Calculus of quantum operations as matrices.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, seed=False, budget=False):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL.atol,
                       help="numerical tolerance, atol and rtol (default: 1e-9)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if budget:
            p.add_argument("--budget", type=int, default=500)

    p = sub.add_parser("inspect", help="validate a state or channel file")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("convert", help="convert a channel representation")
    p.add_argument("path")
    p.add_argument("target", choices=["kraus", "liouville", "choi"])
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("bsa", help="best separable approximation")
    p.add_argument("path")
    p.add_argument("--operation", action="store_true",
                   help="treat input as a channel on a bipartite system")
    common(p, seed=True, budget=True)
    p.set_defaults(func=cmd_bsa)

    p = sub.add_parser("gen", help="generate a fixture")
    p.add_argument("name", choices=["identity", "transpose", "depolarizing",
                                    "swap", "random-cp", "random-state"])
    p.add_argument("dims", type=int, nargs="+")
    p.add_argument("--p", type=float, default=0.5,
                   help="depolarizing strength")
    common(p, seed=True)
    p.set_defaults(func=cmd_gen)

    for verb, combine, text in (
            ("compose", compose, "compose two channels (first after second)"),
            ("tensor", tensor_channels, "tensor product of two channels")):
        p = sub.add_parser(verb, help=text)
        p.add_argument("path_a")
        p.add_argument("path_b")
        common(p)
        p.set_defaults(func=cmd_combine, combine=combine)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ChoiscopeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
