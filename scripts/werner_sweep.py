#!/usr/bin/env python3
"""Sweep the Werner family and compare BSA weights to the closed form.

For p >= 1/3 the best separable approximation of
p |psi-><psi-| + (1-p) I/4 has total weight 3(1-p)/2 (and 1 below that
threshold, where the state is separable).
"""

import argparse
import json
from dataclasses import asdict, dataclass

import numpy as np

from choiscope.bsa import bsa_state
from choiscope.generators import werner_state
from choiscope.reshape import BipartiteShape


@dataclass(frozen=True)
class SweepConfig:
    p_min: float = 0.0
    p_max: float = 1.0
    steps: int = 11
    budget: int = 300
    seed: int = 0


def closed_form(p: float) -> float:
    return 1.0 if p <= 1 / 3 else 1.5 * (1.0 - p)


def run(config: SweepConfig) -> list:
    shape = BipartiteShape(2, 2)
    rows = []
    for p in np.linspace(config.p_min, config.p_max, config.steps):
        dec = bsa_state(werner_state(float(p)), shape,
                        budget=config.budget, seed=config.seed)
        rows.append({"p": round(float(p), 6),
                     "lambda_total": dec.lambda_total,
                     "closed_form": closed_form(float(p)),
                     "gap": closed_form(float(p)) - dec.lambda_total,
                     "terms": len(dec.terms)})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=11)
    parser.add_argument("--budget", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable output")
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.budget < 0:
        parser.error("--budget must be non-negative")
    config = SweepConfig(steps=args.steps, budget=args.budget, seed=args.seed)
    rows = run(config)
    if args.json:
        print(json.dumps({"config": asdict(config), "rows": rows}, indent=2))
        return
    print(f"{'p':>8} {'bsa':>12} {'closed':>12} {'gap':>10} {'terms':>6}")
    for r in rows:
        print(f"{r['p']:8.3f} {r['lambda_total']:12.8f} "
              f"{r['closed_form']:12.8f} {r['gap']:10.2e} {r['terms']:6d}")


if __name__ == "__main__":
    main()
