#!/usr/bin/env python3
"""Survey random two-qubit channels: validation and separability verdicts.

Draws random CP-TP channels on a 2 x 2 bipartite system, validates the
dynamical-matrix constraints, runs the operation-level best separable
approximation, and tallies the verdicts and the range certificates
(``OperationBsa.certificate``; ``null`` where none fired).
"""

import argparse
import json
from dataclasses import asdict, dataclass

import numpy as np

from choiscope.bsa import bsa_operation
from choiscope.channels import validate
from choiscope.generators import random_cp_channel


@dataclass(frozen=True)
class SurveyConfig:
    count: int = 20
    budget: int = 100
    seed: int = 0


def run(config: SurveyConfig) -> dict:
    tally = {"separable": 0, "entangled": 0, "inconclusive": 0}
    certificates = {"realignment": 0, "symmetric_extension": 0, "null": 0}
    lams = []
    for k in range(config.count):
        ch = random_cp_channel(4, 4, seed=config.seed * 10_000 + k)
        report = validate(ch)
        if not (report.completely_positive and report.trace_preserving):
            raise SystemExit(f"random_channel_survey: channel {k} is not CP and TP: {report}")
        res = bsa_operation(ch, 2, budget=config.budget, seed=config.seed)
        tally[res.verdict.kind] += 1
        certificates[res.certificate or "null"] += 1
        lams.append(res.lam)
    return {"tally": tally,
            "certificates": certificates,
            "lambda_mean": float(np.mean(lams)),
            "lambda_min": float(np.min(lams)),
            "lambda_max": float(np.max(lams))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--budget", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.budget < 0:
        parser.error("--budget must be non-negative")
    config = SurveyConfig(count=args.count, budget=args.budget, seed=args.seed)
    out = {"config": asdict(config), **run(config)}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
