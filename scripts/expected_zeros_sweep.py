#!/usr/bin/env python3
"""Sweep expected zero counts over degrees for both coefficient models.

Prints a table of Monte Carlo means against the closed-form targets; the
floor-log jumps of the binomial model (at d = p, p^2, ...) show up clearly.
"""

import argparse

from padicgeo.igf import McConfig, mc_expected_zeros
from padicgeo.sample import RandomPolyModel


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prime", type=int, default=3)
    ap.add_argument("--max-degree", type=int, default=9)
    ap.add_argument("--samples", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--region", default="zp")
    args = ap.parse_args()

    print(f"p = {args.prime}, region = {args.region}, {args.samples} samples/cell")
    print(f"{'d':>3} {'model':>9} {'mean':>9} {'stderr':>8} {'target':>9}  ok")
    for d in range(1, args.max_degree + 1):
        for kind in ("monomial", "mahler"):
            model = RandomPolyModel(kind, d, args.prime)
            cfg = McConfig(samples=args.samples, seed=args.seed + d)
            rep = mc_expected_zeros(model, args.region, cfg)
            print(
                f"{d:>3} {kind:>9} {rep.mean:>9.4f} {rep.stderr:>8.4f} "
                f"{float(rep.target):>9.4f}  {'y' if rep.passed else 'N'}"
            )


if __name__ == "__main__":
    main()
