#!/usr/bin/env python3
"""Empirical study of the separation equivalence on random polyhedral cones.

For each seeded instance the two verdicts are computed independently (the
margin LP and the approximate-separation LP) and tabulated; away from the
degenerate margin band they must be exact complements of each other.  The
read-outs are checked too, within 1e-12: a witness must meet <g, x> >= margin
on the open-cone generators, >= 0 on the closed cone's and |x|_inf <= 1, and
a separating family's objective must equal |sum h_i|_1.  Any failure is a
violation, and the script then exits with code 1.
"""

import argparse
from collections import Counter

import numpy as np

from lmpkit.cones import approx_separate, intersection_nonempty, random_family

TOL = 1e-12


def witness_fails(family, inter) -> bool:
    x = inter.witness
    low = [(c.generators @ x).min() - (inter.margin if c.open else 0.0) for c in family]
    return min(low) < -TOL or np.abs(x).max() > 1.0 + TOL


def objective_fails(sep) -> bool:
    return abs(sep.objective - np.abs(np.sum(sep.h, axis=0)).sum()) > TOL


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--eps", type=float, default=1e-6)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args()

    tally = Counter()
    margins = []
    violations = []
    for i in range(args.instances):
        rng = np.random.default_rng(args.seed_base + i)
        family = random_family(rng, dim=args.dim)
        inter = intersection_nonempty(family)
        margins.append(inter.margin)
        if 0.0 < inter.margin <= 1e-9:
            tally["degenerate"] += 1
            continue
        sep = approx_separate(family, args.eps)
        if inter.nonempty:
            tally["intersecting"] += 1
        else:
            tally["separated"] += 1
        if (
            sep.separated == inter.nonempty
            or (inter.nonempty and witness_fails(family, inter))
            or (sep.separated and objective_fails(sep))
        ):
            violations.append(args.seed_base + i)

    margins = np.asarray(margins)
    print(f"instances:     {args.instances}")
    print(f"intersecting:  {tally['intersecting']}")
    print(f"separated:     {tally['separated']}")
    print(f"degenerate:    {tally['degenerate']} (margin within 1e-9 of zero)")
    positive = margins[margins > 1e-9]
    if positive.size:
        print(
            f"margin stats over intersecting: min {positive.min():.3e}, "
            f"median {np.median(positive):.3e}, max {positive.max():.3e}"
        )
    print(f"violations:    {len(violations)}")
    if violations:
        print(f"violating seeds: {violations}")
        raise SystemExit(1)
    print("equivalence, witnesses and objectives held on every non-degenerate instance")


if __name__ == "__main__":
    main()
