#!/usr/bin/env python3
"""End-to-end demo on the built-in fixtures.

For each fixture: check the closed-form certificate, then forget it and
recover multipliers from the trajectory alone, cross-validating the result
with the independent checker and comparing against the closed forms.
Exits 1 when the independent check fails on either fixture.
"""

import argparse
import sys
import time

import numpy as np

from lmpkit.lmp import check_certificate
from lmpkit.problem import builtin_example
from lmpkit.recovery import recover
from lmpkit.samples import Samples


def run_atom_fixture(ncells: int) -> bool:
    print(f"== endpoint-atom fixture (ncells={ncells}) ==")
    problem, trajectory, ms = builtin_example("ex1", ncells=ncells)
    samples = Samples(problem, trajectory)
    print(check_certificate(samples, ms).to_text())
    start = time.perf_counter()
    outcome = recover(samples)
    elapsed = time.perf_counter() - start
    result, report = outcome.result, outcome.report
    r = result.multipliers
    N = trajectory.grid.ncells
    print(f"\nrecovered in {elapsed:.2f}s, objective {result.objective:.2e}")
    print(
        "normalised proportions (cost weight : first atom : last atom) = "
        f"{r.alpha0:.6f} : {r.eta.atoms[0, 0]:.6f} : {r.eta.atoms[N, 0]:.6f}"
    )
    print(f"independent check: {'pass' if report.overall_pass else 'FAIL'}\n")
    return report.overall_pass


def run_arc_fixture(ncells: int) -> bool:
    print(f"== contact-arc fixture (ncells={ncells}) ==")
    problem, trajectory, ms = builtin_example("ex2", ncells=ncells)
    samples = Samples(problem, trajectory)
    print(check_certificate(samples, ms).to_text())
    start = time.perf_counter()
    outcome = recover(samples)
    elapsed = time.perf_counter() - start
    result, report = outcome.result, outcome.report
    r = result.multipliers
    a0 = r.alpha0
    mids = trajectory.grid.midpoints
    h = float(np.max(trajectory.grid.widths))
    arcs = np.abs(mids) > 0.5 + 2 * h
    inner = np.abs(mids) < 0.5 - 2 * h
    lam = r.lam / a0
    tot = lam + r.eta.density[:, 0] / a0
    print(f"\nrecovered in {elapsed:.2f}s, objective {result.objective:.2e}")
    print(
        f"lambda/alpha0 on the arcs: [{lam[arcs].min():.4f}, {lam[arcs].max():.4f}]"
        " (closed form 0.5)"
    )
    print(
        "(lambda + eta-density)/alpha0 on the contact interior: "
        f"[{tot[inner].min():.4f}, {tot[inner].max():.4f}] (closed form 1.0)"
    )
    print(f"independent check: {'pass' if report.overall_pass else 'FAIL'}\n")
    return report.overall_pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--atom-cells", type=int, default=100)
    parser.add_argument("--arc-cells", type=int, default=400)
    args = parser.parse_args()
    atom_ok = run_atom_fixture(args.atom_cells)
    arc_ok = run_arc_fixture(args.arc_cells)
    return 0 if atom_ok and arc_ok else 1


if __name__ == "__main__":
    sys.exit(main())
