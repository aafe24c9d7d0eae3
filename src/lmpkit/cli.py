"""Command-line front end.

Subcommands: ``check`` a certificate, ``recover`` multipliers, ``example``
to materialise a built-in fixture as files, and ``cones`` to test one cone
family file for separation (``scripts/cone_experiment.py`` runs seeded
batches).  Exit codes: 0 success/pass, 1 a check failed, 2 input error or
a request larger than memory.  Reports are deterministic: identical inputs
and options produce byte-identical output at a fixed BLAS thread count.
Set LMP_LOG=debug|info for more logging.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import re
import sys

import numpy as np

from . import cones as cones_mod
from . import io, recovery
from .errors import InputError, LmpkitError
from .lmp import CheckConfig, check_certificate
from .problem import builtin_example
from .samples import Samples

log = logging.getLogger("lmpkit")

# a horizon end of the problem matches the trajectory's grid within this
# share of the horizon
_NODE_MATCH_RTOL = 1e-9


def _check_config(args) -> CheckConfig:
    return CheckConfig(
        structural_tol=args.structural_tol,
        adjoint_tol=args.adjoint_tol,
        stationarity_tol=args.stationarity_tol,
    )


def _emit_report(report, args) -> None:
    if args.format == "json":
        text = io.json_text(report.to_json_dict()) + "\n"
    else:
        text = report.to_text() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_inputs(args):
    """The problem and the trajectory; a dimension of the problem that the
    trajectory does not have, or a horizon end that is not the end of its
    grid (within _NODE_MATCH_RTOL of the horizon), is refused by the path
    of its field, followed by the path of the trajectory's field."""
    problem = io.load_problem(args.problem)
    trajectory = io.load_trajectory(args.trajectory)
    for key, field in (("n", "x"), ("m", "u_cells")):
        declared, given = getattr(problem, key), getattr(trajectory, key)
        if declared != given:
            raise InputError(
                f"{args.problem}.{key}: {declared}, but the trajectory has {given} "
                f"({args.trajectory}.{field})"
            )
    grid = trajectory.grid
    for key, node in (("t0", 0), ("t1", grid.ncells)):
        declared, given = getattr(problem, key), getattr(grid, key)
        if abs(declared - given) > _NODE_MATCH_RTOL * (grid.t1 - grid.t0):
            raise InputError(
                f"{args.problem}.{key}: {declared!r}, but the trajectory's grid has "
                f"{given!r} ({args.trajectory}.grid[{node}])"
            )
    return problem, trajectory


def cmd_check(args) -> int:
    problem, trajectory = _load_inputs(args)
    certificate = io.load_certificate(args.certificate, trajectory.grid)
    samples = Samples(problem, trajectory, delta=args.delta, eps=args.eps)
    config = _check_config(args)
    try:
        report = check_certificate(samples, certificate, config)
    except InputError as err:
        # a costate of another width than n; the other refusal, a foreign
        # grid, cannot arise, the certificate being read on the trajectory's
        raise InputError(f"{args.certificate}.p.values: {err}") from None
    _emit_report(report, args)
    return 0 if report.overall_pass else 1


def cmd_recover(args) -> int:
    problem, trajectory = _load_inputs(args)
    if trajectory.grid.ncells < 4:
        raise LmpkitError("grid too coarse: contact set unresolvable")
    samples = Samples(problem, trajectory, delta=args.delta, eps=args.eps)
    outcome = recovery.recover(samples)
    log.info("recovery dims: %s", outcome.dims)
    if args.out_certificate:
        io.save_certificate(outcome.result.multipliers, args.out_certificate)
    _emit_report(outcome.report, args)
    result = outcome.result
    sys.stdout.write(
        f"recovery objective: {result.objective:.6e} "
        f"(kkt residual {result.kkt_residual:.2e}, status {result.status}, "
        f"{result.iterations} iterations)\n"
    )
    if not outcome.certified:
        sys.stdout.write("local minimum principle not certified at this grid\n")
        if result.status != "optimal":
            sys.stdout.write(f"the solver stopped early ({result.status})\n")
        else:
            failing = next(e.name for e in outcome.report.entries if not e.passed)
            sys.stdout.write(f"the solver converged; the checker rejects {failing}\n")
        return 1
    return 0


def cmd_example(args) -> int:
    params: dict = {"ncells": args.N}
    if args.name == "ex1":
        params.update(t0=args.t0, t1=args.t1)
    elif args.name == "ex2":
        try:
            shares = [float(v) for v in args.split.split(",")]
        except ValueError:
            shares = []
        if len(shares) != 2:
            raise LmpkitError("--split expects two comma-separated shares")
        params.update(T=args.T, m=args.m, contact_split=tuple(shares))
    problem, trajectory, multipliers = builtin_example(args.name, **params)
    os.makedirs(args.out_dir, exist_ok=True)
    io.save_problem(problem, os.path.join(args.out_dir, "problem.json"))
    io.save_trajectory(trajectory, os.path.join(args.out_dir, "trajectory.json"))
    io.save_certificate(multipliers, os.path.join(args.out_dir, "certificate.json"))
    sys.stdout.write(f"wrote problem/trajectory/certificate to {args.out_dir}\n")
    return 0


def cmd_cones(args) -> int:
    # refused here too: a file whose cones intersect never reaches the eps
    # check of approx_separate
    if not (np.isfinite(args.eps) and args.eps > 0):
        raise LmpkitError(f"--eps must be positive and finite, not {args.eps!r}")
    family = io.load_cone_family(args.family)
    inter = cones_mod.intersection_nonempty(family)
    if inter.nonempty:
        sys.stdout.write(
            "cones intersect\n"
            f"margin: {inter.margin:.6e}\nwitness: {inter.witness.tolist()}\n"
        )
        return 1
    sep = cones_mod.approx_separate(family, args.eps)
    if not sep.separated:
        sys.stdout.write(
            "intersection empty but separation exceeded eps "
            f"(objective {sep.objective})\n"
        )
        return 1
    sys.stdout.write(f"separated (objective {sep.objective:.6e})\n")
    for i, coeff in enumerate(sep.coefficients):
        sys.stdout.write(f"h[{i}] coefficients: {coeff.tolist()}\n")
        sys.stdout.write(f"h[{i}] = {sep.h[i].tolist()}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse takes a value that starts with '-' for an option name unless
    it reads like -1 or -.5, so ``--t0 -inf`` and ``--t0 -1e400`` end in
    "expected one argument"; that error names the form that works."""

    def error(self, message):
        option = re.fullmatch(r"argument (--[\w-]+): expected one argument", message)
        if option:
            message += f" (join a value that starts with '-' with '=', as in {option[1]}=-inf)"
        super().error(message)


def _add_phase_options(sub) -> None:
    sub.add_argument("--delta", type=float, default=1e-8, help="phase-set slack on G")
    sub.add_argument("--eps", type=float, default=1e-8, help="phase-set slack on |G_u|")


def _add_check_options(sub) -> None:
    sub.add_argument("--structural-tol", type=float, default=1e-7)
    sub.add_argument("--adjoint-tol", type=float, default=None)
    sub.add_argument("--stationarity-tol", type=float, default=None)


def _add_output_options(sub) -> None:
    sub.add_argument("--out", default=None, help="write the report to a file")
    sub.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = _Parser(
        prog="lmpkit",
        description=(
            "Check and recover first-order optimality certificates for optimal "
            "control problems with one nonregular mixed constraint."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="check a certificate against a trajectory")
    check.add_argument("problem")
    check.add_argument("trajectory")
    check.add_argument("certificate")
    _add_phase_options(check)
    _add_check_options(check)
    _add_output_options(check)
    check.set_defaults(fn=cmd_check)

    rec = subs.add_parser("recover", help="recover multipliers from a trajectory")
    rec.add_argument("problem")
    rec.add_argument("trajectory")
    _add_phase_options(rec)
    rec.add_argument("--out-certificate", default=None)
    _add_output_options(rec)
    rec.set_defaults(fn=cmd_recover)

    example = subs.add_parser("example", help="write a built-in fixture as files")
    example.add_argument("name", help="ex1 or ex2")
    example.add_argument("--N", type=int, default=100, help="grid cells")
    example.add_argument("--t0", type=float, default=0.0)
    example.add_argument("--t1", type=float, default=1.0)
    example.add_argument("--T", type=float, default=1.0)
    example.add_argument("--m", type=float, default=0.5)
    example.add_argument(
        "--split",
        default="0.5,0.5",
        help="ex2 contact-region split: density-multiplier share, measure share",
    )
    example.add_argument("--out-dir", default=".")
    example.set_defaults(fn=cmd_example)

    cone = subs.add_parser("cones", help="approximate cone separation")
    cone.add_argument("family", help="cone family file")
    cone.add_argument("--eps", type=float, default=1e-6)
    cone.set_defaults(fn=cmd_cones)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("LMP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LmpkitError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except MemoryError as err:  # numpy's names the allocation it refused
        sys.stderr.write(f"error: {str(err) or 'out of memory'}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
