"""Command-line front end.

Subcommands: ``check`` a certificate, ``recover`` multipliers, ``example``
to materialise a built-in fixture as files, and ``cones`` for the
separation engine.  Exit codes: 0 success/pass, 1 a check failed, 2 input
error.  Reports are deterministic: identical inputs and options produce
byte-identical output.  Set LMP_LOG=debug|info for more logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import cones as cones_mod
from . import io, recovery
from .errors import LmpkitError
from .lmp import CheckConfig, check_certificate
from .problem import builtin_example

log = logging.getLogger("lmpkit")


def _check_config(args) -> CheckConfig:
    return CheckConfig(
        delta=args.delta,
        eps=args.eps,
        structural_tol=args.structural_tol,
        adjoint_tol=args.adjoint_tol,
        stationarity_tol=args.stationarity_tol,
    )


def _emit_report(report, args) -> None:
    if args.format == "json":
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    else:
        text = report.to_text() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    problem = io.load_problem(args.problem)
    trajectory = io.load_trajectory(args.trajectory)
    certificate = io.load_certificate(args.certificate, trajectory.grid)
    report = check_certificate(problem, trajectory, certificate, _check_config(args))
    _emit_report(report, args)
    return 0 if report.overall_pass else 1


def cmd_recover(args) -> int:
    problem = io.load_problem(args.problem)
    trajectory = io.load_trajectory(args.trajectory)
    if trajectory.grid.ncells < 4:
        raise LmpkitError("grid too coarse: contact set unresolvable")
    config = recovery.RecoveryConfig(
        delta=args.delta,
        eps=args.eps,
        delta_slack=args.delta_slack,
        seeds=args.seeds,
        max_iterations=args.max_iterations,
        seed_base=args.seed_base,
    )
    outcome = recovery.recover(problem, trajectory, config)
    log.info("recovery dims: %s", outcome.dims)
    if args.out_certificate:
        io.save_certificate(outcome.result.multipliers, args.out_certificate)
    _emit_report(outcome.report, args)
    sys.stdout.write(
        f"recovery objective: {outcome.result.objective:.6e} "
        f"(kkt residual {outcome.result.kkt_residual:.2e})\n"
    )
    if not outcome.certified:
        sys.stdout.write("local minimum principle not certified at this grid\n")
        return 1
    return 0


def cmd_example(args) -> int:
    params: dict = {"ncells": args.N}
    if args.name == "ex1":
        params.update(t0=args.t0, t1=args.t1)
    elif args.name == "ex2":
        shares = [float(v) for v in args.split.split(",")]
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


def _cones_batch(args) -> int:
    agree = 0
    degenerate = 0
    violations = []
    for seed in range(args.seeds):
        rng = np.random.default_rng(1000 + seed)
        family = cones_mod.random_family(rng)
        inter = cones_mod.intersection_nonempty(family)
        sep = cones_mod.approx_separate(family, args.eps)
        if 0.0 < inter.margin <= 1e-9:
            degenerate += 1
            continue
        if inter.nonempty != sep.separated:
            agree += 1
        else:
            violations.append(seed)
    sys.stdout.write(
        f"{args.seeds} instances: {agree} consistent, {degenerate} degenerate "
        f"(margin within 1e-9), {len(violations)} violations\n"
    )
    if violations:
        sys.stdout.write(f"violating seeds: {violations}\n")
        return 1
    return 0


def cmd_cones(args) -> int:
    if args.family is None:
        if not args.seeds:
            raise LmpkitError("give a cone file or --seeds for batch mode")
        return _cones_batch(args)
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


def _add_check_options(sub) -> None:
    sub.add_argument("--delta", type=float, default=1e-8, help="phase-set slack on G")
    sub.add_argument("--eps", type=float, default=1e-8, help="phase-set slack on |G_u|")
    sub.add_argument("--structural-tol", type=float, default=1e-7)
    sub.add_argument("--adjoint-tol", type=float, default=None)
    sub.add_argument("--stationarity-tol", type=float, default=None)


def _add_output_options(sub) -> None:
    sub.add_argument("--out", default=None, help="write the report to a file")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _add_check_options(check)
    _add_output_options(check)
    check.set_defaults(fn=cmd_check)

    rec = subs.add_parser("recover", help="recover multipliers from a trajectory")
    rec.add_argument("problem")
    rec.add_argument("trajectory")
    rec.add_argument("--delta", type=float, default=1e-8)
    rec.add_argument("--eps", type=float, default=1e-8)
    rec.add_argument("--delta-slack", type=float, default=None)
    rec.add_argument("--seeds", type=int, default=3)
    rec.add_argument("--seed-base", type=int, default=0)
    rec.add_argument("--max-iterations", type=int, default=5000)
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
    cone.add_argument("family", nargs="?", default=None, help="cone family file")
    cone.add_argument("--eps", type=float, default=1e-6)
    cone.add_argument("--seeds", type=int, default=0, help="random batch size")
    cone.set_defaults(fn=cmd_cones)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("LMP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LmpkitError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
