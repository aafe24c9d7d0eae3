"""Benchmark of lmpkit: check, recover and cone separation.

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 25 --trace 0

Runs one workload (check-large, recover-small or cones-batch) in this
process, from the root of a checkout holding lmpkit's sources under src/.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
the same ops untraced and then traced, and prints per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details (machine, sample
counts, the percentile behind op_ms.tail) go to perfbench/out/.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5  # this process and four fresh ones
TAIL_BEYOND = 10  # samples the tail percentile leaves above it

PER_LAYER_MS = (
    "io.load",
    "io.save",
    "problem.tables",
    "expr.evaluate",
    "problem.dynamics_defect",
    "geometry.contact_set",
    "geometry.jump_directions",
    "geometry.dist_to_convex_hull",
    "lmp.check_certificate",
    "lmp.check_signs_slackness",
    "lmp.check_jump_inclusion",
    "lmp.check_adjoint",
    "lmp.check_stationarity",
    "lmp.report",
    "recovery.build_program",
    "recovery.solve",
    "recovery.cross_validate",
    "cones.intersection_nonempty",
    "cones.approx_separate",
    "lp.solve_standard_form",
)
PER_LAYER_CALLS = (
    "expr.evaluate",
    "geometry.contact_set",
    "geometry.jump_directions",
    "geometry.dist_to_convex_hull",
    "lp.solve_standard_form",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="lmpkit benchmark")
    parser.add_argument(
        "--workload", required=True, choices=("check-large", "recover-small", "cones-batch")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one set-up sample in a fresh process; used by the run itself
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_lmpkit():
    """Import lmpkit from this checkout's src/, and nothing else."""
    if not (SRC / "lmpkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no lmpkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lmpkit

    if Path(lmpkit.__file__).resolve().parent != SRC / "lmpkit":
        raise SystemExit(f"error: imported lmpkit from {lmpkit.__file__}, not {SRC}")


def blas_info() -> dict:
    """BLAS library, version and the thread count it runs with."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def set_up(workload, workdir: Path, seed: int) -> float:
    """Write the inputs and run one untimed warm-up op; returns the CPU
    seconds this process has used since it started."""
    workdir.mkdir(parents=True)
    workload.setup(str(workdir), seed)
    workload.warm_up()
    return time.process_time()


def fresh_setup_sample(args) -> float:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Phase:
    """Op timings (CPU seconds of this process, and wall seconds) and
    outcomes of one timed phase."""

    def __init__(self):
        self.seconds: list[float] = []
        self.wall: list[float] = []
        self.failed = 0
        self.raised: list[str] = []  # ops that raised count as failed
        self.errors: list[str] = []  # wrong outputs of ops that completed
        self.rounds = 0


def run_phase(workload, rng, seconds: float, min_rounds: int, tracer=None):
    """Whole rounds of ops until ``seconds`` have passed and ``min_rounds``
    are done.  Only the program call is timed; the output checks run
    between ops.  Op times are CPU time, which leaves out the time other
    tenants of a shared host take from this process."""
    phase = Phase()
    start = time.perf_counter()

    while phase.rounds < min_rounds or time.perf_counter() - start < seconds:
        for op in workload.round(rng):
            if tracer is not None:
                tracer.begin_op(op.label)
            t0 = time.process_time()
            w0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as err:
                out = err
            dt = time.process_time() - t0
            phase.wall.append(time.perf_counter() - w0)
            if tracer is not None:
                tracer.end_op()
            phase.seconds.append(dt)
            if isinstance(out, Exception):
                phase.failed += 1
                phase.raised.append(f"{op.label}: {out!r}")
                continue
            try:
                failed, errors = op.verify(out)
            except (OSError, ValueError, KeyError, TypeError) as err:
                failed, errors = False, [f"{op.label}: unreadable output: {err!r}"]
            phase.failed += failed
            phase.errors.extend(errors)
        phase.rounds += 1
    return phase


def tail_percentile(workload) -> int:
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it in the smallest run the workload makes (min_rounds whole rounds)."""
    import numpy as np

    workload_ops = len(workload.round(np.random.default_rng(0)))
    nmin = workload_ops * workload.min_rounds
    return int(100 * (1 - TAIL_BEYOND / nmin))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, phase: Phase, setup_samples, peak_rss_mb) -> tuple[dict, dict]:
    import numpy as np

    ms = 1e3 * np.asarray(phase.seconds)
    pct = tail_percentile(workload)
    completed = len(ms) - phase.failed
    metrics = {
        "ops_per_s": metric(completed / float(np.sum(phase.seconds)), "1/s"),
        "op_ms.p50": metric(float(np.median(ms)), "ms"),
        "op_ms.tail": metric(float(np.percentile(ms, pct)), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
    }
    details = {
        "ops": len(ms),
        "rounds": phase.rounds,
        "tail_percentile": pct,
        "samples_beyond_tail": int(np.sum(ms > np.percentile(ms, pct))),
        "setup_samples_s": setup_samples,
        "wall_ops_per_s": completed / float(np.sum(phase.wall)),
        "wall_op_ms.p50": 1e3 * float(np.median(phase.wall)),
        "wall_op_ms.tail": 1e3 * float(np.percentile(phase.wall, pct)),
    }
    return metrics, details


def per_layer(tracer, plain: Phase, traced: Phase) -> dict:
    metrics = {}
    for name in PER_LAYER_MS:
        metrics[f"{name}.ms"] = metric(tracer.self_ms(name), "ms")
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = metric(tracer.calls(name), "count")
    metrics["recovery.unknowns"] = metric(tracer.sizes.get("recovery.unknowns", 0), "count")
    metrics["recovery.program_mb"] = metric(
        tracer.sizes.get("recovery.program_mb", 0.0), "MB-computed"
    )
    overhead = sum(traced.seconds) / sum(plain.seconds) - 1.0
    metrics["trace.overhead_pct"] = metric(100.0 * overhead, "%")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import_lmpkit()
    import numpy as np

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_s = set_up(workload, workdir, args.seed)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        rng = np.random.default_rng(args.seed)
        tracer = None
        if args.trace:
            plain = run_phase(workload, rng, args.seconds / 2, 1)
            tracer = spans.Tracer()
            spans.install(tracer)
            phase = run_phase(workload, rng, 0, plain.rounds, tracer=tracer)
            phases = (plain, phase)
        else:
            phase = run_phase(workload, rng, args.seconds, workload.min_rounds)
            phases = (phase,)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        errors = [e for p in phases for e in p.errors] + workload.final_checks()
        setup_samples = [setup_s]
        if not args.trace:
            setup_samples += [fresh_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.seconds) for p in phases)
    failed = sum(p.failed for p in phases)
    if args.trace:
        metrics = per_layer(tracer, plain, phase)
        details = {
            "ops_traced": len(phase.seconds),
            "rounds_traced": phase.rounds,
            "by_label": tracer.by_label(),
        }
    else:
        metrics, details = end_to_end(workload, phase, setup_samples, peak_rss_mb)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
        },
        **details,
        "raised": [r for p in phases for r in p.raised],
        "errors": errors,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    summary = ", ".join(
        f"{k}={v}" for k, v in details.items() if k not in ("setup_samples_s", "by_label")
    )
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed, {summary}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
