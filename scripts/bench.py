"""Sweep of `lmpkit check` and `lmpkit recover` over grid sizes, and a batch
of cone-separation LPs, written to a BENCH record.

    python3 scripts/bench.py --label NAME [--src NAME=PATH ...]

For the fixtures ex1 and ex2 at N in 100, 400, 800, 1600 and 3200 cells it
records, per checkout:
- the median and minimum CPU time (`time.process_time`) of `lmpkit check` on
  the closed-form certificate and of `lmpkit recover`, each one call of
  `lmpkit.cli.main` with loading and writing included;
- for recover, the wall time of its three phases (build, solve, re-check),
  taken from the spans of `perfbench/spans.py`;
- the `tracemalloc` peak of one more recover call, and whether recovery
  certified (exit code 0).  In the same call, wrappers around
  `recovery.build_program` and `recovery.solve` reset the peak on entry and
  read it on return, so each phase's peak is recorded too, counting what is
  held on entry (for the solve, the program itself);
- for check, one more pass of ten calls with wrappers around the three
  loaders (`io.load_problem`, `io.load_trajectory`, `io.load_certificate`):
  the CPU time per call inside each loader, and the garbage collector's
  passes per call by generation, counted by a `gc.callbacks` hook.

Each size is timed three times.  Sizes run in ascending order, and a size is
skipped, with the skip recorded, when its predicted wall time per call
exceeds 30 s or, for recover, its predicted `tracemalloc` peak exceeds
512 MB.  The predictions extrapolate the two sizes below it, with an exponent
of at least 2 (the recovery program is dense).  Once a call runs over the
time budget, the sizes above it are skipped.

The cone batch is the 750 families that `perfbench/workloads.py`'s
`cone_family_doc` draws for seed 0, written to files and loaded as the
cones-batch workload loads them.  It records the median and minimum CPU time
per family of `cones.intersection_nonempty` followed by
`cones.approx_separate`, over three passes; each pass gives its CPU time
divided by the number of families.  After each timed pass, one more pass
splits the CPU time per family of the two LPs three ways: building LP(w) in
`cones._solve_dual`, `lp.solve_standard_form` outside `lp._solve_phase`, and
the time inside `lp._solve_phase`, each from wrappers around those names.
One more, untimed pass counts the simplex pivots per family of each of the
two LPs (`LpResult.iterations` of every `solve_standard_form` call that
`lmpkit.cones` makes).

Each checkout is measured by its own worker process, with lmpkit imported
from its `src/` and OpenBLAS at one thread; `--src` may be given more than
once, so that one record holds a change and its parent side by side.  The
checkouts take turns: each size (and each pass of the cone batch) runs on
every checkout before the next size starts, in an order that reverses from
one size to the next, so that drift of the host between calls falls on all
checkouts alike.  Without `--src` the checkout holding this script is
measured.  The record goes to `BENCH_<label>.json` in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("ex1", "ex2")
COMMANDS = ("check", "recover")
SIZES = (100, 400, 800, 1600, 3200)
PHASES = {
    "build": "recovery.build_program",
    "solve": "recovery.solve",
    "recheck": "recovery.cross_validate",
}
REPEATS = 3
LOAD_CALLS = 10  # calls of the pass that splits out the loaders of check
LOADERS = ("load_problem", "load_trajectory", "load_certificate")
PEAK_PHASES = ("build_program", "solve")  # of lmpkit.recovery
CONE_SEED = 0
CONE_FAMILIES = 750
BUDGET_S = 30.0  # wall seconds per call
MEMORY_BUDGET_MB = 512.0  # tracemalloc peak of one recover call
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="lmpkit size sweep")
    parser.add_argument("--label", help="the record is written to BENCH_<label>.json")
    parser.add_argument(
        "--src",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="a checkout to measure, under a name (repeatable)",
    )
    parser.add_argument("--worker", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is None and not args.label:
        parser.error("--label is required")
    for src in args.src:
        if "=" not in src:
            parser.error(f"--src expects NAME=PATH, got {src!r}")
    return args


def predict(history: list[tuple[int, float]], N: int) -> float | None:
    """Extrapolate (size, value) pairs to size N by a power law whose
    exponent is fitted to the last two pairs and is at least 2."""
    if not history:
        return None
    exponent = 2.0
    if len(history) >= 2:
        (n0, v0), (n1, v1) = history[-2:]
        if v0 > 0 and v1 > 0:
            exponent = max(exponent, math.log(v1 / v0) / math.log(n1 / n0))
    n1, v1 = history[-1]
    return v1 * (N / n1) ** exponent


def skip_reason(walls, peaks, N, over) -> str | None:
    if over is not None:
        return f"N={over} took over the {BUDGET_S:g} s budget"
    wall = predict(walls, N)
    if wall is not None and wall > BUDGET_S:
        return f"predicted {wall:.3g} s over the {BUDGET_S:g} s budget"
    peak = predict(peaks, N)
    if peak is not None and peak > MEMORY_BUDGET_MB:
        return f"predicted peak {peak:.3g} MB over the {MEMORY_BUDGET_MB:g} MB budget"
    return None


class Sweep:
    """The measurements of one checkout; runs inside the worker process."""

    def __init__(self, workdir: Path):
        import spans
        from lmpkit import cli

        self.main = cli.main
        self.tracer = spans.Tracer()
        spans.install(self.tracer)
        self.workdir = workdir

    def call(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.main(argv)

    def inputs(self, fixture: str, N: int) -> tuple[list[str], Path]:
        d = self.workdir / f"{fixture}-N{N}"
        if not d.exists():
            rc = self.call(["example", fixture, "--N", str(N), "--out-dir", str(d)])
            if rc != 0:
                raise RuntimeError(f"lmpkit example failed for {fixture} N={N}")
        return [str(d / "problem.json"), str(d / "trajectory.json")], d

    def argv(self, command: str, fixture: str, N: int) -> list[str]:
        files, d = self.inputs(fixture, N)
        if command == "check":
            files.append(str(d / "certificate.json"))
        else:
            files += ["--out-certificate", str(d / "recovered.json")]
        return [command, *files, "--format", "json", "--out", str(d / "report.json")]

    def timed(self, argv: list[str]) -> tuple[int, float, float, dict]:
        """One traced call: exit code, CPU s, wall s, wall ms per phase."""
        tracer = self.tracer
        tracer.records.clear()
        tracer.begin_op(argv[0])
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            rc = self.call(argv)
        finally:
            cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
            tracer.end_op()
        phases = {key: 0.0 for key in PHASES}
        for rec in tracer.records:  # the spans of this call only
            for key, name in PHASES.items():
                if rec["name"] == name:
                    phases[key] += 1e3 * (rec["end"] - rec["start"])
        return rc, cpu, wall, phases

    def peak_mb(self, argv: list[str]) -> tuple[float, dict]:
        """The tracemalloc peak in MB of one more call, and the peak inside
        each of PEAK_PHASES, from wrappers that reset the peak on entry."""
        from lmpkit import recovery

        phases = dict.fromkeys(PEAK_PHASES, 0.0)
        peak = 0  # bytes: the call's peak up to the latest reset

        def traced(real, name):
            def wrapper(*args, **kwargs):
                nonlocal peak
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                try:
                    return real(*args, **kwargs)
                finally:
                    phases[name] = tracemalloc.get_traced_memory()[1] / 1e6

            return wrapper

        reals = {name: getattr(recovery, name) for name in PEAK_PHASES}
        for name, real in reals.items():
            setattr(recovery, name, traced(real, name))
        tracemalloc.start()
        try:
            self.call(argv)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            for name, real in reals.items():
                setattr(recovery, name, real)
        return peak / 1e6, phases

    def load_split(self, argv: list[str]) -> dict:
        """Over LOAD_CALLS more calls: the CPU ms per call inside each loader
        (median and min), timed by wrappers with ``time.process_time``, and
        the mean collector passes per call of each generation."""
        from lmpkit import io as lmpkit_io

        spent = {name: [] for name in LOADERS}
        passes = [0, 0, 0]

        def count(phase, info):
            if phase == "start":
                passes[info["generation"]] += 1

        def timed(real, name):
            def wrapper(*args):
                start = time.process_time()
                try:
                    return real(*args)
                finally:
                    spent[name][-1] += 1e3 * (time.process_time() - start)

            return wrapper

        reals = {name: getattr(lmpkit_io, name) for name in LOADERS}
        for name, real in reals.items():
            setattr(lmpkit_io, name, timed(real, name))
        gc.callbacks.append(count)
        try:
            for _ in range(LOAD_CALLS):
                for calls in spent.values():
                    calls.append(0.0)
                self.call(argv)
        finally:
            gc.callbacks.remove(count)
            for name, real in reals.items():
                setattr(lmpkit_io, name, real)
        return {
            "load_cpu_ms": {
                name: {"median": statistics.median(ms), "min": min(ms)}
                for name, ms in spent.items()
            },
            "gc_passes_per_call": {
                f"gen{g}": n / LOAD_CALLS for g, n in enumerate(passes)
            },
        }

    def measure(self, command: str, fixture: str, N: int) -> dict:
        argv = self.argv(command, fixture, N)
        codes, cpus, walls, phases = [], [], [], []
        for _ in range(REPEATS):
            rc, cpu, wall, split = self.timed(argv)
            codes.append(rc)
            cpus.append(cpu)
            walls.append(wall)
            phases.append(split)
            if wall > BUDGET_S:
                break
        out = {
            "exit_codes": codes,
            "cpu_s": {"median": statistics.median(cpus), "min": min(cpus), "runs": cpus},
            "wall_s": walls,
        }
        if command == "check":
            out.update(self.load_split(argv))
        if command == "recover":
            out["phases_wall_ms"] = {
                key: {
                    "median": statistics.median(p[key] for p in phases),
                    "min": min(p[key] for p in phases),
                }
                for key in PHASES
            }
            out["certified"] = codes[0] == 0
            peak, phases = self.peak_mb(argv)
            out["tracemalloc_peak_mb"] = peak
            out["tracemalloc_phase_peak_mb"] = phases
        return out


def cone_families(workdir: Path) -> list:
    """The seeded cone batch, written to files and loaded from them."""
    import numpy as np
    from workloads import cone_family_doc

    from lmpkit.io import load_cone_family

    rng = np.random.default_rng(CONE_SEED)
    families = []
    for i in range(CONE_FAMILIES):
        path = workdir / f"family-{i:04d}.json"
        path.write_text(json.dumps(cone_family_doc(rng, i)))
        families.append(load_cone_family(str(path)))
    return families


def cone_pass(families: list) -> float:
    """CPU ms per family of one pass of the two cone LPs over the batch."""
    from workloads import SEPARATION_EPS

    from lmpkit import cones

    cpu = time.process_time()
    for family in families:
        cones.intersection_nonempty(family)
        cones.approx_separate(family, SEPARATION_EPS)
    return 1e3 * (time.process_time() - cpu) / len(families)


def cone_pivots(families: list) -> dict:
    """Mean simplex pivots per family of each cone LP, over one pass."""
    from workloads import SEPARATION_EPS

    from lmpkit import cones

    real = cones.solve_standard_form
    counts = []

    def counted(c, A, b, basis):
        result = real(c, A, b, basis)
        counts[-1] += result.iterations
        return result

    cones.solve_standard_form = counted
    try:
        totals = {}
        for name, call in (
            ("intersection_nonempty", cones.intersection_nonempty),
            ("approx_separate", lambda family: cones.approx_separate(family, SEPARATION_EPS)),
        ):
            counts.append(0)
            for family in families:
                call(family)
            totals[name] = counts[-1] / len(families)
    finally:
        cones.solve_standard_form = real
    return totals


def cone_split(families: list) -> dict:
    """CPU us per family of three parts of the two cone LPs, over one pass:
    building LP(w) (``cones._solve_dual`` outside ``solve_standard_form``),
    ``solve_standard_form`` outside ``lp._solve_phase``, and the time inside
    ``lp._solve_phase``.  Each part is timed by a wrapper around its function
    with ``time.process_time``; the clock reads of the inner wrappers fall
    on the outer parts."""
    from workloads import SEPARATION_EPS

    from lmpkit import cones, lp

    spent = {"_solve_dual": 0.0, "solve_standard_form": 0.0, "_solve_phase": 0.0}
    targets = [(cones, "_solve_dual"), (cones, "solve_standard_form"), (lp, "_solve_phase")]
    reals = [getattr(module, name) for module, name in targets]

    def timed(real, name):
        def wrapper(*args):
            start = time.process_time()
            try:
                return real(*args)
            finally:
                spent[name] += time.process_time() - start

        return wrapper

    for (module, name), real in zip(targets, reals):
        setattr(module, name, timed(real, name))
    try:
        for family in families:
            cones.intersection_nonempty(family)
            cones.approx_separate(family, SEPARATION_EPS)
    finally:
        for (module, name), real in zip(targets, reals):
            setattr(module, name, real)
    us = {name: 1e6 * t / len(families) for name, t in spent.items()}
    return {
        "build": us["_solve_dual"] - us["solve_standard_form"],
        "solve_outside_phases": us["solve_standard_form"] - us["_solve_phase"],
        "in_phases": us["_solve_phase"],
    }


def worker(args) -> int:
    """Answer requests from stdin, one JSON line each, with one JSON line
    on stdout: ``["measure", command, fixture, N]``, ``["cones"]``,
    ``["split"]`` or ``["pivots"]``."""
    src = Path(args.worker).resolve() / "src"
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(src))
    import lmpkit

    if Path(lmpkit.__file__).resolve().parent != src / "lmpkit":
        raise SystemExit(f"error: imported lmpkit from {lmpkit.__file__}, not {src}")
    out = sys.stdout  # the calls themselves write to a redirected stdout
    with tempfile.TemporaryDirectory(prefix="lmpkit-bench-") as tmp:
        sweep = Sweep(Path(tmp))
        families = None
        for line in sys.stdin:
            request = json.loads(line)
            if request[0] == "measure":
                reply = sweep.measure(*request[1:])
            else:
                families = families or cone_families(Path(tmp))
                cone_requests = {"cones": cone_pass, "split": cone_split, "pivots": cone_pivots}
                reply = cone_requests[request[0]](families)
            out.write(json.dumps(reply) + "\n")
            out.flush()
    return 0


class Worker:
    """The worker process of one checkout."""

    def __init__(self, path: str):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def ask(self, *request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def sweep(workers: dict[str, Worker]) -> tuple[dict, dict]:
    """Every (fixture, command, size) and every cone pass on the checkouts in
    turn: the results per checkout, and the cone batch per checkout."""
    turn = list(workers)
    results: dict[str, list[dict]] = {name: [] for name in workers}
    for fixture in FIXTURES:
        for command in COMMANDS:
            # per checkout: (N, wall) and (N, peak) so far, and the size
            # that ran over the time budget
            walls = {name: [] for name in workers}
            peaks = {name: [] for name in workers}
            over: dict[str, int | None] = dict.fromkeys(workers)
            for N in SIZES:
                for name in turn:
                    entry = {"fixture": fixture, "command": command, "N": N}
                    results[name].append(entry)
                    reason = skip_reason(walls[name], peaks[name], N, over[name])
                    if reason:
                        entry["skipped"] = reason
                        continue
                    entry.update(workers[name].ask("measure", command, fixture, N))
                    walls[name].append((N, max(entry["wall_s"])))
                    if "tracemalloc_peak_mb" in entry:
                        peaks[name].append((N, entry["tracemalloc_peak_mb"]))
                    if max(entry["wall_s"]) > BUDGET_S:
                        over[name] = N
                turn.reverse()
            print(f"{fixture} {command} done", file=sys.stderr, flush=True)
    passes: dict[str, list[float]] = {name: [] for name in workers}
    splits: dict[str, list[dict]] = {name: [] for name in workers}
    for _ in range(REPEATS):
        for name in turn:
            passes[name].append(workers[name].ask("cones"))
            splits[name].append(workers[name].ask("split"))
        turn.reverse()
    cones = {
        name: {
            "seed": CONE_SEED,
            "families": CONE_FAMILIES,
            "cpu_ms_per_family": {"median": statistics.median(ms), "min": min(ms), "runs": ms},
            "cpu_us_split_per_family": {
                part: {
                    "median": statistics.median(s[part] for s in splits[name]),
                    "min": min(s[part] for s in splits[name]),
                }
                for part in splits[name][0]
            },
            "pivots_per_family": workers[name].ask("pivots"),
        }
        for name, ms in passes.items()
    }
    return results, cones


def describe(path: Path) -> str | None:
    """The checkout's commit, marked dirty when its files differ from it."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(path), "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def machine() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    from run import blas_info

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if args.worker is not None:
        return worker(args)
    sources = [s.split("=", 1) for s in args.src] or [["this", str(ROOT)]]
    record = {
        "label": args.label,
        "machine": machine(),
        "sizes": list(SIZES),
        "repeats": REPEATS,
        "budget_s": BUDGET_S,
        "memory_budget_mb": MEMORY_BUDGET_MB,
        "units": {
            "cpu_s": "CPU seconds of one lmpkit.cli.main call",
            "wall_s": "wall seconds of the same calls",
            "phases_wall_ms": "wall ms of each recover phase, from perfbench/spans.py",
            "tracemalloc_peak_mb": "tracemalloc peak of one more recover call",
            "tracemalloc_phase_peak_mb": "tracemalloc peak inside recovery.build_program "
            "and recovery.solve in that call, from wrappers that reset the peak on entry; "
            "it counts what is held on entry",
            "load_cpu_ms": "CPU ms per check call inside each of the three loaders, "
            f"from wrappers timed with process_time, over {LOAD_CALLS} more calls",
            "gc_passes_per_call": "garbage-collector passes per check call by generation, "
            f"from a gc.callbacks hook, over the same {LOAD_CALLS} calls",
            "cpu_ms_per_family": "CPU ms per cone family of intersection_nonempty "
            "and approx_separate, one value per pass over the batch",
            "cpu_us_split_per_family": "CPU us per cone family of building LP(w), of "
            "solve_standard_form outside _solve_phase and of _solve_phase, from wrappers "
            "timed with process_time, one pass per checkout after each timed pass",
            "pivots_per_family": "mean simplex pivots per cone family of each LP",
        },
        "checkouts": {},
    }
    workers = {name: Worker(path) for name, path in sources}
    try:
        results, cones = sweep(workers)
    finally:
        for w in workers.values():
            w.close()
    for name, path in sources:
        record["checkouts"][name] = {
            "commit": describe(Path(path)),
            "results": results[name],
            "cones": cones[name],
        }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
