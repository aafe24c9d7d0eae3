import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize("arc_cells, code, verdict", [
    ("20", 0, "independent check: pass"),
    ("50", 1, "independent check: FAIL"),
])
def test_run_fixtures_exits_1_when_an_independent_check_fails(arc_cells, code, verdict):
    """The demo's exit code follows the independent checks.  ex2 at N=50
    puts the contact-arc ends inside cells, where recovery does not certify
    yet, so that run exits 1; ROADMAP item 1 makes it certify, and then this
    case flips to exit 0."""
    proc = run_script("run_fixtures.py", "--atom-cells", "20", "--arc-cells", arc_cells)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.count("independent check: pass") == 2 - code
    assert proc.stdout.rstrip().endswith(verdict)


def test_cone_experiment_holds_on_the_families_from_seed_1000():
    """The 25 families drawn from seeds 1000 to 1024: the two verdicts are
    complements, and each witness and objective checks out within 1e-12."""
    proc = run_script("cone_experiment.py", "--seed-base", "1000", "--instances", "25")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "violations:    0\n" in proc.stdout


def test_bench_splits_and_counts_the_cone_lps(tmp_path, monkeypatch):
    """scripts/bench.py wraps ``cones.solve_standard_form`` and
    ``lp._solve_phase``: its two cone counters run on a few families of the
    benchmark's cone batch, and put the real functions back."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import cone_family_doc

    from lmpkit import cones, io, lp

    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rng = np.random.default_rng(0)
    families = []
    for i in range(5):
        path = tmp_path / f"family-{i}.json"
        path.write_text(json.dumps(cone_family_doc(rng, i)))
        families.append(io.load_cone_family(str(path)))
    reals = cones.solve_standard_form, lp._solve_phase
    pivots = bench.cone_pivots(families)
    assert set(pivots) == {"intersection_nonempty", "approx_separate"}
    assert all(count > 0 for count in pivots.values())
    split = bench.cone_split(families)
    assert set(split) == {"build", "solve_outside_phases", "in_phases"}
    assert split["in_phases"] > 0
    assert (cones.solve_standard_form, lp._solve_phase) == reals
