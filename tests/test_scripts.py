import os
import subprocess
import sys
from pathlib import Path

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
