import json
import subprocess
import sys

import pytest

from lmpkit.cli import main


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def fixture_dir(tmp_path):
    out = tmp_path / "ex1"
    assert run_cli("example", "ex1", "--N", "40", "--out-dir", str(out)) == 0
    return out


def paths(d):
    return (
        str(d / "problem.json"),
        str(d / "trajectory.json"),
        str(d / "certificate.json"),
    )


class TestExample:
    def test_writes_checkable_files(self, fixture_dir):
        problem, trajectory, certificate = paths(fixture_dir)
        assert run_cli("check", problem, trajectory, certificate) == 0

    def test_arc_fixture_roundtrip(self, tmp_path):
        out = tmp_path / "ex2"
        code = run_cli(
            "example", "ex2", "--T", "1.0", "--m", "0.5", "--N", "200",
            "--out-dir", str(out),
        )
        assert code == 0
        assert run_cli("check", *paths(out)) == 0

    def test_arc_fixture_alternate_split(self, tmp_path):
        out = tmp_path / "ex2b"
        assert run_cli(
            "example", "ex2", "--N", "200", "--split", "0,1", "--out-dir", str(out)
        ) == 0
        assert run_cli("check", *paths(out)) == 0

    def test_unknown_name(self, tmp_path):
        assert run_cli("example", "ex9", "--out-dir", str(tmp_path)) == 2


class TestCheck:
    def test_flipped_direction_fails_inclusion(self, fixture_dir, capsys):
        problem, trajectory, certificate = paths(fixture_dir)
        doc = json.loads(open(certificate).read())
        for atom in doc["s"]["atoms"]:
            atom["vector"] = [1.0]
        open(certificate, "w").write(json.dumps(doc))
        assert run_cli("check", problem, trajectory, certificate) == 1
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("jump_inclusion ")]
        assert line and "FAIL" in line[0]

    def test_malformed_json_is_input_error(self, fixture_dir, capsys):
        problem, trajectory, certificate = paths(fixture_dir)
        open(certificate, "w").write("{not json")
        assert run_cli("check", problem, trajectory, certificate) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_format_version_refused(self, fixture_dir):
        problem, trajectory, certificate = paths(fixture_dir)
        doc = json.loads(open(problem).read())
        doc["format_version"] = 99
        open(problem, "w").write(json.dumps(doc))
        assert run_cli("check", problem, trajectory, certificate) == 2

    def test_reports_are_byte_identical(self, fixture_dir, tmp_path):
        problem, trajectory, certificate = paths(fixture_dir)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli("check", problem, trajectory, certificate,
                       "--format", "json", "--out", str(a)) == 0
        assert run_cli("check", problem, trajectory, certificate,
                       "--format", "json", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_report_shape(self, fixture_dir, tmp_path):
        problem, trajectory, certificate = paths(fixture_dir)
        out = tmp_path / "report.json"
        run_cli("check", problem, trajectory, certificate,
                "--format", "json", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["overall"] == "pass"
        names = [e["name"] for e in doc["entries"]]
        assert "adjoint" in names and "nontriviality" in names


class TestRecover:
    def test_recover_and_recheck(self, fixture_dir, tmp_path):
        problem, trajectory, _ = paths(fixture_dir)
        cert = tmp_path / "recovered.json"
        code = run_cli(
            "recover", problem, trajectory, "--out-certificate", str(cert)
        )
        assert code == 0
        assert run_cli("check", problem, trajectory, str(cert)) == 0

    def test_pathological_grid_guard(self, tmp_path, capsys):
        out = tmp_path / "tiny"
        assert run_cli("example", "ex1", "--N", "2", "--out-dir", str(out)) == 0
        problem, trajectory, _ = paths(out)
        assert run_cli("recover", problem, trajectory) == 2
        assert "too coarse" in capsys.readouterr().err

    def test_perturbed_fixture_not_certified(self, fixture_dir, capsys):
        problem, trajectory, _ = paths(fixture_dir)
        doc = json.loads(open(trajectory).read())
        doc["x"] = [[v + 0.1 for v in row] for row in doc["x"]]
        open(trajectory, "w").write(json.dumps(doc))
        assert run_cli("recover", problem, trajectory) == 1
        assert "not certified" in capsys.readouterr().out


class TestCones:
    def write_family(self, tmp_path, cones):
        path = tmp_path / "cones.json"
        path.write_text(json.dumps({"format_version": 1, "dim": 2, "cones": cones}))
        return str(path)

    def test_disjoint_halfspaces_separated(self, tmp_path, capsys):
        family = self.write_family(
            tmp_path,
            [
                {"generators": [[1.0, 0.0]], "open": False},
                {"generators": [[-1.0, 0.0]], "open": True, "x0": [-1.0, 0.0]},
            ],
        )
        assert run_cli("cones", family) == 0
        out = capsys.readouterr().out
        assert "separated" in out and "coefficients" in out

    def test_overlapping_report_witness(self, tmp_path, capsys):
        family = self.write_family(
            tmp_path,
            [
                {"generators": [[1.0, 0.0]], "open": False},
                {"generators": [[1.0, 0.0]], "open": True, "x0": [1.0, 0.0]},
            ],
        )
        assert run_cli("cones", family) == 1
        out = capsys.readouterr().out
        assert "cones intersect" in out and "witness" in out

    def test_batch_mode_consistency_summary(self, capsys):
        assert run_cli("cones", "--seeds", "25") == 0
        out = capsys.readouterr().out
        assert "25 instances" in out
        assert "25 consistent, 0 degenerate" in out
        assert "0 violations" in out

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli("cones", str(tmp_path / "nope.json")) == 2


def test_module_entry_point(fixture_dir):
    problem, trajectory, certificate = paths(fixture_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "lmpkit", "check", problem, trajectory, certificate],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout
