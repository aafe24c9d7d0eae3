import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from lmpkit import cli, expr, geometry
from lmpkit.cli import build_parser, main
from lmpkit.samples import PointSet


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

    @pytest.mark.parametrize("reason, message", [
        ("Unable to allocate 745. GiB for an array with shape (100000000001,)",
         "Unable to allocate 745. GiB for an array with shape (100000000001,)"),
        ("", "out of memory"),
    ])
    def test_a_grid_larger_than_memory_is_input_error(
        self, tmp_path, capsys, monkeypatch, reason, message
    ):
        # the fixture raises as numpy does when it cannot allocate the grid,
        # without allocating anything
        def too_large(name, **params):
            raise MemoryError(reason)

        monkeypatch.setattr(cli, "builtin_example", too_large)
        argv = ("example", "ex1", "--N", "100000000000", "--out-dir", str(tmp_path))
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv, name", [
        (("ex2", "--split", "0.5,nan"), "contact_split"),
        (("ex2", "--split", "nan,0.5"), "contact_split"),
        (("ex2", "--T", "inf"), "T"),
        (("ex2", "--m", "nan"), "m"),
        (("ex1", "--t0=-inf"), "t0"),
        (("ex1", "--t1", "inf"), "t1"),
    ], ids=["split-0.5,nan", "split-nan,0.5", "T-inf", "m-nan", "t0-inf", "t1-inf"])
    def test_non_finite_parameters_are_refused_by_name(self, tmp_path, capsys, argv, name):
        # a NaN share writes a certificate that check refuses, and an infinite
        # horizon an unordered grid, so each is refused before any file
        out = tmp_path / "out"
        assert run_cli("example", *argv, "--N", "20", "--out-dir", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite, not ")
        assert not out.exists()

    @pytest.mark.parametrize("split", ["a,b", "", "0.5,", "0.25,0.25,0.5"])
    def test_a_split_that_is_not_two_numbers_is_refused(self, tmp_path, capsys, split):
        out = tmp_path / "out"
        assert run_cli("example", "ex2", "--split", split, "--out-dir", str(out)) == 2
        assert capsys.readouterr().err == "error: --split expects two comma-separated shares\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-inf", "-1e400"])
    def test_a_negative_value_is_joined_to_its_option(self, tmp_path, capsys, value):
        # argparse takes "-inf" for an option name: the usage error names the
        # joined form, and that form reaches the program
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exit:
            run_cli("example", "ex1", "--t0", value, "--out-dir", out)
        assert exit.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(
            "argument --t0: expected one argument "
            "(join a value that starts with '-' with '=', as in --t0=-inf)"
        )
        assert run_cli("example", "ex1", f"--t0={value}", "--out-dir", out) == 2
        assert capsys.readouterr().err == "error: t0 must be finite, not -inf\n"


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

    def test_a_costate_of_another_width_is_input_error(self, fixture_dir, capsys):
        # ex1 has n = 1: each row of p written twice used to pass every check
        problem, trajectory, certificate = paths(fixture_dir)
        doc = json.loads(open(certificate).read())
        p = doc["p"]
        p["values"] = [row * 2 for row in p["values"]]
        p["exterior_left"] *= 2
        for atom in p["atoms"]:
            atom["jump"] *= 2
        open(certificate, "w").write(json.dumps(doc))
        assert run_cli("check", problem, trajectory, certificate) == 2
        assert capsys.readouterr().err == (
            f"error: {certificate}.p.values: the costate p has width 2, "
            "but the problem has n = 1\n"
        )

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

    @pytest.mark.parametrize(
        "option, value, field",
        [("--eps", "nan", "eps"), ("--structural-tol", "inf", "structural_tol")],
    )
    def test_non_finite_tolerance_is_input_error(self, fixture_dir, capsys, option, value, field):
        assert run_cli("check", *paths(fixture_dir), option, value) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} must be finite and nonnegative, not {value}" in captured.err

    def test_the_first_bad_tolerance_is_named(self, fixture_dir, capsys):
        # the phase-test tolerances are refused before the checker's own
        problem, trajectory, certificate = paths(fixture_dir)
        assert run_cli(
            "check", problem, trajectory, certificate, "--structural-tol", "inf", "--eps", "nan"
        ) == 2
        assert run_cli("recover", problem, trajectory, "--eps", "nan", "--delta", "-1") == 2
        assert capsys.readouterr().err == (
            "error: eps must be finite and nonnegative, not nan\n"
            "error: delta must be finite and nonnegative, not -1.0\n"
        )

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
        out = capsys.readouterr().out
        assert "status optimal" in out
        assert "not certified" in out
        assert "the solver converged; the checker rejects transversality" in out

    def test_early_stop_is_reported(self, fixture_dir, capsys, monkeypatch):
        exact = geometry.min_norm_point

        def capped(P, start=0):
            return dataclasses.replace(exact(P, start), status="iteration_cap")

        monkeypatch.setattr(geometry, "min_norm_point", capped)
        problem, trajectory, _ = paths(fixture_dir)
        doc = json.loads(open(trajectory).read())
        doc["x"] = [[v + 0.1 for v in row] for row in doc["x"]]
        open(trajectory, "w").write(json.dumps(doc))
        assert run_cli("recover", problem, trajectory) == 1
        out = capsys.readouterr().out
        assert "status iteration_cap" in out
        assert "the solver stopped early (iteration_cap)" in out


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

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli("cones", str(tmp_path / "nope.json")) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    def test_eps_that_is_not_positive_and_finite_is_input_error(self, tmp_path, capsys, eps):
        # the cones intersect, so the separation LP is never reached
        family = self.write_family(
            tmp_path,
            [
                {"generators": [[1.0, 0.0]], "open": False},
                {"generators": [[1.0, 0.0]], "open": True, "x0": [1.0, 0.0]},
            ],
        )
        assert run_cli("cones", family, "--eps", eps) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("--eps must be positive and finite") == 1


@pytest.mark.parametrize("command, name", [
    ("check", "problem"), ("check", "trajectory"), ("check", "certificate"),
    ("recover", "problem"), ("recover", "trajectory"), ("cones", "cones"),
])
@pytest.mark.parametrize("at, insert, reason", [
    (1, b"\xff", "not UTF-8 text"),
    (0, b"\xef\xbb\xbf", "not valid JSON"),  # a UTF-8 byte order mark
], ids=["0xff", "bom"])
def test_an_input_that_is_not_plain_utf8_json_is_input_error(
    fixture_dir, capsys, command, name, at, insert, reason
):
    """A byte that is not UTF-8, or a leading byte order mark, exits 2 and
    names the file, whichever command reads it."""
    problem, trajectory, certificate = paths(fixture_dir)
    cones = fixture_dir / "cones.json"
    cones.write_text(json.dumps({"format_version": 1, "dim": 2, "cones": [
        {"generators": [[1.0, 0.0]], "open": False},
        {"generators": [[-1.0, 0.0]], "open": True, "x0": [-1.0, 0.0]},
    ]}))
    target = fixture_dir / f"{name}.json"
    text = target.read_bytes()
    target.write_bytes(text[:at] + insert + text[at:])
    argv = {
        "check": [problem, trajectory, certificate],
        "recover": [problem, trajectory],
        "cones": [str(cones)],
    }[command]
    assert run_cli(command, *argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {target}: {reason}")


def test_a_horizon_within_the_node_tolerance_is_accepted(tmp_path):
    # the grid spans 2, so its ends may differ from t0 and t1 by up to 2e-9;
    # the refusals beyond that are in test_io.test_problem_errors_name_the_field
    out = tmp_path / "ex2"
    assert run_cli("example", "ex2", "--N", "20", "--out-dir", str(out)) == 0
    problem, trajectory, certificate = paths(out)
    doc = json.loads(open(problem).read())
    doc.update(t0=-1.0 + 1e-9, t1=1.0 - 1e-9)
    open(problem, "w").write(json.dumps(doc))
    assert run_cli("check", problem, trajectory, certificate) == 0
    assert run_cli("recover", problem, trajectory) == 0


def test_module_entry_point(fixture_dir):
    problem, trajectory, certificate = paths(fixture_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "lmpkit", "check", problem, trajectory, certificate],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout


@pytest.mark.parametrize("command", ["check", "recover"])
def test_delta_and_eps_reach_the_phase_test(tmp_path, command):
    """ex2 touches its constraint on [-0.5, 0.5], nodes 50 to 150 of 200; at
    delta = eps = 10 every node passes the relaxed phase test."""
    out = tmp_path / "ex2"
    assert run_cli("example", "ex2", "--N", "200", "--out-dir", str(out)) == 0
    files = paths(out) if command == "check" else paths(out)[:2]
    report = tmp_path / "report.json"
    for options, intervals in [((), [[50, 150]]), (("--delta", "10", "--eps", "10"), [[0, 200]])]:
        argv = (*files, *options, "--format", "json", "--out", str(report))
        assert run_cli(command, *argv) == 0
        assert json.loads(report.read_text())["diagnostics"]["contact_intervals"] == intervals


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command", ["check", "recover"])
def test_contact_set_and_G_x_are_built_once(fixture_dir, monkeypatch, command):
    """One build of the contact set per command; G_x and G_u evaluated at
    most once at each point of each point set, and the endpoint gradients
    of J once."""
    contact_set, evaluate, evaluate_table = (
        geometry.contact_set, PointSet.evaluate, expr.evaluate_table
    )
    builds = []
    points: dict[tuple[int, str], list[int]] = {}
    endpoint_tables = []

    def counted_contact_set(*args, **kwargs):
        builds.append(args)
        return contact_set(*args, **kwargs)

    def counted_evaluate(self, table):
        for name in ("G_x", "G_u"):
            if table is getattr(self.problem, name):
                points.setdefault((id(self), name), [self.size, 0])[1] += self.size
        return evaluate(self, table)

    def counted_evaluate_table(table, columns, size):
        if "x0_1" in columns:
            endpoint_tables.append(size)
        return evaluate_table(table, columns, size)

    monkeypatch.setattr(geometry, "contact_set", counted_contact_set)
    monkeypatch.setattr(PointSet, "evaluate", counted_evaluate)
    monkeypatch.setattr(expr, "evaluate_table", counted_evaluate_table)
    problem, trajectory, certificate = paths(fixture_dir)
    files = (problem, trajectory, certificate) if command == "check" else (problem, trajectory)
    assert run_cli(command, *files) == 0
    assert len(builds) == 1
    assert {name for _, name in points} == {"G_x", "G_u"}
    assert all(evaluated <= size for size, evaluated in points.values())
    assert endpoint_tables == [1]
