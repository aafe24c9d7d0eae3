import contextlib
import copy
import gc
import io as text_io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmpkit import io
from lmpkit.errors import InputError
from lmpkit.problem import builtin_example
from lmpkit.samples import Samples
from oracles import Record, directions_by_record, directions_of, u_cells_by_record


@pytest.fixture()
def ex2_files(tmp_path):
    problem, trajectory, ms = builtin_example("ex2", ncells=20)
    io.save_trajectory(trajectory, str(tmp_path / "trajectory.json"))
    io.save_certificate(ms, str(tmp_path / "certificate.json"))
    return tmp_path, trajectory, ms


def rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def test_roundtrip_keeps_arrays(ex2_files):
    tmp_path, trajectory, ms = ex2_files
    loaded = io.load_trajectory(str(tmp_path / "trajectory.json"))
    assert np.array_equal(loaded.x, trajectory.x)
    cert = io.load_certificate(str(tmp_path / "certificate.json"), loaded.grid)
    assert np.array_equal(cert.p.values, ms.p.values)


def _example(tmp_path, *argv) -> list[str]:
    """The problem, trajectory and certificate files of `lmpkit example`."""
    from lmpkit.cli import main

    with contextlib.redirect_stdout(text_io.StringIO()):
        assert main(["example", *argv, "--N", "40", "--out-dir", str(tmp_path)]) == 0
    return [str(tmp_path / f"{name}.json") for name in ("problem", "trajectory", "certificate")]


@pytest.mark.parametrize("argv, recovered", [
    (["ex1"], False), (["ex2"], False), (["ex2", "--split", "0,1"], False), (["ex1"], True),
])
def test_a_certificate_is_saved_again_byte_for_byte(tmp_path, argv, recovered):
    """A certificate read into rows and saved again gives the same file."""
    from lmpkit.cli import main

    problem, trajectory, certificate = _example(tmp_path, *argv)
    if recovered:
        with contextlib.redirect_stdout(text_io.StringIO()):
            assert main(["recover", problem, trajectory, "--out-certificate", certificate]) == 0
    again = str(tmp_path / "again.json")
    io.save_certificate(io.load_certificate(certificate, io.load_trajectory(trajectory).grid), again)
    assert open(again, "rb").read() == open(certificate, "rb").read()


def test_an_eta_atom_of_weight_zero_changes_nothing(tmp_path):
    """It changes no line of the report, and it is not written back."""
    from lmpkit.cli import main

    problem, trajectory, certificate = _example(tmp_path, "ex1")
    doc = json.loads(open(certificate).read())
    doc["eta"]["atoms"].insert(1, {"node": 5, "weight": 0.0})
    zero = str(tmp_path / "zero.json")
    open(zero, "w").write(json.dumps(doc))
    reports = []
    for path in (certificate, zero):
        out = text_io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["check", problem, trajectory, path, "--format", "json"]) == 0
        reports.append(out.getvalue())
    assert reports[0] == reports[1]
    again = str(tmp_path / "again.json")
    io.save_certificate(io.load_certificate(zero, io.load_trajectory(trajectory).grid), again)
    assert open(again, "rb").read() == open(certificate, "rb").read()


def test_string_in_state_row_names_the_row(ex2_files):
    tmp_path, _, _ = ex2_files

    def edit(doc):
        doc["x"][7][1] = "0.5"

    path = rewrite(tmp_path / "trajectory.json", edit)
    with pytest.raises(InputError, match=r"\.x\[7\]: expected a list of numbers"):
        io.load_trajectory(path)


def test_short_costate_row_names_the_row(ex2_files):
    tmp_path, trajectory, _ = ex2_files

    def edit(doc):
        doc["p"]["values"][4] = [1.0]

    path = rewrite(tmp_path / "certificate.json", edit)
    with pytest.raises(InputError, match=r"\.p\.values\[4\]: expected 2 numbers"):
        io.load_certificate(path, trajectory.grid)


def test_undeclared_control_jump_names_its_node(ex2_files):
    tmp_path, _, _ = ex2_files

    def edit(doc):
        doc["u_cells"][9] = {"value": [0.25]}

    path = rewrite(tmp_path / "trajectory.json", edit)
    with pytest.raises(InputError, match=r"\.u_cells: control is discontinuous at node 9 but no jump"):
        io.load_trajectory(path)


@pytest.mark.parametrize("field, key, record", [
    ("eta.atoms", "node", {"node": 0, "weight": 5.0}),
    ("s.atoms", "node", {"node": 0, "vector": [0.0, -1.0]}),
    ("s.cells", "cell", {"cell": 9, "vector": [0.0, -1.0]}),
    ("p.atoms", "node", {"node": 0, "jump": [0.0, 1.0]}),
])
def test_duplicate_record_names_its_path(ex2_files, field, key, record):
    tmp_path, trajectory, _ = ex2_files
    outer, inner = field.split(".")

    def edit(doc):
        records = doc[outer].setdefault(inner, [])
        records[:] = [record, dict(record)]

    path = rewrite(tmp_path / "certificate.json", edit)
    index = record[key]
    pattern = rf"\.{outer}\.{inner}\[1\]\.{key}: duplicate {key} {index}$"
    with pytest.raises(InputError, match=pattern):
        io.load_certificate(path, trajectory.grid)


@pytest.mark.parametrize("field, key, record", [
    ("eta.atoms", "node", {"node": 21, "weight": 1.0}),
    ("s.atoms", "node", {"node": 21, "vector": [0.0, -1.0]}),
    ("s.atoms", "node", {"node": -1, "vector": [0.0, -1.0]}),
    ("s.cells", "cell", {"cell": 20, "vector": [0.0, -1.0]}),
    ("p.atoms", "node", {"node": 21, "jump": [0.0, 1.0]}),
])
def test_record_outside_the_grid_names_its_path(ex2_files, field, key, record):
    tmp_path, trajectory, _ = ex2_files
    outer, inner = field.split(".")

    def edit(doc):
        doc[outer].setdefault(inner, []).append(record)

    path = rewrite(tmp_path / "certificate.json", edit)
    pattern = rf"\.{outer}\.{inner}\[\d+\]\.{key}: outside the grid$"
    with pytest.raises(InputError, match=pattern):
        io.load_certificate(path, trajectory.grid)


# -- numbers and indices ---------------------------------------------------------


def _set(path):
    """An edit that sets the entry at a key path of a document to a value,
    or to a function of the value it had."""
    def setter(value):
        def edit(doc):
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value(target[path[-1]]) if callable(value) else value
        return edit
    return setter


def resized_rows(doc, width: int):
    """``doc`` with every nonempty list of numbers in it, itself included,
    cycled or cut to ``width`` numbers: [a, b] becomes [a, b, a] or [a]."""
    if isinstance(doc, list) and doc and all(type(v) in (int, float) for v in doc):
        return [doc[i % len(doc)] for i in range(width)]
    if isinstance(doc, list):
        return [resized_rows(v, width) for v in doc]
    if isinstance(doc, dict):
        return {k: resized_rows(v, width) for k, v in doc.items()}
    return doc


@pytest.mark.parametrize("file, path, message", [
    ("certificate.json", ("alpha0",), r"\.alpha0: not a finite number$"),
    ("certificate.json", ("lambda", 3), r"\.lambda\[3\]: not a finite number$"),
    ("trajectory.json", ("x", 7, 1), r"\.x\[7\]\[1\]: not a finite number$"),
    ("certificate.json", ("s", "cells", 4, "vector", 1),
     r"\.s\.cells\[4\]\.vector\[1\]: not a finite number$"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
def test_non_finite_number_names_its_entry(ex2_files, file, path, message, value):
    tmp_path, trajectory, _ = ex2_files
    target = rewrite(tmp_path / file, _set(path)(value))
    with pytest.raises(InputError, match=message):
        if file == "trajectory.json":
            io.load_trajectory(target)
        else:
            io.load_certificate(target, trajectory.grid)


def test_non_finite_cone_generator_names_its_entry(tmp_path):
    doc = {"format_version": 1, "dim": 2,
           "cones": [{"generators": [[1.0, 0.0], [0.0, float("nan")]]}]}
    path = tmp_path / "cones.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=r"\.cones\[0\]\.generators\[1\]\[1\]: not a finite"):
        io.load_cone_family(str(path))


def _cones(edit):
    """The two-cone family of a closed and an open half-plane, edited."""
    doc = {"format_version": 1, "dim": 2, "cones": [
        {"generators": [[1.0, 0.0], [1.0, 1.0]], "open": False},
        {"generators": [[-1.0, 0.0]], "open": True, "x0": [-1.0, 0.0]},
    ]}
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, message", [
    (_cones(lambda doc: doc["cones"][1].update(generators=[])),
     "degenerate input: a cone has no generators"),
    (_cones(lambda doc: [cone.update(generators=[]) for cone in doc["cones"]]),
     "degenerate input: a cone has no generators"),
    (_cones(lambda doc: doc["cones"][0].update(open="no")), r"\.cones\[0\]\.open: expected bool"),
    (_cones(lambda doc: doc["cones"][1].update(open=1)), r"\.cones\[1\]\.open: expected bool"),
    (_cones(lambda doc: doc["cones"][0].update(generators={"0": [1.0, 0.0]})),
     r"\.cones\[0\]\.generators: expected list"),
    (_cones(lambda doc: doc["cones"][1].update(x0=[-1.0])),
     r"\.cones\[1\]\.x0: expected 2 numbers, got 1"),
    (_cones(lambda doc: doc["cones"][0]["generators"][1].__setitem__(0, float("inf"))),
     r"\.cones\[0\]\.generators\[1\]\[0\]: not a finite number"),
    (_cones(lambda doc: doc["cones"][0]["generators"].append([1.0])),
     r"\.cones\[0\]\.generators\[2\]: expected 2 numbers, got 1"),
    (_cones(lambda doc: doc.update(dim=0)), r"\.dim: must be >= 1"),
], ids=["no-generators", "none-with-generators", "open-string", "open-int",
        "generators-object", "short-x0", "infinite-entry", "short-row", "dim-0"])
def test_malformed_cone_files_are_input_errors(tmp_path, capsys, doc, message):
    """`lmpkit cones FILE` exits 2 on a malformed family, with a message and
    no traceback."""
    from lmpkit.cli import main

    path = tmp_path / "cones.json"
    path.write_text(json.dumps(doc))
    assert main(["cones", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: .*{message}\n", captured.err), captured.err


def test_cone_family_reads_generators_as_matrices(tmp_path):
    """Each cone's generators are one (rows, dim) array, and a cone without
    ``open`` is open."""
    doc = _cones(lambda doc: doc["cones"][1].pop("open"))
    path = tmp_path / "cones.json"
    path.write_text(json.dumps(doc))
    family = io.load_cone_family(str(path))
    assert [c.generators.shape for c in family] == [(2, 2), (1, 2)]
    assert family[0].generators.tolist() == [[1.0, 0.0], [1.0, 1.0]]
    assert [c.open for c in family] == [False, True]


def test_check_refuses_a_nan_multiplier(ex2_files, capsys):
    from lmpkit.cli import main

    tmp_path, _, _ = ex2_files
    io.save_problem(builtin_example("ex2", ncells=20)[0], str(tmp_path / "problem.json"))
    cert = rewrite(tmp_path / "certificate.json", _set(("alpha0",))(float("nan")))
    code = main(["check", str(tmp_path / "problem.json"), str(tmp_path / "trajectory.json"), cert])
    assert code == 2
    assert "alpha0: not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("field, key, record", [
    ("eta.atoms", "node", {"node": True, "weight": 1.0}),
    ("s.atoms", "node", {"node": True, "vector": [0.0, -1.0]}),
    ("s.cells", "cell", {"cell": True, "vector": [0.0, -1.0]}),
    ("p.atoms", "node", {"node": False, "jump": [0.0, 1.0]}),
])
def test_boolean_index_is_refused(ex2_files, field, key, record):
    tmp_path, trajectory, _ = ex2_files
    outer, inner = field.split(".")

    def edit(doc):
        doc[outer].setdefault(inner, []).append(record)

    path = rewrite(tmp_path / "certificate.json", edit)
    with pytest.raises(InputError, match=rf"\.{outer}\.{inner}\[\d+\]\.{key}: expected int$"):
        io.load_certificate(path, trajectory.grid)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", ["alpha0", "eta.atoms[0].weight"])
def test_boolean_number_is_refused(ex2_files, capsys, field, value):
    from lmpkit.cli import main

    def edit(doc):
        if field == "alpha0":
            doc["alpha0"] = value
        else:
            doc["eta"]["atoms"] = [{"node": 0, "weight": value}]

    tmp_path, _, _ = ex2_files
    io.save_problem(builtin_example("ex2", ncells=20)[0], str(tmp_path / "problem.json"))
    cert = rewrite(tmp_path / "certificate.json", edit)
    code = main(["check", str(tmp_path / "problem.json"), str(tmp_path / "trajectory.json"), cert])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cert}.{field}: expected float\n"


def test_booleans_in_a_list_of_numbers_read_as_one_and_zero(ex2_files):
    tmp_path, trajectory, _ = ex2_files

    def edit(doc):
        doc["lambda"][:2] = [True, False]

    ms = io.load_certificate(rewrite(tmp_path / "certificate.json", edit), trajectory.grid)
    assert ms.lam[:2].tolist() == [1.0, 0.0]


def _jump_at_node_9(doc, copies=1):
    """Cells 9 on hold 0.25, and a record of the jump this makes at node 9."""
    before = doc["u_cells"][8]
    left = before.get("right", before.get("value"))
    doc["u_cells"][9:] = [{"value": [0.25]} for _ in doc["u_cells"][9:]]
    doc["jumps"] = [{"node": 9, "left": left, "right": [0.25]} for _ in range(copies)]


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["grid"].__setitem__(3, 0.0), r"\.grid: grid nodes must be strictly increasing$"),
    (lambda doc: doc.update(grid=[0.0, 1.0], x=doc["x"][:2], u_cells=doc["u_cells"][:1]),
     r"\.grid: grid needs at least 3 nodes \(2 cells\)$"),
    (lambda doc: _jump_at_node_9(doc, copies=2), r"\.jumps\[1\]\.node: duplicate node 9$"),
])
def test_trajectory_errors_name_their_path(ex2_files, edit, message):
    tmp_path, _, _ = ex2_files
    path = rewrite(tmp_path / "trajectory.json", edit)
    with pytest.raises(InputError, match=re.escape(path) + message):
        io.load_trajectory(path)


def test_deep_nesting_is_invalid_json(ex2_files):
    tmp_path, _, _ = ex2_files
    path = tmp_path / "trajectory.json"
    path.write_text(path.read_text().replace('"jumps": []', '"jumps": ' + "[" * 10_000 + "]" * 10_000))
    with pytest.raises(InputError, match=re.escape(str(path)) + r": not valid JSON \(nested too deeply\)$"):
        io.load_trajectory(str(path))


def test_boolean_jump_node_is_refused(ex2_files):
    tmp_path, _, _ = ex2_files

    def edit(doc):
        doc["jumps"] = [{"node": True, "left": [0.0], "right": [0.0]}]

    path = rewrite(tmp_path / "trajectory.json", edit)
    with pytest.raises(InputError, match=r"\.jumps\[0\]\.node: expected int$"):
        io.load_trajectory(path)


@pytest.mark.parametrize("kind, key, message", [
    ("problem", "n", "n: expected int"),
    ("problem", "m", "m: expected int"),
    ("cones", "dim", "dim: expected int"),
    ("problem", "format_version", "format_version: missing or not an integer"),
    ("problem", "t0", "t0: expected float"),
    ("problem", "t1", "t1: expected float"),
])
def test_boolean_size_or_version_is_refused(tmp_path, kind, key, message):
    if kind == "problem":
        io.save_problem(builtin_example("ex1", ncells=4)[0], str(tmp_path / "doc.json"))
        load = io.load_problem
    else:
        (tmp_path / "doc.json").write_text(json.dumps(
            {"format_version": 1, "dim": 1, "cones": [{"generators": [[1.0]]}]}
        ))
        load = io.load_cone_family
    path = rewrite(tmp_path / "doc.json", _set((key,))(True))
    with pytest.raises(InputError, match=rf"\.{message}$"):
        load(path)


# -- the column read against the record-by-record read -------------------------


def test_saved_files_are_read_by_columns(tmp_path, monkeypatch):
    """The files lmpkit writes, indented or compact, never enter the
    locators of a bad record, whether they give s as vectors or as weights."""
    from dataclasses import replace

    from lmpkit.recovery import recover

    # ex2's closed form gives s on its density cells as vectors, or as
    # weights over each cell's one generator; recovery gives s on ex1's
    # atoms as weights
    _, arc, ms = builtin_example("ex2", ncells=52)
    records = {k: Record(weights=[1.0]) for k in ms.s_cells.index.tolist()}
    weighted = replace(ms, s_cells=directions_of(records))
    problem, atom, _ = builtin_example("ex1", ncells=40)
    recovered = recover(Samples(problem, atom)).result.multipliers
    assert recovered.s_atoms.index.size > 0 and recovered.s_atoms.weighted.all()
    assert weighted.s_cells.index.size > 0 and weighted.s_cells.weighted.all()
    cases = {"closed": (arc, ms), "weighted": (arc, weighted), "recovered": (atom, recovered)}
    for name, (trajectory, certificate) in cases.items():
        io.save_trajectory(trajectory, str(tmp_path / f"{name}-trajectory.json"))
        io.save_certificate(certificate, str(tmp_path / f"{name}.json"))

    def refuse(*args):
        raise AssertionError("a locator ran")

    monkeypatch.setattr(io, "_locate_cell_fault", refuse)
    monkeypatch.setattr(io, "_locate_direction_fault", refuse)
    for compact in (False, True):
        if compact:  # as json.dump writes without indent
            for path in tmp_path.glob("*.json"):
                rewrite(path, lambda doc: None)
        for name, (trajectory, certificate) in cases.items():
            loaded = io.load_trajectory(str(tmp_path / f"{name}-trajectory.json"))
            assert np.array_equal(loaded.u_left, trajectory.u_left)
            assert np.array_equal(loaded.u_right, trajectory.u_right)
            cert = io.load_certificate(str(tmp_path / f"{name}.json"), loaded.grid)
            for got, want in ((cert.s_atoms, certificate.s_atoms),
                              (cert.s_cells, certificate.s_cells)):
                assert np.array_equal(got.index, want.index)
                assert np.array_equal(got.weighted, want.weighted)
                assert np.array_equal(got.size, want.size)
                assert np.array_equal(got.values, want.values)


def test_one_wrong_dimension_vector_among_many_cells_fails_at_check(tmp_path):
    from lmpkit.lmp import check_certificate

    problem, trajectory, ms = builtin_example("ex2", ncells=2000)
    assert ms.s_cells.index.size == 1000
    io.save_certificate(ms, str(tmp_path / "certificate.json"))
    cell = ms.s_cells.index[437]

    def edit(doc):
        doc["s"]["cells"][437]["vector"].append(0.0)

    path = rewrite(tmp_path / "certificate.json", edit)
    cert = io.load_certificate(path, trajectory.grid)
    assert cert.s_cells.size.tolist().count(3) == 1
    report = check_certificate(Samples(problem, trajectory), cert)
    failing = {e.name: e.detail for e in report.entries if not e.passed}
    message = f"error: direction vector at cell {cell} has wrong dimension"
    assert failing == {"jump_inclusion": message, "adjoint": message}


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)
NOT_A_NUMBER = st.sampled_from(["1.0", None, [1.0], {}])
NOT_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400])
NOT_AN_OBJECT = st.sampled_from([[], [1.0], 3, "value", None])


def _spoil_row(draw, row):
    """A row with one entry replaced by a non-number or a non-finite number."""
    if not row:
        return draw(st.sampled_from(["x", None, 1.0, [["x"]]]))
    row = list(row)
    row[draw(st.integers(0, len(row) - 1))] = draw(st.one_of(NOT_A_NUMBER, NOT_FINITE))
    return row


@st.composite
def u_cell_lists(draw):
    ncells, m = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    row = st.lists(NUMBERS, min_size=m, max_size=m)
    cells = [
        {"value": draw(row)} if draw(st.booleans())
        else {"left": draw(row), "right": draw(row)}
        for _ in range(ncells)
    ]
    fault = draw(st.sampled_from(
        [None, None, "object", "missing", "extra", "entry", "ragged"]
    ))
    i = draw(st.integers(0, ncells - 1))
    cell = cells[i]
    keys = sorted(cell)
    if fault == "object":
        cells[i] = draw(NOT_AN_OBJECT)
    elif fault == "missing":
        del cell[draw(st.sampled_from(keys))]
    elif fault == "extra":
        cell[draw(st.sampled_from(["note", "left", "value"]))] = draw(row)
    elif fault == "entry":
        key = draw(st.sampled_from(keys))
        cell[key] = _spoil_row(draw, cell[key])
    elif fault == "ragged":
        key = draw(st.sampled_from(keys))
        cell[key] = cell[key] + [draw(NUMBERS)]
    return cells


@st.composite
def direction_lists(draw):
    key, size = draw(st.sampled_from([("node", 8), ("cell", 7)]))
    index = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    ragged = draw(st.booleans())
    width = draw(st.integers(0, 3))
    records = []
    for k in index:
        length = draw(st.integers(0, 3)) if ragged else width
        kind = draw(st.sampled_from(["vector", "weights"]))
        records.append({key: k, kind: draw(st.lists(NUMBERS, min_size=length, max_size=length))})
    fault = draw(st.sampled_from([
        None, None, "object", "missing", "extra", "index", "outside", "duplicate", "entry",
    ]))
    if not records:
        return records, key, size
    i = draw(st.integers(0, len(records) - 1))
    rec = records[i]
    kind = "vector" if "vector" in rec else "weights"
    if fault == "object":
        records[i] = draw(NOT_AN_OBJECT)
    elif fault == "missing":
        del rec[draw(st.sampled_from([key, kind]))]
    elif fault == "extra":
        rec[draw(st.sampled_from(["note", "vector", "weights"]))] = [1.0]
    elif fault == "index":
        rec[key] = draw(st.sampled_from([True, False, 1.0, "1", None, 2**70]))
    elif fault == "outside":
        rec[key] = draw(st.sampled_from([-1, size, size + 5]))
    elif fault == "duplicate":
        rec[key] = records[draw(st.integers(0, len(records) - 1))][key]
    elif fault == "entry":
        rec[kind] = _spoil_row(draw, rec[kind])
    return records, key, size


def _outcome(read, *args):
    try:
        return read(*args)
    except InputError as err:
        return f"InputError: {err}"


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(u_cell_lists())
@settings(max_examples=400, deadline=None)
def test_u_cells_read_as_record_by_record(cells):
    got = _outcome(io._u_cells, cells, "t.u_cells")
    want = _outcome(u_cells_by_record, cells, "t.u_cells")
    if isinstance(want, str):
        assert got == want
    else:
        assert all(_same_bits(g, w) for g, w in zip(got, want))


@given(direction_lists(), st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_directions_read_as_record_by_record(drawn, random):
    records, key, size = drawn
    random.shuffle(records)
    got = _outcome(io._directions, records, key, size, "c.s.cells")
    want = _outcome(directions_by_record, records, key, size, "c.s.cells")
    if isinstance(want, str):
        assert got == want
    else:
        for field in ("index", "weighted", "size", "values"):
            assert _same_bits(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("file, path, value, message", [
    ("certificate.json", ("s",), [], r"\.s: expected an object"),
    ("certificate.json", ("eta", "atoms"), 5, r"\.eta\.atoms: expected a list"),
    ("certificate.json", ("s", "atoms"), 5, r"\.s\.atoms: expected a list"),
    ("certificate.json", ("s", "cells"), 5, r"\.s\.cells: expected a list"),
    ("certificate.json", ("p", "atoms"), 5, r"\.p\.atoms: expected a list"),
    ("trajectory.json", ("jumps",), 5, r"\.jumps: expected a list"),
    # every row of the costate, its exterior value and its jumps, of another
    # width than the problem's n = 2
    ("certificate.json", ("p",), lambda p: resized_rows(p, 3),
     r"\.p\.values: the costate p has width 3, but the problem has n = 2"),
    ("certificate.json", ("p",), lambda p: resized_rows(p, 1),
     r"\.p\.values: the costate p has width 1, but the problem has n = 2"),
])
def test_check_refuses_a_wrong_container(ex2_files, capsys, file, path, value, message):
    """A field holding the wrong kind of container, or a costate of the
    wrong width, is an input error that names its JSON path (exit 2), not a
    traceback."""
    from lmpkit.cli import main

    tmp_path, _, _ = ex2_files
    io.save_problem(builtin_example("ex2", ncells=20)[0], str(tmp_path / "problem.json"))
    rewrite(tmp_path / file, _set(path)(value))
    code = main([
        "check", *(str(tmp_path / name) for name in
                   ("problem.json", "trajectory.json", "certificate.json")),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert re.search(message, err), err


# -- the collector pause ---------------------------------------------------------


@pytest.fixture()
def loader_files(tmp_path):
    problem, trajectory, ms = builtin_example("ex2", ncells=20)
    io.save_problem(problem, str(tmp_path / "problem.json"))
    io.save_trajectory(trajectory, str(tmp_path / "trajectory.json"))
    io.save_certificate(ms, str(tmp_path / "certificate.json"))
    (tmp_path / "cones.json").write_text(json.dumps(
        {"format_version": 1, "dim": 2, "cones": [{"generators": [[1.0, 0.0]], "x0": [1.0, 0.0]}]}
    ))
    return tmp_path, trajectory.grid


# per loader: a call, and an entry that makes a bad record
LOADERS = {
    "problem": (lambda path, grid: io.load_problem(path), ("n",)),
    "trajectory": (lambda path, grid: io.load_trajectory(path), ("x", 7, 1)),
    "certificate": (io.load_certificate, ("lambda", 3)),
    "cones": (lambda path, grid: io.load_cone_family(path), ("cones", 0, "generators", 0, 1)),
}


@pytest.fixture()
def collector():
    """Restores the collector's state when the test ends."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("fault", [None, "json", "record"])
@pytest.mark.parametrize("name", LOADERS)
def test_loaders_leave_the_collector_as_they_found_it(
    loader_files, collector, monkeypatch, name, fault, enabled
):
    """Each loader parses with the collector off, and leaves it on or off as
    the caller had it, whether it returns or raises."""
    tmp_path, grid = loader_files
    load, entry = LOADERS[name]
    path = tmp_path / f"{name}.json"
    if fault == "json":
        path.write_text(path.read_text()[:-3])
    elif fault == "record":
        rewrite(path, _set(entry)("1.0" if name != "problem" else True))
    parsed_with = []
    parse = io._load_json

    def watched(source):
        parsed_with.append(gc.isenabled())
        return parse(source)

    monkeypatch.setattr(io, "_load_json", watched)
    (gc.enable if enabled else gc.disable)()
    if fault is None:
        load(str(path), grid)
    else:
        with pytest.raises(InputError, match=re.escape(str(path))):
            load(str(path), grid)
    assert gc.isenabled() == enabled
    assert parsed_with == [False]


# -- malformed files through `lmpkit check` -------------------------------------


@pytest.fixture(scope="module")
def check_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("malformed")
    problem, trajectory, ms = builtin_example("ex2", ncells=20)
    io.save_problem(problem, str(d / "problem.json"))
    io.save_trajectory(trajectory, str(d / "trajectory.json"))
    io.save_certificate(ms, str(d / "certificate.json"))
    docs = {name: json.loads((d / f"{name}.json").read_text())
            for name in ("problem", "trajectory", "certificate")}
    return d, docs


def _entries(doc, where=()):
    """The key paths of every entry below the top level of a document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield where + (key,)
        yield from _entries(value, where + (key,))


DEEP = "<nested>"  # replaced in the written text by lists this deep
MUTATIONS = {
    "drop": st.none(),
    "scalar": st.sampled_from([0, -3, 1.5, 10**400, None]),
    "list": st.sampled_from([[], [1.0], [[1.0, 2.0]], [None]]),
    "dict": st.sampled_from([{}, {"node": 1}, {"value": [0.0]}]),
    "nan": st.sampled_from([float("nan"), float("inf")]),
    "bool": st.booleans(),
    "string": st.sampled_from(["", "x", "1.0"]),
    "deep": st.sampled_from([3, 60, 2000]),
    "width": st.sampled_from([1, 3]),  # the problem has n = 2 and m = 1
}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_malformed_files_never_end_in_a_traceback(check_inputs, data):
    """One entry of a valid problem, trajectory or certificate is dropped or
    replaced, or its rows of numbers take another width; `lmpkit check` then
    exits 0, 1 or 2, and an exit 2 names a JSON path of the file.  Where the
    problem and the trajectory disagree, the message names the paths of both
    files, the problem's first."""
    from lmpkit.cli import main

    d, docs = check_inputs
    name = data.draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[name])
    where = data.draw(st.sampled_from(list(_entries(doc))))
    kind = data.draw(st.sampled_from(sorted(MUTATIONS)))
    value = data.draw(MUTATIONS[kind])
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[where[-1]]
    elif kind == "width":
        parent[where[-1]] = resized_rows(parent[where[-1]], value)
    else:
        parent[where[-1]] = DEEP if kind == "deep" else value
    nested = "[" * value + "1.0" + "]" * value if kind == "deep" else ""
    target = d / f"mutated-{name}.json"
    target.write_text(json.dumps(doc).replace(json.dumps(DEEP), nested))
    files = {f: str(d / f"{f}.json") for f in ("problem", "trajectory", "certificate")}
    files[name] = str(target)
    err = text_io.StringIO()
    with contextlib.redirect_stdout(text_io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", files["problem"], files["trajectory"], files["certificate"]])
    assert code in (0, 1, 2)
    if code == 2:
        assert re.match(rf"error: (.* \()?{re.escape(str(target))}[.\[:]", err.getvalue()), err.getvalue()


@pytest.mark.parametrize("key, value, field", [
    ("G", "x", "G: unknown identifier 'x'"),
    ("J", "x0_9", "J: variable index out of declared range"),
    ("f", ["x2", "u2"], "f[1]: variable index out of declared range"),
    ("t0", 5.0, "t1: t0 < t1 is required"),
    ("m", -3, "m: must be >= 1"),
    ("m", 5, "m: 5, but the trajectory has 1"),
    ("t0", 0.0, "t0: 0.0, but the trajectory's grid has -1.0"),
    ("t1", 5.0, "t1: 5.0, but the trajectory's grid has 1.0"),
])
def test_problem_errors_name_the_field(check_inputs, capsys, key, value, field):
    from lmpkit.cli import main

    d, docs = check_inputs
    doc = copy.deepcopy(docs["problem"])
    doc[key] = value
    target = d / "edited-problem.json"
    target.write_text(json.dumps(doc))
    files = [str(target), str(d / "trajectory.json"), str(d / "certificate.json")]
    for command in (["check", *files], ["recover", *files[:2]]):
        assert main(command) == 2
        assert capsys.readouterr().err.startswith(f"error: {target}.{field}")


# -- the JSON writer -----------------------------------------------------------

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 1e-300, 1e16, float("inf"), -float("inf"), float("nan")]),
    st.floats().map(np.float64),
)
SCALARS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), FLOATS)
# besides scalars, the lists and rows the writer joins in one go
DOCUMENTS = st.recursive(
    SCALARS
    | st.lists(FLOATS, min_size=1, max_size=6)
    | st.integers(1, 3).flatmap(
        lambda width: st.lists(
            st.lists(FLOATS, min_size=width, max_size=width), min_size=1, max_size=4
        )
    ),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(DOCUMENTS)
@settings(max_examples=300, deadline=None)
def test_json_text_equals_json_dumps(doc):
    assert io.json_text(doc) == json.dumps(doc, indent=2)


def test_every_written_file_is_json_dumps_text(tmp_path):
    """Files of example, recover and check (a report with Infinity entries
    among them) hold the text json.dumps gives for their own contents."""
    from lmpkit.cli import main

    written = []
    for name, N in (("ex1", 40), ("ex2", 20), ("ex2", 50)):
        d = tmp_path / f"{name}-{N}"
        assert main(["example", name, "--N", str(N), "--out-dir", str(d)]) == 0
        problem, trajectory = str(d / "problem.json"), str(d / "trajectory.json")
        main([
            "recover", problem, trajectory, "--out-certificate", str(d / "recovered.json"),
            "--format", "json", "--out", str(d / "report.json"),
        ])
        written += [d / f for f in ("problem.json", "trajectory.json", "certificate.json",
                                    "recovered.json", "report.json")]
    d = tmp_path / "ex1-40"
    failing = d / "failing-problem.json"
    failing.write_text((d / "problem.json").read_text())
    rewrite(failing, lambda doc: doc.update(G=doc["G"] + " + 0*log(x1 - 100)"))
    out = d / "failing-report.json"
    main(["check", str(failing), str(d / "trajectory.json"), str(d / "certificate.json"),
          "--format", "json", "--out", str(out)])
    assert "Infinity" in out.read_text()
    for path in written + [out]:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name
