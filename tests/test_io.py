import json

import numpy as np
import pytest

from lmpkit import io
from lmpkit.errors import InputError
from lmpkit.problem import builtin_example


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
    with pytest.raises(InputError, match="discontinuous at node 9 but no jump"):
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
