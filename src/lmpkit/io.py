"""Versioned JSON file formats for problems, trajectories, certificates,
cone families, and reports.

Every document carries ``format_version``; unknown major versions are
refused.  Loaders validate shapes and report failures with the offending
field path.  Writers emit a fixed key order, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import cones as cones_mod
from .errors import InputError
from .lmp import MultiplierSet, SupportDirection
from .measures import BVFunction, SignedMeasure
from .problem import ProblemDef, TimeGrid, Trajectory

__all__ = [
    "FORMAT_VERSION",
    "load_problem",
    "save_problem",
    "load_trajectory",
    "save_trajectory",
    "load_certificate",
    "save_certificate",
    "load_cone_family",
    "dump_json",
]

FORMAT_VERSION = 1


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: not valid JSON ({err})") from err


def _check_version(doc: Any, path: str) -> None:
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object at the top level")
    version = doc.get("format_version")
    if not isinstance(version, int):
        raise InputError(f"{path}.format_version: missing or not an integer")
    if version != FORMAT_VERSION:
        raise InputError(
            f"{path}.format_version: unsupported major version {version} "
            f"(this build reads {FORMAT_VERSION})"
        )


def _field(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise InputError(f"{path}.{key}: missing required field")
    value = doc[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise InputError(f"{path}.{key}: expected {kind.__name__}")
    return value


def _matrix(rows: list, path: str) -> np.ndarray:
    """A list of number rows of one common length, read in one call.

    Input that is not such a list is read again row by row, so that the
    error names the offending row.
    """
    try:
        arr = np.array(rows)
    except (TypeError, ValueError):
        arr = None
    if arr is not None and arr.ndim == 2 and arr.shape[1] >= 1 and arr.dtype.kind in "biuf":
        return arr.astype(float)
    dim = len(rows[0]) if isinstance(rows[0], list) else -1
    if dim < 1:
        raise InputError(f"{path}[0]: expected a list of numbers")
    return np.vstack([_vector(row, dim, f"{path}[{i}]") for i, row in enumerate(rows)])


def _vector(value, size: int | None, path: str) -> np.ndarray:
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) for v in value
    ):
        raise InputError(f"{path}: expected a list of numbers")
    arr = np.asarray(value, dtype=float)
    if size is not None and arr.size != size:
        raise InputError(f"{path}: expected {size} numbers, got {arr.size}")
    return arr


# -- problem -------------------------------------------------------------------


def load_problem(path: str) -> ProblemDef:
    doc = _load_json(path)
    _check_version(doc, path)
    n = _field(doc, "n", int, path)
    m = _field(doc, "m", int, path)
    t0 = _field(doc, "t0", float, path)
    t1 = _field(doc, "t1", float, path)
    f = _field(doc, "f", list, path)
    if len(f) != n or not all(isinstance(s, str) for s in f):
        raise InputError(f"{path}.f: expected {n} expression strings")
    G = _field(doc, "G", str, path)
    J = _field(doc, "J", str, path)
    return ProblemDef.from_strings(n=n, m=m, t0=t0, t1=t1, f=f, G=G, J=J)


def save_problem(problem: ProblemDef, path: str) -> None:
    from . import expr

    dump_json(
        {
            "format_version": FORMAT_VERSION,
            "n": problem.n,
            "m": problem.m,
            "t0": problem.t0,
            "t1": problem.t1,
            "f": [expr.to_source(e) for e in problem.f],
            "G": expr.to_source(problem.G),
            "J": expr.to_source(problem.J),
        },
        path,
    )


# -- trajectory ----------------------------------------------------------------


def load_trajectory(path: str) -> Trajectory:
    doc = _load_json(path)
    _check_version(doc, path)
    nodes = _vector(_field(doc, "grid", list, path), None, f"{path}.grid")
    grid = TimeGrid(nodes)
    N = grid.ncells
    x_rows = _field(doc, "x", list, path)
    if len(x_rows) != N + 1:
        raise InputError(f"{path}.x: expected {N + 1} node rows")
    x = _matrix(x_rows, f"{path}.x")
    cells = _field(doc, "u_cells", list, path)
    if len(cells) != N:
        raise InputError(f"{path}.u_cells: expected {N} cells")
    u_left, u_right = [], []
    m = None
    for i, cell in enumerate(cells):
        where = f"{path}.u_cells[{i}]"
        if not isinstance(cell, dict):
            raise InputError(f"{where}: expected an object")
        if "value" in cell:
            left = right = _vector(cell["value"], m, f"{where}.value")
        else:
            left = _vector(cell.get("left"), m, f"{where}.left")
            right = _vector(cell.get("right"), left.size, f"{where}.right")
        m = left.size
        u_left.append(left)
        u_right.append(right)
    jumps = []
    for i, rec in enumerate(doc.get("jumps", [])):
        where = f"{path}.jumps[{i}]"
        if not isinstance(rec, dict):
            raise InputError(f"{where}: expected an object")
        node = _field(rec, "node", int, where)
        if not 0 < node < N:
            raise InputError(f"{where}.node: {node} is not an interior node")
        left = _vector(rec.get("left"), m, f"{where}.left")
        right = _vector(rec.get("right"), m, f"{where}.right")
        if not np.allclose(left, u_right[node - 1], atol=1e-9) or not np.allclose(
            right, u_left[node], atol=1e-9
        ):
            raise InputError(
                f"{where}: jump values disagree with the adjacent cell descriptors"
            )
        jumps.append(node)
    return Trajectory(
        grid=grid,
        x=x,
        u_left=np.vstack(u_left),
        u_right=np.vstack(u_right),
        jumps=tuple(jumps),
    )


def save_trajectory(trajectory: Trajectory, path: str) -> None:
    cells = []
    for k in range(trajectory.grid.ncells):
        left = trajectory.u_left[k]
        right = trajectory.u_right[k]
        if np.array_equal(left, right):
            cells.append({"value": left.tolist()})
        else:
            cells.append({"left": left.tolist(), "right": right.tolist()})
    jumps = [
        {
            "node": k,
            "left": trajectory.u_right[k - 1].tolist(),
            "right": trajectory.u_left[k].tolist(),
        }
        for k in trajectory.jumps
    ]
    dump_json(
        {
            "format_version": FORMAT_VERSION,
            "grid": trajectory.grid.nodes.tolist(),
            "x": trajectory.x.tolist(),
            "u_cells": cells,
            "jumps": jumps,
        },
        path,
    )


# -- certificate ---------------------------------------------------------------


def _load_direction(rec: dict, where: str) -> SupportDirection:
    if ("vector" in rec) == ("weights" in rec):
        raise InputError(f"{where}: give exactly one of vector or weights")
    if "vector" in rec:
        return SupportDirection(vector=_vector(rec["vector"], None, f"{where}.vector"))
    return SupportDirection(weights=_vector(rec["weights"], None, f"{where}.weights"))


def _index(rec: dict, key: str, size: int, taken: dict, where: str) -> int:
    """The integer field ``key`` of one record of a list: a node or cell
    index below ``size`` that no earlier record of the list has taken."""
    k = _field(rec, key, int, where)
    if not 0 <= k < size:
        raise InputError(f"{where}.{key}: outside the grid")
    if k in taken:
        raise InputError(f"{where}.{key}: duplicate {key} {k}")
    return k


def load_certificate(path: str, grid: TimeGrid) -> MultiplierSet:
    doc = _load_json(path)
    _check_version(doc, path)
    N = grid.ncells
    alpha0 = _field(doc, "alpha0", float, path)
    lam = _vector(_field(doc, "lambda", list, path), N, f"{path}.lambda")
    eta_doc = _field(doc, "eta", dict, path)
    atoms = {}
    for i, rec in enumerate(eta_doc.get("atoms", [])):
        where = f"{path}.eta.atoms[{i}]"
        node = _index(rec, "node", N + 1, atoms, where)
        atoms[node] = _field(rec, "weight", float, where)
    density = _vector(eta_doc.get("density", [0.0] * N), N, f"{path}.eta.density")
    eta = SignedMeasure.scalar(grid, atoms=atoms, density=density)
    s_doc = doc.get("s", {})
    s_atoms = {}
    for i, rec in enumerate(s_doc.get("atoms", [])):
        where = f"{path}.s.atoms[{i}]"
        node = _index(rec, "node", N + 1, s_atoms, where)
        s_atoms[node] = _load_direction(rec, where)
    s_cells = {}
    for i, rec in enumerate(s_doc.get("cells", [])):
        where = f"{path}.s.cells[{i}]"
        cell = _index(rec, "cell", N, s_cells, where)
        s_cells[cell] = _load_direction(rec, where)
    p_doc = _field(doc, "p", dict, path)
    values_rows = _field(p_doc, "values", list, f"{path}.p")
    if len(values_rows) != N + 1:
        raise InputError(f"{path}.p.values: expected {N + 1} node rows")
    values = _matrix(values_rows, f"{path}.p.values")
    dim = values.shape[1]
    exterior = _vector(
        p_doc.get("exterior_left", values_rows[0]), dim, f"{path}.p.exterior_left"
    )
    if not np.allclose(exterior, values[0], atol=1e-12, rtol=0.0):
        raise InputError(
            f"{path}.p.exterior_left: must equal values[0] (left-continuity)"
        )
    p_atoms = {}
    for i, rec in enumerate(p_doc.get("atoms", [])):
        where = f"{path}.p.atoms[{i}]"
        node = _index(rec, "node", N + 1, p_atoms, where)
        p_atoms[node] = _vector(rec.get("jump"), dim, f"{where}.jump")
    p = BVFunction(grid=grid, values=values, atoms=p_atoms)
    return MultiplierSet(
        alpha0=alpha0, lam=lam, eta=eta, s_atoms=s_atoms, s_cells=s_cells, p=p
    )


def save_certificate(ms: MultiplierSet, path: str) -> None:
    def direction_doc(sd: SupportDirection) -> dict:
        if sd.vector is not None:
            return {"vector": sd.vector.tolist()}
        return {"weights": sd.weights.tolist()}

    doc = {
        "format_version": FORMAT_VERSION,
        "alpha0": float(ms.alpha0),
        "lambda": ms.lam.tolist(),
        "eta": {
            "atoms": [
                {"node": int(k), "weight": ms.eta.scalar_atom(k)}
                for k in sorted(ms.eta.atoms)
            ],
            "density": ms.eta.density[:, 0].tolist(),
        },
        "s": {
            "atoms": [
                {"node": int(k), **direction_doc(sd)}
                for k, sd in sorted(ms.s_atoms.items())
            ],
            "cells": [
                {"cell": int(k), **direction_doc(sd)}
                for k, sd in sorted(ms.s_cells.items())
            ],
        },
        "p": {
            "exterior_left": ms.p.exterior_left.tolist(),
            "values": ms.p.values.tolist(),
            "atoms": [
                {"node": int(k), "jump": ms.p.jump(k).tolist()}
                for k in sorted(ms.p.atoms)
            ],
        },
    }
    dump_json(doc, path)


# -- cone families -------------------------------------------------------------


def load_cone_family(path: str) -> list[cones_mod.PolyCone]:
    doc = _load_json(path)
    _check_version(doc, path)
    dim = _field(doc, "dim", int, path)
    out = []
    for i, rec in enumerate(_field(doc, "cones", list, path)):
        where = f"{path}.cones[{i}]"
        if not isinstance(rec, dict):
            raise InputError(f"{where}: expected an object")
        gens_rows = _field(rec, "generators", list, where)
        gens = np.vstack(
            [
                _vector(row, dim, f"{where}.generators[{j}]")
                for j, row in enumerate(gens_rows)
            ]
        )
        x0 = rec.get("x0")
        out.append(
            cones_mod.PolyCone(
                generators=gens,
                open=bool(rec.get("open", True)),
                x0=None if x0 is None else _vector(x0, dim, f"{where}.x0"),
            )
        )
    return out

