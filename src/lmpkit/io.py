"""Versioned JSON file formats for problems, trajectories, certificates,
cone families, and reports.

Every document carries ``format_version``; unknown major versions are
refused.  Loaders validate shapes and report failures with the offending
field path; text nested too deeply for the parser is refused as invalid
JSON.  Writers emit a fixed key order, so identical inputs produce
byte-identical files.

All JSON text, files and ``--format json`` reports alike, comes from
:func:`json_text`, which returns exactly ``json.dumps(doc, indent=2)``
built by string joins: a list of floats is one join of their reprs, rows
of equal length of floats take one ``%``-template per row, dicts and other
lists recurse, and the remaining scalars (strings, bools, None, non-finite
floats) go through the json module's own encoders.  A file is written by
one ``write`` call.

Every number must be finite: ``NaN``, ``Infinity`` and numbers too large
for a double are refused with the path of the first bad entry (e.g.
``cert.json.lambda[3]: not a finite number``).  Where a single number is
expected (indices, sizes, ``format_version``, ``t0``, ``t1``, ``alpha0``,
atom weights), ``true`` and ``false`` are refused too; in a list of numbers
they read as 1 and 0.  An optional field (``jumps``, ``s``, and the lists
``eta.atoms``, ``s.atoms``, ``s.cells`` and ``p.atoms``) may be left out,
but where given it must be the container the format names.

Each list has one reader, by columns: the state and costate rows, the
cone generators, the control cells and the direction records of s are
gathered into columns by one Python loop over the records, and each
column becomes an array by one ``np.array`` call and one finiteness test.
Where a column does not convert, a locator walks the records in file order
and raises the error of the first bad one; it never returns arrays.

Each loader runs with the cyclic garbage collector paused.  ``json.load``
allocates a list or dict per JSON container, about 15 000 for a
certificate and trajectory at N = 2000, enough to start a dozen young
collections and now and then a full one, each of which walks the tree
just parsed.  That tree holds lists, dicts, strings and numbers only, so it
cannot form a cycle and reference counting frees all of it; the loader
drops it before it returns.  On return or raise the collector is left as
the caller had it: on again if it was on, off if the caller had turned it
off.
"""

from __future__ import annotations

import functools
import gc
import json
import math
from itertools import chain
from typing import Any

import numpy as np

from . import cones as cones_mod
from . import expr
from .errors import InputError, ParseError
from .lmp import Directions, MultiplierSet
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
    "json_text",
]

FORMAT_VERSION = 1


def dump_json(obj: dict, path: str) -> None:
    text = json_text(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


# json's own encoders: of a str, and of any other scalar (bool, None, an
# int subclass, a non-finite float); json writes ints and finite floats
# by int.__repr__ and float.__repr__
_string_text = json.encoder.encode_basestring_ascii
_scalar_text = json.JSONEncoder().encode


def json_text(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``, built by string joins; every
    dict key of ``doc`` must be a str."""
    return _text(doc, "\n")


def _text(obj, newline: str) -> str:
    """The text of ``obj`` whose closing bracket starts at ``newline``."""
    if isinstance(obj, (list, tuple)):
        return _list_text(obj, newline) if obj else "[]"
    if isinstance(obj, dict):
        return _dict_text(obj, newline) if obj else "{}"
    if isinstance(obj, str):
        return _string_text(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    return _scalar_text(obj)


def _list_text(items, newline: str) -> str:
    inner = newline + "  "
    first = items[0]
    body = None
    if isinstance(first, float):
        try:
            body = ("," + inner).join(map(float.__repr__, items))
        except TypeError:  # an entry that is not a float
            pass
    elif type(first) is list and first:
        body = _rows_text(items, inner)
    # json writes inf and nan as Infinity and NaN; no finite repr has an i or a
    if body is None or "i" in body or "a" in body:
        body = ("," + inner).join([_text(v, inner) for v in items])
    return "[" + inner + body + newline + "]"


def _rows_text(rows, newline: str) -> str | None:
    """Rows that are lists of equal length of floats, one %-template per
    row; None for any other list."""
    width = len(rows[0])
    if (
        set(map(type, rows)) != {list}
        or set(map(len, rows)) != {width}
        or set(map(type, chain.from_iterable(rows))) != {float}
    ):
        return None
    inner = newline + "  "
    template = "[" + inner + ("," + inner).join(["%r"] * width) + newline + "]"
    return ("," + newline).join(map(template.__mod__, map(tuple, rows)))


def _dict_text(obj: dict, newline: str) -> str:
    inner = newline + "  "
    body = ("," + inner).join(
        [_string_text(k) + ": " + _text(v, inner) for k, v in obj.items()]
    )
    return "{" + inner + body + newline + "}"


def _collector_paused(load):
    """``load`` with the cyclic garbage collector paused over the call, and
    restored as the caller had it on return or raise (see the module
    docstring)."""

    @functools.wraps(load)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return load(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 text ({err.reason})") from None
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: not valid JSON ({err})") from err
    except RecursionError:
        raise InputError(f"{path}: not valid JSON (nested too deeply)") from None


def _check_version(doc: Any, path: str) -> None:
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object at the top level")
    version = doc.get("format_version")
    if type(version) is not int:
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
    if kind in (int, float) and isinstance(value, bool):
        raise InputError(f"{path}.{key}: expected {kind.__name__}")
    if kind is float and isinstance(value, int):
        value = _float(value)
    if not isinstance(value, kind):
        raise InputError(f"{path}.{key}: expected {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise InputError(f"{path}.{key}: not a finite number")
    return value


def _optional(doc: dict, key: str, kind, path: str):
    """The value of an optional field, an empty ``kind`` where it is absent."""
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        article = "an object" if kind is dict else "a list"
        raise InputError(f"{path}.{key}: expected {article}")
    return value


def _float(value: int | float) -> float:
    """A JSON number as a float; inf where it is too large for one."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _columns(value, ndim: int) -> np.ndarray | None:
    """``value`` as an ``ndim``-dimensional float array, read by one
    ``np.array`` call, if it is a regular nest of finite JSON numbers
    (booleans count as 0 and 1, ints beyond int64 are read by
    :func:`_float`); else None."""
    try:
        arr = np.array(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.ndim != ndim:
        return None
    if arr.dtype == object:  # numbers among ints beyond int64, or non-numbers
        if not all(isinstance(v, (int, float)) for v in arr.flat):
            return None
        arr = np.array(list(map(_float, arr.flat))).reshape(arr.shape)
    elif arr.dtype.kind not in "biuf":
        return None
    arr = arr.astype(float, copy=False)
    return arr if np.isfinite(arr).all() else None


def _matrix(rows: list, path: str, width: int | None = None) -> np.ndarray:
    """A list of number rows of one length: ``width`` where given (the list
    may then be empty), else that of the first row, at least 1.  The error
    names the first bad row."""
    if width is None:
        width = len(rows[0]) if isinstance(rows[0], list) else 0
        if width < 1:
            raise InputError(f"{path}[0]: expected a list of numbers")
    arr = _columns(rows, 2) if rows else np.zeros((0, width))
    if arr is None or arr.shape[1] != width:
        for i, row in enumerate(rows):  # the first bad row raises
            _vector(row, width, f"{path}[{i}]")
    return arr


def _vector(value, size: int | None, path: str) -> np.ndarray:
    """A list of ``size`` numbers (any number if None), read in one call;
    the error names the first bad entry."""
    arr = _columns(value, 1) if isinstance(value, list) else None
    if arr is not None and (size is None or arr.size == size):
        return arr
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) for v in value
    ):
        raise InputError(f"{path}: expected a list of numbers")
    if size is not None and len(value) != size:
        raise InputError(f"{path}: expected {size} numbers, got {len(value)}")
    i = next(i for i, v in enumerate(value) if not math.isfinite(_float(v)))
    raise InputError(f"{path}[{i}]: not a finite number")


# -- problem -------------------------------------------------------------------


@_collector_paused
def load_problem(path: str) -> ProblemDef:
    doc = _load_json(path)
    _check_version(doc, path)
    n = _field(doc, "n", int, path)
    m = _field(doc, "m", int, path)
    for key, value in (("n", n), ("m", m)):
        if value < 1:
            raise InputError(f"{path}.{key}: must be >= 1")
    t0 = _field(doc, "t0", float, path)
    t1 = _field(doc, "t1", float, path)
    if not t0 < t1:
        raise InputError(f"{path}.t1: t0 < t1 is required")
    f = _field(doc, "f", list, path)
    if len(f) != n or not all(isinstance(s, str) for s in f):
        raise InputError(f"{path}.f: expected {n} expression strings")
    scope = expr.Scope(n, m)
    return ProblemDef(
        n=n,
        m=m,
        t0=t0,
        t1=t1,
        f=tuple(_parse(s, scope, f"{path}.f[{i}]") for i, s in enumerate(f)),
        G=_parse(_field(doc, "G", str, path), scope, f"{path}.G"),
        J=_parse(_field(doc, "J", str, path), expr.Scope(n, 0, endpoint=True), f"{path}.J"),
    )


def _parse(source: str, scope: expr.Scope, where: str) -> expr.Expression:
    try:
        return expr.parse(source, scope)
    except ParseError as err:
        raise InputError(f"{where}: {err}") from None


def save_problem(problem: ProblemDef, path: str) -> None:
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


@_collector_paused
def load_trajectory(path: str) -> Trajectory:
    doc = _load_json(path)
    _check_version(doc, path)
    nodes = _vector(_field(doc, "grid", list, path), None, f"{path}.grid")
    try:
        grid = TimeGrid(nodes)
    except InputError as err:
        raise InputError(f"{path}.grid: {err}") from None
    N = grid.ncells
    x_rows = _field(doc, "x", list, path)
    if len(x_rows) != N + 1:
        raise InputError(f"{path}.x: expected {N + 1} node rows")
    x = _matrix(x_rows, f"{path}.x")
    cells = _field(doc, "u_cells", list, path)
    if len(cells) != N:
        raise InputError(f"{path}.u_cells: expected {N} cells")
    u_left, u_right = _u_cells(cells, f"{path}.u_cells")
    m = u_left.shape[1]
    jumps = []
    for i, rec in enumerate(_optional(doc, "jumps", list, path)):
        where = f"{path}.jumps[{i}]"
        if not isinstance(rec, dict):
            raise InputError(f"{where}: expected an object")
        node = _field(rec, "node", int, where)
        if not 0 < node < N:
            raise InputError(f"{where}.node: {node} is not an interior node")
        if node in jumps:
            raise InputError(f"{where}.node: duplicate node {node}")
        left = _vector(rec.get("left"), m, f"{where}.left")
        right = _vector(rec.get("right"), m, f"{where}.right")
        if not np.allclose(left, u_right[node - 1], atol=1e-9) or not np.allclose(
            right, u_left[node], atol=1e-9
        ):
            raise InputError(
                f"{where}: jump values disagree with the adjacent cell descriptors"
            )
        jumps.append(node)
    try:
        return Trajectory(grid=grid, x=x, u_left=u_left, u_right=u_right, jumps=tuple(jumps))
    except InputError as err:  # a control gap at a node with no jump record
        raise InputError(f"{path}.u_cells: {err}") from None


def _u_cells(cells: list, path: str) -> tuple[np.ndarray, np.ndarray]:
    """The left and right control values of the cell records: a cell's
    ``value`` where it has one, else its ``left`` and ``right``."""
    left, right = [], []
    for cell in cells:
        if not isinstance(cell, dict):
            _locate_cell_fault(cells, path)
        if "value" in cell:
            left.append(cell["value"])
            right.append(cell["value"])
        else:
            left.append(cell.get("left"))
            right.append(cell.get("right"))
    u_left, u_right = _columns(left, 2), _columns(right, 2)
    if u_left is None or u_right is None or u_left.shape != u_right.shape:
        _locate_cell_fault(cells, path)
    return u_left, u_right


def _locate_cell_fault(cells: list, path: str) -> None:
    """Raise the error of the first cell record, in file order, that the
    columns refuse: every cell gives as many numbers as the first."""
    m = None
    for i, cell in enumerate(cells):
        where = f"{path}[{i}]"
        if not isinstance(cell, dict):
            raise InputError(f"{where}: expected an object")
        if "value" in cell:
            m = _vector(cell["value"], m, f"{where}.value").size
        else:
            m = _vector(cell.get("left"), m, f"{where}.left").size
            _vector(cell.get("right"), m, f"{where}.right")


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


def _directions(records: list, key: str, size: int, path: str) -> Directions:
    """The direction records of s, each an index ``key`` below ``size`` and
    exactly one of ``vector`` or ``weights``, whose numbers are zero-padded
    to the longest record's."""
    if not records:
        return Directions()
    index, weighted, numbers = [], [], []
    for rec in records:
        if not isinstance(rec, dict) or ("vector" in rec) == ("weights" in rec):
            _locate_direction_fault(records, key, size, path)
        weights = "weights" in rec
        index.append(rec.get(key))
        weighted.append(weights)
        numbers.append(rec["weights" if weights else "vector"])
    values = _columns(numbers, 2)
    if values is not None:
        sizes = np.full(len(numbers), values.shape[1])
    else:  # rows of several lengths, zero-padded to the longest, or a fault
        try:
            sizes = np.array(list(map(len, numbers)))
            width = sizes.max()
            values = _columns([v + [0.0] * (width - len(v)) for v in numbers], 2)
        except TypeError:  # numbers that are not lists
            pass
    # ints, not bools; beyond int64 the array is not of ints
    index = np.array(index) if set(map(type, index)) == {int} else None
    if values is None or index is None or index.dtype.kind != "i":
        _locate_direction_fault(records, key, size, path)
    order = np.argsort(index, kind="stable")
    index = index[order]
    if index[0] < 0 or index[-1] >= size or (index[1:] == index[:-1]).any():
        _locate_direction_fault(records, key, size, path)
    return Directions(
        index=index,
        weighted=np.array(weighted)[order],
        size=sizes[order],
        values=values[order],
    )


def _locate_direction_fault(records: list, key: str, size: int, path: str) -> None:
    """Raise the error of the first direction record, in file order, that
    the columns refuse."""
    taken = set()
    for i, rec in enumerate(records):
        where = f"{path}[{i}]"
        _index(rec, key, size, taken, where)
        if ("vector" in rec) == ("weights" in rec):
            raise InputError(f"{where}: give exactly one of vector or weights")
        kind = "weights" if "weights" in rec else "vector"
        _vector(rec[kind], None, f"{where}.{kind}")


def _index(rec: dict, key: str, size: int, taken: set, where: str) -> int:
    """The integer field ``key`` of one record of a list: a node or cell
    index below ``size`` that no earlier record of the list has taken,
    added to ``taken``."""
    if not isinstance(rec, dict):
        raise InputError(f"{where}: expected an object")
    k = _field(rec, key, int, where)
    if not 0 <= k < size:
        raise InputError(f"{where}.{key}: outside the grid")
    if k in taken:
        raise InputError(f"{where}.{key}: duplicate {key} {k}")
    taken.add(k)
    return k


@_collector_paused
def load_certificate(path: str, grid: TimeGrid) -> MultiplierSet:
    doc = _load_json(path)
    _check_version(doc, path)
    N = grid.ncells
    alpha0 = _field(doc, "alpha0", float, path)
    lam = _vector(_field(doc, "lambda", list, path), N, f"{path}.lambda")
    eta_doc = _field(doc, "eta", dict, path)
    atoms, taken = np.zeros(N + 1), set()
    for i, rec in enumerate(_optional(eta_doc, "atoms", list, f"{path}.eta")):
        where = f"{path}.eta.atoms[{i}]"
        node = _index(rec, "node", N + 1, taken, where)
        atoms[node] = _field(rec, "weight", float, where)
    density = _vector(eta_doc.get("density", [0.0] * N), N, f"{path}.eta.density")
    eta = SignedMeasure(grid, atoms=atoms, density=density)
    s_doc = _optional(doc, "s", dict, path)
    s_atoms = _directions(
        _optional(s_doc, "atoms", list, f"{path}.s"), "node", N + 1, f"{path}.s.atoms"
    )
    s_cells = _directions(
        _optional(s_doc, "cells", list, f"{path}.s"), "cell", N, f"{path}.s.cells"
    )
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
    p_atoms, taken = np.zeros((N + 1, dim)), set()
    for i, rec in enumerate(_optional(p_doc, "atoms", list, f"{path}.p")):
        where = f"{path}.p.atoms[{i}]"
        node = _index(rec, "node", N + 1, taken, where)
        p_atoms[node] = _vector(rec.get("jump"), dim, f"{where}.jump")
    p = BVFunction(grid=grid, values=values, atoms=p_atoms)
    return MultiplierSet(
        alpha0=alpha0, lam=lam, eta=eta, s_atoms=s_atoms, s_cells=s_cells, p=p
    )


def _direction_docs(directions: Directions, key: str) -> list[dict]:
    return [
        {key: k, "weights" if w else "vector": row[:size]}
        for k, w, size, row in zip(
            directions.index.tolist(),
            directions.weighted.tolist(),
            directions.size.tolist(),
            directions.values.tolist(),
        )
    ]


def _atom_docs(atoms: np.ndarray, key: str) -> list[dict]:
    """The nonzero entries of ``atoms``, a number or a row per node, in node
    order, each as a record of its node and, under ``key``, the entry."""
    nodes = np.flatnonzero(np.any(atoms.reshape(len(atoms), -1) != 0.0, axis=1))
    return [{"node": k, key: v} for k, v in zip(nodes.tolist(), atoms[nodes].tolist())]


def save_certificate(ms: MultiplierSet, path: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "alpha0": float(ms.alpha0),
        "lambda": ms.lam.tolist(),
        "eta": {
            "atoms": _atom_docs(ms.eta.atoms[:, 0], "weight"),
            "density": ms.eta.density[:, 0].tolist(),
        },
        "s": {
            "atoms": _direction_docs(ms.s_atoms, "node"),
            "cells": _direction_docs(ms.s_cells, "cell"),
        },
        "p": {
            "exterior_left": ms.p.exterior_left.tolist(),
            "values": ms.p.values.tolist(),
            "atoms": _atom_docs(ms.p.atoms, "jump"),
        },
    }
    dump_json(doc, path)


# -- cone families -------------------------------------------------------------


@_collector_paused
def load_cone_family(path: str) -> list[cones_mod.PolyCone]:
    doc = _load_json(path)
    _check_version(doc, path)
    dim = _field(doc, "dim", int, path)
    if dim < 1:
        raise InputError(f"{path}.dim: must be >= 1")
    out = []
    for i, rec in enumerate(_field(doc, "cones", list, path)):
        where = f"{path}.cones[{i}]"
        if not isinstance(rec, dict):
            raise InputError(f"{where}: expected an object")
        gens = _field(rec, "generators", list, where)
        x0 = rec.get("x0")
        out.append(
            cones_mod.PolyCone(
                generators=_matrix(gens, f"{where}.generators", dim),
                open=_field(rec, "open", bool, where) if "open" in rec else True,
                x0=None if x0 is None else _vector(x0, dim, f"{where}.x0"),
            )
        )
    return out

