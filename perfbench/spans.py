"""In-memory span tracing for the benchmark's traced run.

``install`` wraps lmpkit's public functions from outside the package: each
wrapped call records a span (name, start, end, parent span, op id) in
memory.  Where a caller imported a name directly, the wrapper goes on that
caller's copy of the name.  ``expr.evaluate`` runs too often for one span
per call, so it is a leaf counter: its calls and time are charged to the
innermost open span and totalled per op.  A layer's self time is its span's
duration minus the time of its child spans and leaf calls.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (module, attribute, span name)
_SPANS = (
    ("io", "load_problem", "io.load"),
    ("io", "load_trajectory", "io.load"),
    ("io", "load_certificate", "io.load"),
    ("io", "save_certificate", "io.save"),
    ("cli", "_emit_report", "io.save"),
    ("cli", "check_certificate", "lmp.check_certificate"),
    ("lmp", "dynamics_defect", "problem.dynamics_defect"),
    ("lmp", "check_signs_slackness", "lmp.check_signs_slackness"),
    ("lmp", "check_jump_inclusion", "lmp.check_jump_inclusion"),
    ("lmp", "check_adjoint", "lmp.check_adjoint"),
    ("lmp", "check_stationarity", "lmp.check_stationarity"),
    ("geometry", "contact_set", "geometry.contact_set"),
    ("geometry", "jump_directions_at_node", "geometry.jump_directions"),
    ("geometry", "jump_directions_at_cell_mid", "geometry.jump_directions"),
    ("geometry", "dist_to_convex_hull", "geometry.dist_to_convex_hull"),
    ("recovery", "build_program", "recovery.build_program"),
    ("recovery", "cross_validate", "recovery.cross_validate"),
    ("cones", "intersection_nonempty", "cones.intersection_nonempty"),
    ("cones", "approx_separate", "cones.approx_separate"),
    ("cones", "solve_standard_form", "lp.solve_standard_form"),
)
_TABLES = ("f_x", "f_u", "G_x", "G_u", "J_x0", "J_x1")


class Tracer:
    """Spans of the ops run between ``begin_op`` and ``end_op``."""

    def __init__(self):
        self.records: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self.sizes: dict[str, float] = {}  # name -> largest value over the ops
        self.nops = 0
        self._stack: list[dict] = []
        self._next_id = 0
        self._op = -1

    def begin_op(self, label: str) -> None:
        self._op += 1
        self._open("op", label=label)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self.nops += 1

    @property
    def active(self) -> bool:
        """Calls made outside an op (set-up, final checks) are not traced."""
        return bool(self._stack)

    def _open(self, name: str, **extra) -> dict:
        rec = {
            "op": self._op,
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": perf_counter(),
            "end": None,
            "child_s": 0.0,
            **extra,
        }
        self._next_id += 1
        self._stack.append(rec)
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        popped = self._stack.pop()
        if popped is not rec:
            raise RuntimeError(f"span {rec['name']} closed out of order")
        duration = rec["end"] - rec["start"]
        if self._stack:
            self._stack[-1]["child_s"] += duration
        total = self.totals.setdefault(rec["name"], [0, 0.0])
        total[0] += 1
        total[1] += duration - rec["child_s"]
        self.records.append(rec)

    def _leaf(self, name: str, seconds: float) -> None:
        parent = self._stack[-1]
        parent["child_s"] += seconds
        leaf = parent.setdefault("leaf", {}).setdefault(name, [0, 0.0])
        leaf[0] += 1
        leaf[1] += seconds
        total = self.totals.setdefault(name, [0, 0.0])
        total[0] += 1
        total[1] += seconds

    def note_size(self, name: str, value: float) -> None:
        self.sizes[name] = max(self.sizes.get(name, value), value)

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf(name, perf_counter() - start)

        return wrapper

    def calls(self, name: str) -> float:
        """Calls per op."""
        return self.totals.get(name, [0, 0.0])[0] / max(self.nops, 1)

    def self_ms(self, name: str) -> float:
        """Self time per op, in ms."""
        return 1e3 * self.totals.get(name, [0, 0.0])[1] / max(self.nops, 1)

    def by_label(self) -> dict:
        """Per op label: op count, mean op time and mean self time of each
        layer, in ms."""
        labels = {r["op"]: r["label"] for r in self.records if r["name"] == "op"}
        out: dict[str, dict] = {}
        for rec in self.records:
            entry = out.setdefault(labels[rec["op"]], {"ops": 0, "op_ms": 0.0, "self_ms": {}})
            duration = rec["end"] - rec["start"]
            if rec["name"] == "op":
                entry["ops"] += 1
                entry["op_ms"] += 1e3 * duration
            layers = entry["self_ms"]
            layers[rec["name"]] = layers.get(rec["name"], 0.0) + 1e3 * (duration - rec["child_s"])
            for name, (_, seconds) in rec.get("leaf", {}).items():
                layers[name] = layers.get(name, 0.0) + 1e3 * seconds
        for entry in out.values():
            entry["op_ms"] /= entry["ops"]
            entry["self_ms"] = {k: v / entry["ops"] for k, v in sorted(entry["self_ms"].items())}
        return dict(sorted(out.items()))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in sorted(self.records, key=lambda r: r["id"]):
                fh.write(json.dumps({k: v for k, v in rec.items() if k != "child_s"}))
                fh.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap lmpkit's layer functions so that every call records a span."""
    import lmpkit.expr
    import lmpkit.lmp
    import lmpkit.recovery
    from lmpkit.problem import ProblemDef

    for module, attr, name in _SPANS:
        mod = importlib.import_module(f"lmpkit.{module}")
        setattr(mod, attr, tracer.span(name, getattr(mod, attr)))

    lmpkit.expr.evaluate = tracer.leaf("expr.evaluate", lmpkit.expr.evaluate)

    report = lmpkit.lmp.Report
    report.to_json_dict = tracer.span("lmp.report", report.to_json_dict)
    report.to_text = tracer.span("lmp.report", report.to_text)

    # derivative tables are cached properties, built on first evaluation
    for attr in _TABLES:
        prop = functools.cached_property(
            tracer.span("problem.tables", ProblemDef.__dict__[attr].func)
        )
        prop.__set_name__(ProblemDef, attr)
        setattr(ProblemDef, attr, prop)

    solve = lmpkit.recovery.solve

    def sized_solve(program, *args, **kwargs):
        result = solve(program, *args, **kwargs)
        if not tracer.active:
            return result
        gram = program.__dict__.get("_gram")
        nbytes = program.M.nbytes + program.A_L.nbytes
        nbytes += gram.nbytes if gram is not None else 0
        tracer.note_size("recovery.unknowns", program.nvars)
        tracer.note_size("recovery.program_mb", nbytes / 1e6)
        return result

    lmpkit.recovery.solve = tracer.span("recovery.solve", sized_solve)
