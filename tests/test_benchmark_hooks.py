"""The names of lmpkit that the benchmark's span tracer wraps or reads.

``perfbench/spans.py`` wraps functions by name with ``getattr``, so a
renamed or deleted one crashes every traced benchmark run.  The module is
loaded by path here and never installed.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import lmpkit
from lmpkit.lmp import Report
from lmpkit.problem import ProblemDef, builtin_example
from lmpkit.recovery import build_program
from lmpkit.samples import Samples

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    spans = load_spans()
    assert spans._SPANS
    for module, attr, _ in spans._SPANS:
        mod = importlib.import_module(f"lmpkit.{module}")
        assert callable(getattr(mod, attr)), f"lmpkit.{module}.{attr}"


def test_every_traced_table_is_a_cached_property():
    for attr in load_spans()._TABLES:
        assert isinstance(ProblemDef.__dict__.get(attr), functools.cached_property), attr


def test_directly_wrapped_names_exist():
    assert callable(lmpkit.recovery.solve)
    assert callable(lmpkit.expr.evaluate)
    assert callable(Report.to_json_dict)
    assert callable(Report.to_text)


def test_the_solve_wrapper_reads_the_program_sizes():
    problem, trajectory, _ = builtin_example("ex1", ncells=20)
    program = build_program(Samples(problem, trajectory))
    assert program.M.nbytes > 0
    assert program.A_L.nbytes > 0
    assert program.nvars > 0
