"""No library code that only tests run.

Every top-level function and class of ``src/lmpkit``, and every method and
property of its classes (dunder methods aside, which Python calls itself),
must be referenced as code (a name or an attribute, outside its own
definition) somewhere in ``src/lmpkit``, ``scripts/`` or ``perfbench/``.  References from tests do not
count, and neither do docstrings.  The span table ``_SPANS`` of
``perfbench/spans.py`` names the functions it wraps by string, so its strings
count as references.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src/lmpkit/*.py", "scripts/*.py", "perfbench/*.py")

# No command runs lmp.merge_state_constraint, yet acceptance criterion 9
# (tests/test_acceptance.py) checks the pure-state-constraint reduction
# through it: the reduction is part of what the library offers.
ALLOWED = {"lmp.merge_state_constraint"}


def _references(node: ast.AST) -> Counter:
    """Names and attributes read or written anywhere under ``node``."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _span_table(tree: ast.Module) -> Counter:
    """The strings of the ``_SPANS`` assignment."""
    return Counter(
        sub.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_SPANS" for t in node.targets)
        for sub in ast.walk(node.value)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    )


def _definitions(tree: ast.Module, module: str):
    """(dotted name, references inside its own definition) of the top-level
    functions and classes of a module and of the methods of its classes."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", _references(node)[node.name]
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{module}.{node.name}.{sub.name}", _references(sub)[sub.name]


def test_every_library_definition_is_referenced_by_the_program():
    used = Counter()
    definitions = []  # (module.name, references inside its own definition)
    for path in sorted(p for pattern in PROGRAM for p in ROOT.glob(pattern)):
        tree = ast.parse(path.read_text(), str(path))
        used += _references(tree) + _span_table(tree)
        if path.parent.name == "lmpkit":
            definitions.extend(_definitions(tree, path.stem))
    assert len(definitions) > 100  # the glob found the package
    unused = [
        name for name, own in definitions
        if used[name.rsplit(".", 1)[1]] <= own and name not in ALLOWED
    ]
    assert unused == []
