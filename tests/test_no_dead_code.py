"""No library code that only tests run.

Every top-level function and class of ``src/lmpkit`` must be referenced as
code (a name or an attribute, outside its own definition) somewhere in
``src/lmpkit``, ``scripts/`` or ``perfbench/``; every method and property of
its classes (dunder methods aside, which Python calls itself) must be
referenced there as an attribute, since a bare name of the same spelling is
some other variable.  References from tests do not count, and neither do
docstrings.  The span table ``_SPANS`` of ``perfbench/spans.py`` names the
functions it wraps by string, so its strings count as references.
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


def _references(node: ast.AST) -> tuple[Counter, Counter]:
    """Bare names, and attributes, read or written anywhere under ``node``."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
    return names, attributes


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
    """(dotted name, whether it is a method, references inside its own
    definition) of the top-level functions and classes of a module and of
    the methods of its classes; a method's references are attributes."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        names, attributes = _references(node)
        yield f"{module}.{node.name}", False, (names + attributes)[node.name]
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    own = _references(sub)[1][sub.name]
                    yield f"{module}.{node.name}.{sub.name}", True, own


def test_every_library_definition_is_referenced_by_the_program():
    names, members = Counter(), Counter()  # members: attributes and span strings
    definitions = []  # (module.name, is a method, references inside its own definition)
    for path in sorted(p for pattern in PROGRAM for p in ROOT.glob(pattern)):
        tree = ast.parse(path.read_text(), str(path))
        bare, attributes = _references(tree)
        names += bare
        members += attributes + _span_table(tree)
        if path.parent.name == "lmpkit":
            definitions.extend(_definitions(tree, path.stem))
    assert len(definitions) > 100  # the glob found the package
    used = names + members
    unused = [
        name for name, method, own in definitions
        if (members if method else used)[name.rsplit(".", 1)[1]] <= own
        and name not in ALLOWED
    ]
    assert unused == []
