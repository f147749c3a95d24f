"""Every function, class and method of the package is named somewhere.

A definition in ``src/flagtor`` that no code in ``src``, ``tests``,
``demos`` or ``perfbench`` names, other than at the definition itself,
is dead: it goes.  A name counts as used where it is read as a name or
attribute, imported, or spelled out in a string that is not a docstring
(``perfbench`` and ``monkeypatch`` look attributes up by string).
Dunder methods are called by the language, so they are left out.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flagtor"
SCANNED = ("src", "tests", "demos", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def _names_used(tree):
    """Every identifier that the tree reads, imports or spells in a string."""
    docs = _docstrings(tree)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return used


def _definitions(tree, module):
    """(qualified name, name) of every non-dunder function, class and method."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((f"{prefix}{name}", name))
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    visit(tree, f"{module}.")
    return out


def test_every_definition_is_named_somewhere():
    used = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _names_used(ast.parse(path.read_text()))
    defined = []
    for path in sorted(SRC.glob("*.py")):
        defined += _definitions(ast.parse(path.read_text()), path.stem)
    assert len(defined) > 100  # the scan did reach the package
    unused = [qualified for qualified, name in defined if name not in used]
    assert not unused, unused
