"""The argument parser holds no verification logic.

Cross-checks live in ``flagtor.checks``; ``cli`` parses, dispatches and
renders.  Random sampling and direct use of the exact kernels are the
marks of check logic, so ``cli.py`` may import neither ``random`` nor
``exact_linalg``.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "flagtor" / "cli.py"
BANNED = {"random", "exact_linalg"}


def _imported_names(tree):
    """(line, dotted name) of every module or name an import statement binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append((node.lineno, node.module or ""))
            out += [(node.lineno, a.name) for a in node.names]
    return out


def test_cli_imports_no_check_logic():
    names = _imported_names(ast.parse(CLI.read_text()))
    assert any(name == "argparse" for _, name in names)  # the scan saw cli
    offences = [f"cli.py:{line} imports {name}" for line, name in names
                if BANNED & set(name.split("."))]
    assert not offences, offences
