"""Every chain complex reaches the exact kernels through one dispatch.

The rank kernels and the Smith form may be used only inside
``exact_linalg`` and ``homology.chain_homology``; everything else goes
through ``chain_homology`` or ``exact_linalg.rank_columns``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flagtor"
KERNELS = {"rank_gf2_columns", "rank_mod_p_columns", "rank_rational_columns",
           "snf_columns"}
ALLOWED = {("homology", "chain_homology")}


def _kernel_uses(tree):
    """(top-level function or None, kernel, line) for each use of a kernel."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, fn or child.name)
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else None)
            if name in KERNELS:
                out.append((fn, name, child.lineno))
            visit(child, fn)

    visit(tree, None)
    return out


def test_kernels_are_used_only_by_the_single_dispatch():
    stray, allowed = [], set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        if module == "exact_linalg":
            continue
        for fn, name, line in _kernel_uses(ast.parse(path.read_text())):
            if (module, fn) in ALLOWED:
                allowed.add(name)
            else:
                stray.append(f"{module}.py:{line} {fn}: {name}")
    assert not stray, stray
    assert "snf_columns" in allowed  # the scan did reach chain_homology
