"""Route two of the Tor oracle reads nothing from the sweep.

``check-all`` compares the squarefree Tor read off the Hochster sweep
(route one) with the homology of the Koszul slices (route two).  The
comparison checks something only while route two is computed without
the sweep, so the slice functions, and the functions of ``pontryagin``
they call, may name neither ``hochster`` nor its per-subset profiles.
"""

import ast
from pathlib import Path

PONTRYAGIN = Path(__file__).resolve().parent.parent / "src" / "flagtor" / "pontryagin.py"
ROUTE_TWO = ("koszul_slice", "tor_via_koszul_complex")
BANNED = {"hochster", "subcomplex_profiles", "profile_for_subset"}


def _names(node):
    """Every bare name and attribute name that node's code refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_koszul_route_names_nothing_of_the_sweep():
    tree = ast.parse(PONTRYAGIN.read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    assert set(ROUTE_TWO) <= set(functions)  # the scan saw both
    seen, todo, offences = set(), list(ROUTE_TWO), []
    while todo:  # follow calls to the module's own functions
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        names = _names(functions[name])
        offences += [f"{name} names {bad}" for bad in sorted(names & BANNED)]
        todo += [n for n in names if n in functions and n != name]
    assert "chain_homology" in set().union(*(_names(functions[n]) for n in seen))
    assert not offences, offences
