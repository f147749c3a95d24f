"""Route two of the Tor oracle reads nothing from the sweep.

``check-all`` compares the squarefree Tor read off the Hochster sweep
(route one) with the homology of the Koszul slices (route two).  The
comparison checks something only while route two is computed without
the sweep, so the slice functions of ``pontryagin`` (whose readers keep
each slice's integral homology in K's memo), the non-squarefree check of
``checks``, the universal-coefficient reading of ``homology`` that the
reader applies over every ring, and the functions and methods of their
own module that they call, may name neither ``hochster`` nor its
per-subset profiles.  The squarefree oracle of ``checks`` compares the two
routes, and reads the slices through ``pontryagin``'s readers alone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flagtor"
ROUTE_TWO = {
    "pontryagin.py": ("koszul_slice", "tor_via_koszul_complex", "squarefree_slice_ids"),
    "checks.py": ("_tor_vanishes_off_squarefree",),
    "homology.py": ("over",),
}
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


def _scan(module, roots):
    """The names that roots, and the module's functions they call, refer
    to; and every banned one among them."""
    tree = ast.parse((SRC / module).read_text())
    defs = [node for top in tree.body
            for node in (top.body if isinstance(top, ast.ClassDef) else [top])]
    functions = {node.name: node for node in defs if isinstance(node, ast.FunctionDef)}
    assert set(roots) <= set(functions)  # the scan saw every root
    seen, todo, named, offences = set(), list(roots), set(), []
    while todo:  # follow calls to the module's own functions
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        names = _names(functions[name])
        named |= names
        offences += [f"{module}: {name} names {bad}" for bad in sorted(names & BANNED)]
        todo += [n for n in names if n in functions and n != name]
    return named, offences


def test_koszul_route_names_nothing_of_the_sweep():
    named, offences = _scan("pontryagin.py", ROUTE_TWO["pontryagin.py"])
    assert "chain_homology" in named
    assert {"tables", "koszul_slice", "over"} <= named  # the reader
    # the shape key that shares one slice among the beta of a shape, so
    # its names are checked too
    assert {"shape", "_eliminate"} <= named
    assert not offences, offences


def test_slice_table_names_nothing_of_the_sweep():
    named, offences = _scan("checks.py", ROUTE_TWO["checks.py"])
    assert "tor_via_koszul_complex" in named  # the one slice reader
    assert not {"koszul_slice", "chain_homology", "over", "tables"} & named  # reads only
    assert not offences, offences


def test_the_oracle_reads_slices_only_through_pontryagin():
    named, _ = _scan("checks.py", ("_tor_matches_koszul_slices",))
    assert "squarefree_slice_ids" in named  # the grouped reader
    assert not {"koszul_slice", "chain_homology", "over", "tables", "KoszulSlices"} & named


def test_the_universal_coefficient_reading_names_nothing_of_the_sweep():
    named, offences = _scan("homology.py", ROUTE_TWO["homology.py"])
    assert {"ranks", "torsion", "HomologyProfile"} <= named  # one profile in, one out
    assert not offences, offences
