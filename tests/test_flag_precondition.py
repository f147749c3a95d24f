"""Every flag-only result checks its input through one precondition.

``complexes.require_flag`` is the one place that raises ``NotFlagError``,
and each flag-only function calls it first, naming itself.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import pytest

from flagtor import complexes as C
from flagtor import homology as H
from flagtor import lscat, pontryagin, series
from flagtor.complexes import NotFlagError

SRC = Path(__file__).resolve().parent.parent / "src" / "flagtor"

# the flag-only functions, each with its arguments past K
FLAG_ONLY = [
    (lscat.cat_zk, ()),
    (lscat.toomer, (H.RATIONALS,)),
    (lscat.cup_witness_search, ()),
    (pontryagin.tor_via_subcomplexes, (H.RATIONALS,)),
    (pontryagin.tor_for_subset, (0b111, H.RATIONALS)),
    (pontryagin.tor_via_koszul_complex, (H.RATIONALS, (1, 1, 1))),
    (pontryagin.squarefree_slice_ids, ([0b111],)),
    (pontryagin.slice_ids, ([(2, 1, 0)],)),
    (pontryagin.milnor_moore_check, (H.RATIONALS,)),
    (series.poincare_ozk, (4,)),
    (series.poincare_ozk_t, (4,)),
    (series.panov_ray_check, ()),
    (series.homotopy_ranks, (4,)),
    (series.chi_inequality, ((1, 1, 1),)),
]


def _what(fn):
    """The name a flag-only function gives itself: <module>.<function>."""
    return f"{fn.__module__.removeprefix('flagtor.')}.{fn.__name__}"


@pytest.mark.parametrize("fn, args", FLAG_ONLY, ids=[_what(fn) for fn, _ in FLAG_ONLY])
def test_each_flag_only_function_names_itself_on_non_flag_input(fn, args):
    with pytest.raises(NotFlagError, match=f"^{_what(fn)} needs a flag complex$"):
        fn(C.simplex_boundary(3), *args)


@pytest.mark.parametrize("fn", [fn for fn, _ in FLAG_ONLY],
                         ids=[_what(fn) for fn, _ in FLAG_ONLY])
def test_each_flag_only_function_checks_its_input_first(fn):
    node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    first = node.body[1 if ast.get_docstring(node) else 0]
    assert ast.unparse(first) == f"require_flag(K, {_what(fn)!r})"


def _not_flag_raises(tree):
    """(top-level function or None, line) for each raise of NotFlagError."""
    out = []
    for top in tree.body:
        fn = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = (exc.id if isinstance(exc, ast.Name)
                    else exc.attr if isinstance(exc, ast.Attribute) else None)
            if name == "NotFlagError":
                out.append((fn, node.lineno))
    return out


def test_only_require_flag_raises_not_flag_error():
    raises = {}
    for path in sorted(SRC.glob("*.py")):
        for fn, line in _not_flag_raises(ast.parse(path.read_text())):
            raises.setdefault((path.stem, fn), []).append(line)
    assert list(raises) == [("complexes", "require_flag")], raises
