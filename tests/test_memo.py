"""Every table computed from K's full subcomplexes has one owner.

``complexes.tables(K)`` holds them all, for the last complex asked for,
and ``hochster.clear_cache`` empties it: the geometry and the category
by links live there too, and work on another complex (a link, say)
keeps nothing.  ``cli.build_parser`` holds no complex.
Anywhere else in ``src/flagtor`` an ``lru_cache`` or ``cache`` decorator,
or an empty dict at module level, would be a second lifetime that the
one clear does not reach.
"""

import ast
import gc
import weakref
from pathlib import Path

from flagtor import checks
from flagtor import complexes as C
from flagtor import exact_linalg as E
from flagtor import hochster as Ho
from flagtor import homology as H
from flagtor import lscat as L
from flagtor import pontryagin as P
from flagtor import series as S

SRC = Path(__file__).resolve().parent.parent / "src" / "flagtor"
ALLOWED = {("complexes", "tables"), ("cli", "build_parser")}
MEMO_DECORATORS = {"lru_cache", "cache"}
DICT_FACTORIES = {"dict", "defaultdict", "OrderedDict"}


def _called_name(node):
    """The name of a decorator or factory, with or without its call."""
    if isinstance(node, ast.Call):
        node = node.func
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _is_empty_dict(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    return isinstance(node, ast.Call) and _called_name(node) in DICT_FACTORIES \
        and not node.keywords and len(node.args) <= (_called_name(node) == "defaultdict")


def _memos(tree):
    """(name, line) of every memoized function and every empty dict
    assigned at module level."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _called_name(d) in MEMO_DECORATORS for d in node.decorator_list):
            out.append((node.name, node.lineno))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                and _is_empty_dict(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(ast.unparse(t), node.lineno) for t in targets]
    return out


def test_per_complex_tables_have_one_owner():
    stray, allowed = [], set()
    for path in sorted(SRC.glob("*.py")):
        for name, line in _memos(ast.parse(path.read_text())):
            if (path.stem, name) in ALLOWED:
                allowed.add((path.stem, name))
            else:
                stray.append(f"{path.stem}.py:{line} {name}")
    assert not stray, stray
    assert allowed == ALLOWED  # the scan did reach each allowed memo


def _count_builds(monkeypatch):
    """Wrap the builder of every table in K's memo; count calls by name."""
    builds = {}
    for owner, name in ((C, "_is_flag"), (C, "_chi_subcomplexes"),
                        (S, "_euler_denominator_t"), (S.MultiSeries, "inverse"),
                        (S, "_homotopy_ranks"), (P, "koszul_slice"),
                        (P, "cobar_slice"), (Ho._Sweep, "run"),
                        (L, "_cat_via_links"), (checks, "_run_ring_free_checks")):
        fn = getattr(owner, name)
        builds[name] = 0

        def counted(*args, fn=fn, name=name):
            builds[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)
    return builds


def _use_every_table(K):
    """Read the flag bit, chi~, the denominator, F, the ranks, the
    ring-free checks, one Koszul slice, one cobar slice, the rational
    store, the geometry and the category by links of K."""
    assert C.is_flag(K)
    S.euler_denominator_t(K)
    S.poincare_ozk(K, 6)
    S.homotopy_ranks(K, 6)
    head, tail, _ = checks._ring_free_checks(K, 6)
    assert all(ok for _, ok, _ in head + tail)
    assert checks._tor_matches_koszul_slices(K, {H.RATIONALS: [K.full_mask]}) \
        [H.RATIONALS][0]
    assert P.cobar_ext(K, H.RATIONALS, (1, 1) + (0,) * (K.m - 2))
    assert L.cat_via_links(K) >= 1
    assert H.geometry(K) is C.tables(K)["geometry"]


def test_clear_cache_forces_every_table_to_be_rebuilt(monkeypatch):
    K = C.random_flag(7, 0.5, 3)
    Ho.clear_cache()
    builds = _count_builds(monkeypatch)
    _use_every_table(K)
    _use_every_table(K)
    assert set(builds.values()) == {1}, builds
    Ho.clear_cache()
    _use_every_table(K)
    assert set(builds.values()) == {2}, builds


def test_an_equal_copy_shares_the_tables(monkeypatch):
    K = C.random_flag(7, 0.5, 3)
    Ho.clear_cache()
    builds = _count_builds(monkeypatch)
    _use_every_table(K)
    copy = C.from_facets(K.m, [list(f) for f in K.facet_lists()])
    assert copy is not K and C.tables(copy) is C.tables(K)
    _use_every_table(copy)
    assert set(builds.values()) == {1}, builds


def test_sweeping_another_complex_frees_the_stores():
    K1, K2 = C.random_flag(9, 0.4, 1), C.random_flag(9, 0.4, 2)
    Ho.clear_cache()
    stores = [weakref.ref(Ho.subcomplex_profiles(K1, ring))
              for ring in (H.INTEGERS, H.GF(2))]
    assert all(ref() is not None for ref in stores)
    Ho.subcomplex_profiles(K2, H.INTEGERS)
    gc.collect()  # a finished sweep and its table of pairs form a cycle
    assert all(ref() is None for ref in stores)
    assert not Ho._cache_for(K1, H.INTEGERS)  # K1 sweeps anew


def test_the_category_by_links_keeps_the_tables_of_K():
    K = C.random_flag(8, 0.5, 2)
    Ho.clear_cache()
    held = C.tables(K)
    store = Ho.subcomplex_profiles(K, H.INTEGERS)
    assert L.cat_via_links(K) == 1 + L.max_subcomplex_cdim(K)
    # the links are eliminated without a memo of their own
    assert C.tables(K) is held
    assert held[("store", H.INTEGERS)] is store
    assert "cat via links" in held


def test_a_second_check_all_walks_no_link(monkeypatch):
    K = C.random_flag(8, 0.5, 2)
    Ho.clear_cache()
    walked = []
    link = L.link
    monkeypatch.setattr(L, "link", lambda *args: walked.append(args) or link(*args))
    assert all(ok for _, ok, _ in checks.check_all(K, H.RATIONALS, 8))
    assert walked
    walked.clear()
    assert all(ok for _, ok, _ in checks.check_all(K, H.GF(2), 8))
    assert walked == []


RING_FREE_ROUTES = ((S, "pbw_reconstruct"), (P, "normal_word_counts"),
                    (checks, "_links_are_full_subcomplexes"), (C, "nu_filtration"))


def test_a_second_check_all_runs_no_ring_free_check(monkeypatch):
    K = C.random_flag(7, 0.5, 3)
    copy = C.from_facets(K.m, [list(f) for f in K.facet_lists()])
    Ho.clear_cache()
    called = []
    for owner, name in RING_FREE_ROUTES:
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, fn=fn, name=name: called.append(name) or fn(*args))
    every = sorted(name for _, name in RING_FREE_ROUTES)

    def run(K, ring, trunc):
        called.clear()
        result = checks.check_all(K, ring, trunc)
        assert all(ok for _, ok, _ in result)
        return sorted(set(called))

    assert run(K, H.RATIONALS, 8) == every
    # other rings, on K and on an equal copy, read the held verdicts
    assert run(K, H.GF(2), 8) == []
    assert run(copy, H.GF(3), 8) == []
    assert run(copy, H.INTEGERS, 8) == []
    # another truncation is another entry of the memo
    assert run(K, H.GF(2), 6) == every
    assert run(K, H.RATIONALS, 6) == []
    assert run(K, H.RATIONALS, 8) == []
    Ho.clear_cache()
    assert run(K, H.GF(2), 8) == every


def test_a_second_check_all_runs_no_smith_form_self_test(monkeypatch):
    K = C.random_flag(7, 0.5, 3)
    Ho.clear_cache()
    drawn = []
    spot = E.snf_spot_checks
    monkeypatch.setattr(E, "snf_spot_checks", lambda rng: drawn.append(rng) or spot(rng))
    assert checks.check_all(K, H.RATIONALS, 8)[-1] == ("snf-spot-checks", True, "")
    assert len(drawn) == 1
    drawn.clear()
    # another ring on K reads the held verdict
    assert checks.check_all(K, H.GF(2), 8)[-1] == ("snf-spot-checks", True, "")
    assert drawn == []
