"""Every table computed from K's full subcomplexes has one owner.

``complexes.tables(K)`` holds them all, and ``hochster.clear_cache``
empties it.  One rule bounds their life: the memo holds the complex
asked for last and the complexes derived from it (``complexes.derived``,
such as the flagification that ``lscat.cat_lower_bound`` sweeps), and
asking for any other complex drops them all.  The geometry and the
category by links live there too; the links themselves are throwaway
complexes and keep nothing.  ``cli.build_parser`` holds no complex.
Anywhere else in ``src/flagtor`` an ``lru_cache`` or ``cache`` decorator,
or an empty dict at module level, would be a second lifetime that the
one clear does not reach.
"""

import ast
import gc
import weakref
from pathlib import Path

import pytest

from flagtor import checks, cli, rows
from flagtor import complexes as C
from flagtor import exact_linalg as E
from flagtor import hochster as Ho
from flagtor import homology as H
from flagtor import lscat as L
from flagtor import pontryagin as P
from flagtor import series as S

SRC = Path(__file__).resolve().parent.parent / "src" / "flagtor"
ALLOWED = {("complexes", "_HELD"), ("cli", "build_parser")}
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


@pytest.fixture
def collector_off():
    """Tables must be freed by reference counting alone."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def test_sweeping_another_complex_frees_the_stores(collector_off):
    K1, K2 = C.random_flag(9, 0.4, 1), C.random_flag(9, 0.4, 2)
    Ho.clear_cache()
    stores = [weakref.ref(Ho.subcomplex_profiles(K1, ring))
              for ring in (H.INTEGERS, H.GF(2))]
    assert all(ref() is not None for ref in stores)
    Ho.subcomplex_profiles(K2, H.INTEGERS)
    assert all(ref() is None for ref in stores)
    assert not Ho._cache_for(K1, H.INTEGERS)  # K1 sweeps anew


def _count_sweeps(monkeypatch):
    runs = []
    run = Ho._Sweep.run
    monkeypatch.setattr(Ho._Sweep, "run", lambda sweep: runs.append(sweep.geo) or run(sweep))
    return runs


@pytest.mark.parametrize("name", ["boundary:3+cycle:4", "rp2"])
def test_two_category_reports_on_a_non_flag_complex_sweep_it_and_its_flagification_once(
        monkeypatch, name):
    K = cli.corpus(name)
    Ho.clear_cache()
    runs = _count_sweeps(monkeypatch)
    first = L.cat_report(K)
    assert not first["is_flag"]
    assert L.cat_report(K) == first
    Kf = C.tables(K)["flagification"]
    assert runs == [H.geometry(K), H.geometry(Kf)]


def test_the_lower_bound_of_a_flag_complex_holds_no_second_complex(monkeypatch):
    K = C.random_flag(8, 0.5, 2)
    Ho.clear_cache()
    runs = _count_sweeps(monkeypatch)
    assert L.cat_lower_bound(K) == L.cat_zk(K)
    assert list(C._HELD) == [K]
    assert C.tables(K)["flagification"] is K
    assert runs == [H.geometry(K)]


def _weak_stores_of_a_complex_and_its_flagification():
    """Weak references to Kf and to the integral stores of K and Kf, for
    a non-flag K whose category report has been computed."""
    K = cli.corpus("boundary:3+cycle:4")
    Ho.clear_cache()
    L.cat_report(K)
    Kf = C.tables(K)["flagification"]
    assert list(C._HELD) == [K, Kf]
    return [weakref.ref(Kf)] + [weakref.ref(C.tables(X)[("store", H.INTEGERS)])
                                for X in (K, Kf)]


@pytest.mark.parametrize("drop", [lambda: C.tables(C.cycle_complex(5)), Ho.clear_cache],
                         ids=["another complex", "clear_cache"])
def test_a_derived_complex_and_its_store_go_with_the_tables_of_K(collector_off, drop):
    refs = _weak_stores_of_a_complex_and_its_flagification()
    assert all(ref() is not None for ref in refs)
    drop()
    assert all(ref() is None for ref in refs)


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


def _tables_calls(node, where):
    """The innermost function around each call of ``tables(...)`` in node."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _called_name(child) == "tables":
            out.append(where)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else where
        out += _tables_calls(child, inner)
    return out


def test_every_table_is_filled_through_memo():
    # outside complexes, only the two lookups that must not build read
    # K's dict itself
    calls = sorted((path.stem, where) for path in SRC.glob("*.py") if path.stem != "complexes"
                   for where in _tables_calls(ast.parse(path.read_text()), "<module>"))
    assert calls == [("hochster", "profile_for_subset"), ("hochster", "subcomplex_profiles")]


def test_the_two_lookups_build_no_table():
    K = C.random_flag(8, 0.5, 2)
    Ho.clear_cache()
    Ho.profile_for_subset(K, 0b1011, H.INTEGERS)
    assert list(C.tables(K)) == ["geometry"]  # the elimination's, and no store
    Ho.subcomplex_profiles(K, H.GF(2))
    stores = [key for key in C.tables(K) if key[0] in ("store", "derived store")]
    assert stores == [("store", H.GF(2))]  # no integral store, no derived one


HOCHSTER_TABLES = (Ho.zk_homology, Ho.rk_homology, Ho.zk_cohomology, Ho.rk_cohomology)


def test_each_hochster_table_is_assembled_once(monkeypatch):
    K = cli.corpus("rp2*cycle:5")
    assembled = []
    assemble = Ho._assemble
    monkeypatch.setattr(Ho, "_assemble",
                        lambda *args, **kwargs: assembled.append(args)
                        or assemble(*args, **kwargs))
    first = [table(K, H.INTEGERS) for table in HOCHSTER_TABLES]
    assert len(assembled) == 4
    again = [table(K, H.INTEGERS) for table in HOCHSTER_TABLES]
    assert len(assembled) == 4
    assert all(a is b for a, b in zip(first, again))


def test_sweep_stores_and_koszul_slices_intern_through_one_method(monkeypatch):
    K = C.random_flag(7, 0.5, 3)
    interned = []
    intern = H.Profiles.intern
    monkeypatch.setattr(H.Profiles, "intern",
                        lambda table, prof: interned.append(type(table)) or intern(table, prof))
    Ho.subcomplex_profiles(K, H.INTEGERS)
    assert set(interned) == {Ho._Store}
    P.tor_via_koszul_complex(K, H.RATIONALS, (1,) * K.m)
    assert set(interned) == {Ho._Store, P.KoszulSlices}


def _cyclic_garbage(call):
    """What call leaves for the cyclic collector, counted with it stopped."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_cobar_words_partitions_and_row_texts_leave_no_cycle():
    K = C.cycle_complex(4)
    assert _cyclic_garbage(lambda: P.cobar_slice(K, (2, 1, 1, 0))) == 0
    assert _cyclic_garbage(lambda: list(L._partitions([1, 2, 3, 4, 5], 2))) == 0
    assert _cyclic_garbage(lambda: rows.SUMMAND.text(1, 5)) == 0
