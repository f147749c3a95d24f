"""The Koszul-slice Tor oracle and the Milnor-Moore check of ``check_all``."""

import random

from flagtor import checks
from flagtor import complexes as C
from flagtor import hochster as Ho
from flagtor import homology as H
from flagtor import pontryagin as P

from _fixtures import rp2_flag12


def _count_squarefree_slices(monkeypatch):
    Ho.clear_cache()  # an earlier test may have filled K's slice table
    seen = []
    koszul_slice = P.koszul_slice

    def counted(K, beta):
        if max(beta, default=0) <= 1:
            seen.append(C.mask_of(i + 1 for i, b in enumerate(beta) if b))
        return koszul_slice(K, beta)

    monkeypatch.setattr(P, "koszul_slice", counted)
    return seen


def test_check_all_over_z_builds_each_squarefree_slice_once(monkeypatch):
    K = C.random_flag(7, 0.5, 5)
    seen = _count_squarefree_slices(monkeypatch)
    results = checks.check_all(K, H.INTEGERS, 8)
    assert all(ok for _, ok, _ in results)
    assert sorted(seen) == list(range(1 << K.m))
    names = [name for name, _, _ in results]
    assert names.index("milnor-moore-collapse-Q") < names.index("tor-oracle-squarefree-Q")


def test_check_alls_on_one_complex_build_each_squarefree_slice_once(monkeypatch):
    K = C.random_flag(7, 0.5, 5)
    seen = _count_squarefree_slices(monkeypatch)
    # the second K is equal, not identical, as when each run reads a file
    copy = C.from_facets(K.m, [list(f) for f in K.facet_lists()])
    for L, coeff in ((K, H.RATIONALS), (copy, H.INTEGERS)):
        assert all(ok for _, ok, _ in checks.check_all(L, coeff, 8))
    assert sorted(seen) == list(range(1 << K.m))


def test_a_built_slice_is_eliminated_on_every_call(monkeypatch):
    K = C.cycle_complex(5)
    masks = {H.RATIONALS: range(1 << K.m), H.GF(2): [K.full_mask]}
    # builds the table and both sweeps
    assert checks._tor_matches_koszul_slices(K, masks) == \
        {H.RATIONALS: (True, 12), H.GF(2): (True, 1)}
    # a wrong elimination on the warm table must still be seen
    chain_homology = H.chain_homology
    calls = []

    def off_by_one(dims, matrices, coeff, known=None):
        calls.append(coeff)
        prof = chain_homology(dims, matrices, coeff, known)
        return H.HomologyProfile({n: r + 1 for n, r in prof.ranks.items()},
                                 prof.torsion)

    monkeypatch.setattr(H, "chain_homology", off_by_one)
    oracle = checks._tor_matches_koszul_slices(K, masks)
    assert [ok for ok, _ in oracle.values()] == [False, False]
    assert len(calls) == (1 << K.m) + 1


def test_non_squarefree_slices_are_shared_and_eliminated_on_every_call(monkeypatch):
    K = C.random_flag(7, 0.5, 5)
    Ho.clear_cache()
    built = []
    koszul_slice = P.koszul_slice
    monkeypatch.setattr(P, "koszul_slice",
                        lambda K, beta: built.append(beta) or koszul_slice(K, beta))
    assert checks._tor_vanishes_off_squarefree(K, H.RATIONALS, 8, random.Random(1))
    assert built and len(set(built)) == len(built)
    # a second ring draws the same beta and builds nothing
    n = len(built)
    assert checks._tor_vanishes_off_squarefree(K, H.GF(3), 8, random.Random(1))
    assert len(built) == n
    # a wrong elimination on the warm table must still be seen
    monkeypatch.setattr(H, "chain_homology", lambda *args: H.HomologyProfile({0: 1}, {}))
    assert not checks._tor_vanishes_off_squarefree(K, H.GF(3), 8, random.Random(1))


def test_oracle_runs_each_field_on_its_own_subsets():
    K = rp2_flag12()
    full = K.full_mask
    oracle = checks._tor_matches_koszul_slices(
        K, {H.RATIONALS: [full], H.GF(2): [0, full]})
    # RP^2 has no rational homology and one F2 class in degrees 1 and 2
    assert oracle == {H.RATIONALS: (True, 0), H.GF(2): (True, 3)}


def test_milnor_moore_takes_e2_from_the_slices_at_small_m(monkeypatch):
    K = C.random_flag(8, 0.4, 2)
    tables = []
    tor_via_subcomplexes = P.tor_via_subcomplexes
    monkeypatch.setattr(P, "tor_via_subcomplexes",
                        lambda *args: tables.append(args) or tor_via_subcomplexes(*args))
    oracle = checks._tor_matches_koszul_slices
    monkeypatch.setattr(checks, "_tor_matches_koszul_slices", lambda K, masks: {
        ring: (ok, total + 1) for ring, (ok, total) in oracle(K, masks).items()})
    results = {name: (ok, detail)
               for name, ok, detail in checks.check_all(K, H.RATIONALS, 8)}
    ok, detail = results["milnor-moore-collapse-Q"]
    e2 = sum(tor_via_subcomplexes(K, H.RATIONALS).totals_rank.values())
    assert not ok and detail.startswith(f"E2 {e2 + 1} vs Einf ")
    assert tables == []


def test_milnor_moore_detail_is_the_same_by_either_route():
    K = C.random_flag(9, 0.5, 3)
    every = range(1 << K.m)
    for ring in (H.RATIONALS, H.GF(2)):
        ok, total = checks._tor_matches_koszul_slices(K, {ring: every})[ring]
        assert ok
        assert P.milnor_moore_check(K, ring, e2_total=total) == \
            P.milnor_moore_check(K, ring)
