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


def test_a_slice_is_eliminated_over_z_once_and_read_over_every_field(monkeypatch):
    K = C.cycle_complex(5)
    masks = {H.RATIONALS: range(1 << K.m), H.GF(2): [K.full_mask]}
    verdict = {H.RATIONALS: (True, 12), H.GF(2): (True, 1)}
    chain_homology = H.chain_homology
    calls = []
    monkeypatch.setattr(H, "chain_homology", lambda *args: calls.append(args[2])
                        or chain_homology(*args))
    # builds the table and both sweeps, which eliminate over the fields
    assert checks._tor_matches_koszul_slices(K, masks) == verdict
    assert calls.count(H.INTEGERS) == 1 << K.m
    # a warm table eliminates nothing, over any ring
    calls.clear()
    assert checks._tor_matches_koszul_slices(K, masks) == verdict
    assert calls == []
    # a wrong universal-coefficient reading of the warm table must be seen
    over = H.HomologyProfile.over
    monkeypatch.setattr(H.HomologyProfile, "over", lambda prof, coeff: H.HomologyProfile(
        {n: r + 1 for n, r in over(prof, coeff).ranks.items()}))
    oracle = checks._tor_matches_koszul_slices(K, masks)
    assert [ok for ok, _ in oracle.values()] == [False, False]
    assert calls == []


def test_non_squarefree_slices_are_shared_and_eliminated_once(monkeypatch):
    K = C.random_flag(7, 0.5, 5)
    built, eliminated = [], []
    koszul_slice, chain_homology = P.koszul_slice, H.chain_homology
    monkeypatch.setattr(P, "koszul_slice",
                        lambda K, beta: built.append(beta) or koszul_slice(K, beta))
    monkeypatch.setattr(H, "chain_homology",
                        lambda *args: eliminated.append(args[2]) or chain_homology(*args))
    assert checks._tor_vanishes_off_squarefree(K, H.RATIONALS, 8, random.Random(1))
    assert built and len(set(built)) == len(built)
    assert eliminated == [H.INTEGERS] * len(built)
    # a second ring draws the same beta, and builds and eliminates nothing
    n = len(built)
    assert checks._tor_vanishes_off_squarefree(K, H.GF(3), 8, random.Random(1))
    assert len(built) == len(eliminated) == n
    # a wrong universal-coefficient reading of the warm table must be seen
    monkeypatch.setattr(H.HomologyProfile, "over",
                        lambda prof, coeff: H.HomologyProfile({0: 1}))
    assert not checks._tor_vanishes_off_squarefree(K, H.GF(3), 8, random.Random(1))
    assert len(built) == len(eliminated) == n


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
