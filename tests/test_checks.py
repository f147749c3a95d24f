"""The Koszul-slice Tor oracle and the Milnor-Moore check of ``check_all``."""

import random
from collections import Counter
from itertools import combinations

import pytest

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


def _shapes(K, masks):
    """The distinct squarefree slice shapes among masks: each J's size and
    the edges K induces on J, with J's vertices renumbered 0..|J|-1 in
    order."""
    out = set()
    for J in masks:
        verts = C.verts_of(J)
        out.add((len(verts), frozenset(
            (a, b) for a, b in combinations(range(len(verts)), 2)
            if C.mask_of((verts[a], verts[b])) in K.faces)))
    return out


def _built_once_per_shape(K, seen):
    """Every J built has a shape of its own, and every shape of K is built."""
    shapes = _shapes(K, range(1 << K.m))
    assert len(seen) == len(_shapes(K, seen)) == len(shapes) < 1 << K.m
    return len(shapes)


def test_check_all_over_z_builds_each_squarefree_slice_once(monkeypatch):
    K = C.random_flag(7, 0.5, 5)
    seen = _count_squarefree_slices(monkeypatch)
    results = checks.check_all(K, H.INTEGERS, 8)
    assert all(ok for _, ok, _ in results)
    n = _built_once_per_shape(K, seen)
    names = [name for name, _, _ in results]
    assert names.index("milnor-moore-collapse-Q") < names.index("tor-oracle-squarefree-Q")
    # a warm table builds nothing
    assert checks.check_all(K, H.INTEGERS, 8) == results
    assert len(seen) == n


def test_check_alls_on_one_complex_build_each_squarefree_slice_once(monkeypatch):
    K = C.random_flag(7, 0.5, 5)
    seen = _count_squarefree_slices(monkeypatch)
    # the second K is equal, not identical, as when each run reads a file
    copy = C.from_facets(K.m, [list(f) for f in K.facet_lists()])
    assert all(ok for _, ok, _ in checks.check_all(K, H.RATIONALS, 8))
    n = _built_once_per_shape(K, seen)
    # the second run reads the warm table, and builds nothing
    assert all(ok for _, ok, _ in checks.check_all(copy, H.INTEGERS, 8))
    assert len(seen) == n


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
    # one integral elimination per distinct shape of J
    assert calls.count(H.INTEGERS) == len(_shapes(K, range(1 << K.m))) == 15
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


def _log_slice_work(monkeypatch):
    """Log each slice built, each elimination and each random draw, on an
    empty memo."""
    Ho.clear_cache()
    log = []
    koszul_slice, chain_homology = P.koszul_slice, H.chain_homology
    randrange = random.Random.randrange
    monkeypatch.setattr(P, "koszul_slice", lambda K, beta: log.append(("built", beta))
                        or koszul_slice(K, beta))
    monkeypatch.setattr(H, "chain_homology", lambda *args: log.append(("eliminated", args[2]))
                        or chain_homology(*args))
    monkeypatch.setattr(random.Random, "randrange", lambda rng, *args: log.append(("drawn", args))
                        or randrange(rng, *args))
    return log


def test_non_squarefree_slices_are_shared_and_eliminated_once(monkeypatch):
    K = C.random_flag(7, 0.5, 5)
    log = _log_slice_work(monkeypatch)
    assert checks._tor_vanishes_off_squarefree(K, H.RATIONALS, 8)
    built = [beta for what, beta in log if what == "built"]
    assert built and len(set(built)) == len(built)
    assert [ring for what, ring in log if what == "eliminated"] == [H.INTEGERS] * len(built)
    assert ("drawn", (K.m,)) in log
    # the sample is held as the distinct indices of its slices
    ids, slices = checks._nonsquarefree_sample(K, 8)
    assert ids == sorted(set(ids)) and slices is C.tables(K)["koszul slices"]
    # a second ring draws, builds and eliminates nothing, and reads each
    # distinct slice of the sample over itself once
    log.clear()
    read = []
    over = H.HomologyProfile.over
    monkeypatch.setattr(H.HomologyProfile, "over",
                        lambda prof, coeff: read.append(coeff) or over(prof, coeff))
    assert checks._tor_vanishes_off_squarefree(K, H.GF(3), 8)
    assert log == [] and read == [H.GF(3)] * len(ids)
    # a wrong universal-coefficient reading of the warm table must be seen
    # by a ring not yet read; a ring already read keeps its held verdict
    monkeypatch.setattr(H.HomologyProfile, "over",
                        lambda prof, coeff: H.HomologyProfile({0: 1}))
    assert not checks._tor_vanishes_off_squarefree(K, H.GF(5), 8)
    assert checks._tor_vanishes_off_squarefree(K, H.GF(3), 8)
    assert log == []


def test_the_f2_ring_of_check_all_over_z_reads_the_q_sample(monkeypatch):
    K = C.random_flag(7, 0.5, 5)
    log = _log_slice_work(monkeypatch)
    work = {}  # ring -> the log entries of the non-squarefree check over it
    vanishes = checks._tor_vanishes_off_squarefree

    def logged(K, coeff, trunc):
        start = len(log)
        ok = vanishes(K, coeff, trunc)
        work[coeff] = log[start:]
        return ok

    monkeypatch.setattr(checks, "_tor_vanishes_off_squarefree", logged)
    assert all(ok for _, ok, _ in checks.check_all(K, H.INTEGERS, 8))
    assert {what for what, _ in work[H.RATIONALS]} == {"built", "eliminated", "drawn"}
    assert work[H.GF(2)] == []


def test_check_all_over_each_ring_in_turn_builds_slices_only_first(monkeypatch):
    K = C.random_flag(7, 0.5, 5)
    log = _log_slice_work(monkeypatch)
    built = []
    for ring in (H.RATIONALS, H.GF(2), H.GF(3), H.INTEGERS):
        start = len(log)
        assert all(ok for _, ok, _ in checks.check_all(K, ring, 8))
        built.append(sum(what == "built" for what, _ in log[start:]))
    assert built[0] > 0 and built[1:] == [0, 0, 0]


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


def _per_j_oracle(K, masks_by_ring):
    """The Tor oracle read one J at a time: a reference for the grouped one."""
    out = {}
    for ring, masks in masks_by_ring.items():
        profiles = Ho.subcomplex_profiles(K, ring)
        ok, total = True, 0
        for J in masks:
            beta = tuple((J >> i) & 1 for i in range(K.m))
            slice_h = {n: r for n, (r, _) in
                       P.tor_via_koszul_complex(K, ring, beta).items()}
            total += sum(slice_h.values())
            if slice_h != {d + 1: r for d, r, _ in profiles[J].rows()}:
                ok = False
        out[ring] = ok, total
    return out


FIELDS = (H.RATIONALS, H.GF(2), H.GF(3))


# six flag complexes at m <= 10, and the 12-vertex flag RP^2, whose slices
# carry 2-torsion
ORACLE_INPUTS = {
    "C5": C.cycle_complex(5),
    "C7": C.cycle_complex(7),
    "octahedron": C.cross_polytope(3),
    "C4 * C5": C.join(C.cycle_complex(4), C.cycle_complex(5)),
    "flag G(8, .5)": C.random_flag(8, 0.5, 2),
    "flag G(10, .4)": C.random_flag(10, 0.4, 3),
    "flag RP2": rp2_flag12(),
}


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_the_grouped_oracle_reads_what_the_per_j_oracle_reads(name):
    K = ORACLE_INPUTS[name]
    Ho.clear_cache()
    every = dict.fromkeys(FIELDS, range(1 << K.m))
    grouped = checks._tor_matches_koszul_slices(K, every)
    assert grouped == _per_j_oracle(K, every)
    assert all(ok for ok, _ in grouped.values())
    # sampled J, some of them twice, as the oracle reads them past m = 10
    rng = random.Random(name)
    sampled = {ring: sorted(rng.choices(range(1 << K.m), k=40)) for ring in FIELDS}
    assert checks._tor_matches_koszul_slices(K, sampled) == _per_j_oracle(K, sampled)
    # the torsion shows in the F2 total
    torsion = any(p.torsion for p in C.tables(K)["koszul slices"].objs)
    assert torsion == (name == "flag RP2")
    assert (grouped[H.GF(2)][1] > grouped[H.RATIONALS][1]) == torsion


def test_one_wrong_sweep_profile_among_many_equal_slices_is_seen():
    K = C.random_flag(8, 0.5, 2)
    Ho.clear_cache()
    every = range(1 << K.m)
    ids, _ = P.squarefree_slice_ids(K, every)
    shared, count = Counter(ids).most_common(1)[0]
    assert count >= 50
    J = max(J for J in every if ids[J] == shared)
    for ring in FIELDS:
        store = Ho.subcomplex_profiles(K, ring)
        right = store.ids[J]
        assert checks._tor_matches_koszul_slices(K, {ring: every})[ring][0]
        wrong = store.objs[right]
        store.ids[J] = store.intern(H.HomologyProfile({**wrong.ranks, 0: wrong.rank(0) + 1}))
        try:
            assert checks._tor_matches_koszul_slices(K, {ring: every})[ring][0] is False
        finally:
            store.ids[J] = right
    Ho.clear_cache()


def test_equal_slices_share_one_profile_and_each_pair_is_read_once(monkeypatch):
    K = C.join(C.cycle_complex(4), C.cycle_complex(5))
    Ho.clear_cache()
    every = range(1 << K.m)
    oracle = checks._tor_matches_koszul_slices(K, dict.fromkeys(FIELDS, every))
    ids, slices = P.squarefree_slice_ids(K, every)
    # one interned profile per distinct slice homology
    assert len({p.key() for p in slices.objs}) == len(slices.objs) == len(set(ids))
    assert len(slices.objs) < 1 << K.m
    for J, i in zip(every, ids):
        assert slices[tuple((J >> v) & 1 for v in range(K.m))] is slices.objs[i]
    # a warm call builds and eliminates nothing, and reads each (slice,
    # sweep) pair over its field exactly once
    built, eliminated, read = [], [], []
    koszul_slice, chain_homology, over = P.koszul_slice, H.chain_homology, H.HomologyProfile.over
    monkeypatch.setattr(P, "koszul_slice",
                        lambda K, beta: built.append(beta) or koszul_slice(K, beta))
    monkeypatch.setattr(H, "chain_homology",
                        lambda *args: eliminated.append(args[2]) or chain_homology(*args))
    monkeypatch.setattr(H.HomologyProfile, "over",
                        lambda prof, coeff: read.append(coeff) or over(prof, coeff))
    for ring in FIELDS:
        read.clear()
        assert checks._tor_matches_koszul_slices(K, {ring: every})[ring] == oracle[ring]
        store = Ho.subcomplex_profiles(K, ring)
        pairs = set(zip(ids, (store.ids[J] for J in every)))
        assert read == [ring] * len(pairs)
        assert len(pairs) < 1 << K.m
    assert built == eliminated == []
