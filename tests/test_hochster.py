"""Moment-angle homology via the subset decomposition, against known spaces."""

import random
from types import SimpleNamespace

import pytest
from _fixtures import rp2_flag12
from hypothesis import given, settings
from hypothesis import strategies as st

from flagtor import complexes as C
from flagtor import hochster as Ho
from flagtor import homology as H


def test_two_points_gives_three_sphere():
    # Z_K for two disjoint points is S^3
    table = Ho.zk_homology(C.points(2), H.INTEGERS)
    assert table.totals_rank == {0: 1, 3: 1}
    assert table.totals_torsion == {}


def test_single_vertex_gives_disc():
    table = Ho.zk_homology(C.points(1), H.INTEGERS)
    assert table.totals_rank == {0: 1}


def test_four_cycle_gives_product_of_three_spheres():
    # Z_K of the 4-cycle is S^3 x S^3: Betti 1, 0, 0, 2, 0, 0, 1
    table = Ho.zk_homology(C.cycle_complex(4), H.RATIONALS)
    assert table.totals_rank == {0: 1, 3: 2, 6: 1}
    # the J-breakdown: the two diagonals contribute in degree 3
    assert table.entries[(C.mask_of([1, 3]), 3)] == (1, ())
    assert table.entries[(C.mask_of([2, 4]), 3)] == (1, ())
    assert table.entries[(C.mask_of([1, 2, 3, 4]), 6)] == (1, ())


def test_real_version_of_cycles_are_surfaces():
    # R_K of the 4-cycle is the torus, of the 5-cycle the genus-5 surface
    t4 = Ho.rk_homology(C.cycle_complex(4), H.INTEGERS)
    assert t4.totals_rank == {0: 1, 1: 2, 2: 1}
    t5 = Ho.rk_homology(C.cycle_complex(5), H.INTEGERS)
    assert t5.totals_rank == {0: 1, 1: 10, 2: 1}


def test_two_points_real_version_is_circle():
    table = Ho.rk_homology(C.points(2), H.INTEGERS)
    assert table.totals_rank == {0: 1, 1: 1}


def test_boundary_of_triangle_is_five_sphere():
    # works for non-flag complexes too: Z of the empty triangle is S^5
    table = Ho.zk_homology(C.simplex_boundary(3), H.INTEGERS)
    assert table.totals_rank == {0: 1, 5: 1}


def test_torsion_is_visible_per_subset():
    K = C.disjoint_union(C.real_projective_plane(), C.points(1))
    table = Ho.zk_homology(K, H.INTEGERS)
    rp2_mask = C.mask_of(range(1, 7))
    # the RP^2 subcomplex contributes Z/2 in degree (1) shifted by |J|+1
    assert table.entries[(rp2_mask, 8)][1] == (2,)


def test_cohomology_tables_shift_torsion():
    K = C.disjoint_union(C.real_projective_plane(), C.points(1))
    hom = Ho.zk_homology(K, H.INTEGERS)
    coh = Ho.zk_cohomology(K, H.INTEGERS)
    assert coh.totals_rank == hom.totals_rank
    rp2_mask = C.mask_of(range(1, 7))
    assert coh.entries[(rp2_mask, 9)][1] == (2,)
    # over a field the dual tables coincide with the homology ones
    assert Ho.rk_cohomology(K, H.GF(2)).totals_rank == \
        Ho.rk_homology(K, H.GF(2)).totals_rank
    four = C.cycle_complex(4)
    assert Ho.zk_cohomology(four, H.INTEGERS).totals_rank == {0: 1, 3: 2, 6: 1}


def test_cache_is_shared_and_consistent():
    Ho.clear_cache()
    K = C.cycle_complex(5)
    a = Ho.subcomplex_profiles(K, H.RATIONALS)
    b = Ho.subcomplex_profiles(K, H.RATIONALS)
    assert a == b
    assert Ho.cache_snapshot(K, H.RATIONALS) == a


def test_sweep_keeps_earlier_entries_in_ascending_order():
    # profiles computed one by one before the sweep are not stored, equal
    # what the sweep holds at their J, and the sweep iterates in ascending J
    Ho.clear_cache()
    K = C.random_flag(8, 0.4, 5)
    first = Ho.profile_for_subset(K, 0b10110, H.INTEGERS)
    second = Ho.profile_for_subset(K, 0b00111, H.INTEGERS)
    assert list(C.tables(K)) == ["geometry"]  # K's faces, but no profile
    store = Ho._cache_for(K, H.INTEGERS)
    assert list(store) == [] and len(store) == 0
    sweep = Ho.subcomplex_profiles(K, H.INTEGERS)
    assert sweep is store
    assert sweep[0b10110] == first and sweep[0b00111] == second
    assert Ho.profile_for_subset(K, 0b10110, H.INTEGERS) is sweep[0b10110]
    assert list(sweep) == list(range(1 << 8)) == [J for J, _ in sweep.items()]


def test_reduction_collapses_cones_and_splits_components():
    rp2 = C.real_projective_plane()
    # the graph of RP^2 is complete, yet no vertex link in it is a cone
    assert H.reduction(H.geometry(rp2), rp2.full_mask) is None
    assert H.reduction(H.geometry(C.cycle_complex(4)), 0b1111) is None
    cone = C.join(rp2, C.points(1))
    (rest,) = H.reduction(H.geometry(cone), cone.full_mask)
    assert rest in {cone.full_mask ^ (1 << v) for v in range(7)}
    two = C.disjoint_union(rp2, rp2)
    assert H.reduction(H.geometry(two), two.full_mask) == [0o77, 0o7700]
    assert H.direct_sum([H.reduced_homology(rp2, H.INTEGERS)] * 2) == \
        H.reduced_homology(two, H.INTEGERS)


def _random_complex(rng, m):
    """Downward closure of random facets; usually not flag."""
    facets = [[v] for v in range(1, m + 1)]
    for _ in range(rng.randint(2, 8)):
        facets.append(sorted(rng.sample(range(1, m + 1), rng.randint(2, min(m, 4)))))
    return C.from_facets(m, facets)


def _without_vertex(K, v):
    """K with every face through vertex v (0-based) removed: v is a ghost."""
    return C.SimplicialComplex(K.m, frozenset(f for f in K.faces if not f >> v & 1))


def _record_sweep_rules(monkeypatch):
    """Record what the sweep's Mayer-Vietoris rule and elimination see."""
    seen = {"mv": [], "eliminated": []}
    mv, eliminate = H.mayer_vietoris, H._profile_restricted

    def spy_mv(link, rest):
        out = mv(link, rest)
        seen["mv"].append((link, rest, out))
        return out

    def spy_eliminate(geo, J, coeff):
        seen["eliminated"].append(J)
        return eliminate(geo, J, coeff)

    monkeypatch.setattr(H, "mayer_vietoris", spy_mv)
    monkeypatch.setattr(H, "_profile_restricted", spy_eliminate)
    return seen


def test_sweep_matches_plain_elimination_on_every_subset(monkeypatch):
    # the sweep eliminates only what the vertex rule, collapses and splits
    # leave; every other J is settled from profiles of proper subsets
    rp2 = C.real_projective_plane()
    rng = random.Random(43)
    cases = [C.join(rp2, C.points(1)), C.disjoint_union(rp2, rp2),
             C.join(rp2, C.simplex_boundary(3)), C.cross_polytope(3)]
    cases += [C.random_flag(m, p, seed) for m, p, seed in
              ((7, .5, 1), (8, .3, 2), (9, .5, 3), (9, .7, 4))]
    cases += [_random_complex(rng, rng.randint(4, 9)) for _ in range(8)]
    assert sum(not C.is_flag(K) for K in cases) >= 6
    # a vertex in no face: K_J is K_{J-v}, not K_J plus an isolated point;
    # on the top bit, and on bit 0, where the vertex rule would see it
    cases.append(C.SimplicialComplex(5, C.cycle_complex(4).faces))
    cases.append(C.SimplicialComplex(5, frozenset(f << 1 for f in C.cycle_complex(4).faces)))
    # m = 12 with 2-torsion over Z
    cases.append(C.disjoint_union(rp2, C.random_flag(6, 0.5, 1)))
    # RP^2 * 3 points: at J = [m] the link of the top vertex is RP^2, with
    # Z/2 in degree 1, and K_{J-t} = suspension of RP^2 has Z/2 in degree 2,
    # so the rule cannot tell Z/4 from Z/2 + Z/2 and must fall back
    cases.append(C.join(rp2, C.points(3)))
    seen = _record_sweep_rules(monkeypatch)
    for K in cases:
        for key in ("q", "fp:2", "fp:3", "z"):
            coeff = H.parse_coefficients(key)
            expected = [H.subcomplex_homology(K, J, coeff) for J in range(1 << K.m)]
            Ho.clear_cache()
            seen["eliminated"].clear()
            sweep = Ho.subcomplex_profiles(K, coeff)
            assert list(sweep) == list(range(1 << K.m))
            for J, prof in enumerate(expected):
                assert sweep[J] == prof, (K.m, key, J)
            assert len({id(p) for p in sweep.values()}) == \
                len({p.key() for p in expected}) == len(Ho.subcomplex_profiles(K, coeff).objs)
            # a single vertex is a point: never eliminated
            assert all(J.bit_count() != 1 for J in seen["eliminated"]), (K.m, key)
            if key == "z" and K.m == 12:
                assert any(p.torsion for p in sweep.values())
            if key == "z" and K is cases[-1]:
                assert sweep[K.full_mask] == H.HomologyProfile({}, {2: (2, 2)})
                assert K.full_mask in seen["eliminated"]
    point, empty = H.HomologyProfile(), H.HomologyProfile({-1: 1})
    outcomes = {"acyclic link": 0, "empty link": 0, "split": 0, "undecided": 0}
    for link, rest, out in seen["mv"]:
        if out is None:
            outcomes["undecided"] += 1
        elif link == point:
            outcomes["acyclic link"] += out is rest
        elif link == empty:
            outcomes["empty link"] += out.rank(0) == rest.rank(0) + 1
        else:
            outcomes["split"] += 1
    assert all(outcomes.values()), outcomes
    assert any(link.torsion and out is None for link, _, out in seen["mv"])


def _top_two_vertices_fail(K, J, profiles):
    """Whether the vertex rule settles K_J at neither of its top two vertices."""
    adj = H.geometry(K).adjacency
    for _ in range(2):
        if J.bit_count() < 2:
            return False
        t = J.bit_length() - 1
        rest = J ^ 1 << t
        if H.mayer_vietoris(profiles[adj[t] & rest], profiles[rest]) is not None:
            return False
        J = rest
    return True


def test_block_sweep_matches_plain_elimination_on_every_subset(monkeypatch):
    # the block passes, the passes of lower vertices over sub-blocks and the
    # J-by-J fallback, on sparse flag graphs, a flag RP^2 (whose full
    # subcomplexes carry 2-torsion), ghost vertices and RP^2 joins (whose
    # vertices of RP^2 have links that are not full subcomplexes)
    rp2 = C.real_projective_plane()
    flag = [C.random_flag(m, p, seed) for m, p, seed in
            ((8, .3, 1), (9, .2, 4), (10, .3, 2), (11, .25, 3))] + [rp2_flag12()]
    base = C.random_flag(10, .4, 9)
    ghosts = [_without_vertex(base, v) for v in (0, 5, 9)]
    joins = [C.join(rp2, C.random_flag(4, .5, 2)), C.join(rp2, C.points(3))]
    one_by_one = []
    one = Ho._Sweep.one

    def spy_one(self, J, *below):
        one_by_one.append(J)
        return one(self, J, *below)

    monkeypatch.setattr(Ho._Sweep, "one", spy_one)
    deep = 0
    for K in flag + ghosts + joins:
        full = 1 << K.m
        for key in ("z", "fp:2"):
            coeff = H.parse_coefficients(key)
            expected = [H.subcomplex_homology(K, J, coeff) for J in range(full)]
            Ho.clear_cache()
            one_by_one.clear()
            sweep = Ho.subcomplex_profiles(K, coeff)
            assert len(sweep) == full and list(sweep) == list(range(full))
            assert [p for _, p in sweep.items()] == expected, (K.m, key)
            if K in flag:
                skipped = set(one_by_one)
                deep += sum(1 for J in range(full) if J not in skipped
                            and _top_two_vertices_fail(K, J, expected))
            elif K in joins:
                assert C.is_flag(K) is False
                assert len(one_by_one) > full // 8  # most layers go J by J
    # some J were settled by a block pass at the third vertex or lower
    assert deep > 0


def test_sweep_widens_its_ids_past_the_byte_limit(monkeypatch):
    # ids are one byte each until the store holds the byte width's limit
    # of profiles; then the sweep runs once more from J = 0 with two-byte ids
    K = C.disjoint_union(C.real_projective_plane(), C.random_flag(6, 0.5, 1))
    expected = [H.subcomplex_homology(K, J, H.INTEGERS) for J in range(1 << K.m)]
    distinct = len({p.key() for p in expected})
    assert distinct > 4
    # ids 0 .. limit - 1 fit, so a limit of exactly the number of profiles
    # needs no widening, and one less does
    monkeypatch.setattr(Ho._WIDTHS[0], "limit", distinct)
    Ho.clear_cache()
    assert Ho.subcomplex_profiles(K, H.INTEGERS).ids.typecode == "B"
    monkeypatch.setattr(Ho._WIDTHS[0], "limit", distinct - 1)
    Ho.clear_cache()
    assert Ho.subcomplex_profiles(K, H.INTEGERS).ids.typecode == "H"
    monkeypatch.setattr(Ho._WIDTHS[0], "limit", 4)
    Ho.clear_cache()
    sweep = Ho.subcomplex_profiles(K, H.INTEGERS)
    assert sweep.ids.typecode == "H"
    assert list(sweep.values()) == expected
    assert Ho.zk_homology(K, H.INTEGERS).totals_torsion
    monkeypatch.setattr(Ho._WIDTHS[1], "limit", 4)
    Ho.clear_cache()
    with pytest.raises(C.BudgetExceededError,
                       match=r"^hochster.MAX_PROFILES = 4 exceeded: distinct profiles"):
        Ho.subcomplex_profiles(K, H.INTEGERS)
    Ho.clear_cache()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sweep_with_a_ghost_vertex_matches_plain_elimination(data):
    m = data.draw(st.integers(2, 8), label="m")
    p = data.draw(st.sampled_from([.3, .5, .7]), label="p")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    ghost = data.draw(st.integers(0, m - 1), label="ghost")
    K = _without_vertex(C.random_flag(m, p, seed), ghost)
    for key in ("z", "fp:2"):
        coeff = H.parse_coefficients(key)
        Ho.clear_cache()
        sweep = Ho.subcomplex_profiles(K, coeff)
        for J in range(1 << m):
            assert sweep[J] == H.subcomplex_homology(K, J, coeff), (key, J)


def test_mayer_vietoris_leaves_a_possible_extension_undecided():
    rp2 = H.reduced_homology(C.real_projective_plane(), H.INTEGERS)
    suspension = H.HomologyProfile({}, {2: (2,)})
    assert H.mayer_vietoris(rp2, suspension) is None
    # torsion in the link with nothing above it in K_{J-t} splits
    assert H.mayer_vietoris(rp2, H.HomologyProfile({3: 1})) == \
        H.HomologyProfile({3: 1}, {2: (2,)})
    circle = H.HomologyProfile({1: 1})
    # homology in the same degree on both sides: the maps are unknown
    assert H.mayer_vietoris(circle, circle) is None
    # an acyclic link changes nothing, an empty one adds a point
    assert H.mayer_vietoris(H.HomologyProfile(), circle) is circle
    assert H.mayer_vietoris(H.HomologyProfile({-1: 1}), circle) == \
        H.HomologyProfile({0: 1, 1: 1})


def _per_J_table(K, coeff, shift_by_J, dual):
    """entries, totals_rank and totals_torsion as a loop over every J fills them."""
    entries, rank, torsion = {}, {}, {}
    for J in range(1 << K.m):
        prof = H.subcomplex_homology(K, J, coeff)
        if dual:
            prof = prof.cohomology()
        size = J.bit_count() if shift_by_J else 0
        for n, r, t in prof.rows():
            p = n + size + 1
            entries[J, p] = (r, t)
            if r:
                rank[p] = rank.get(p, 0) + r
            if t:
                torsion.setdefault(p, []).extend(t)
    return entries, rank, {p: tuple(sorted(t)) for p, t in torsion.items()}


def test_tables_read_off_the_ids_match_a_loop_over_every_J():
    rp2 = C.real_projective_plane()
    cases = [C.disjoint_union(rp2, C.points(1)), C.join(rp2, C.points(3)),
             C.cycle_complex(5), C.random_flag(9, 0.4, 2),
             _without_vertex(C.random_flag(7, 0.5, 3), 3)]
    tables = ((Ho.zk_homology, True, False), (Ho.rk_homology, False, False),
              (Ho.zk_cohomology, True, True), (Ho.rk_cohomology, False, True))
    for K in cases:
        for coeff in (H.INTEGERS, H.GF(2)):
            Ho.clear_cache()
            for fn, shift_by_J, dual in tables:
                entries, rank, torsion = _per_J_table(K, coeff, shift_by_J, dual)
                table = fn(K, coeff)
                assert list(table.entries.items()) == list(entries.items())
                assert list(table.entries) == list(entries)
                assert list(table.entries.values()) == list(entries.values())
                assert len(table.entries) == len(entries)
                assert all(table.entries[key] == v for key, v in entries.items())
                assert table.entries == entries
                # one degree at a time, each in ascending J
                for p in range(-1, K.m + 3):
                    assert list(table.entries.in_degree(p)) == \
                        [(key, v) for key, v in entries.items() if key[1] == p]
                # insertion order too: first appearance in ascending J
                assert list(table.totals_rank.items()) == list(rank.items())
                assert list(table.totals_torsion.items()) == list(torsion.items())


def test_table_entries_are_a_read_only_mapping():
    K = C.disjoint_union(C.real_projective_plane(), C.points(1))
    Ho.clear_cache()
    entries = Ho.zk_homology(K, H.INTEGERS).entries
    rp2_mask = C.mask_of(range(1, 7))
    assert (rp2_mask, 8) in entries and entries[rp2_mask, 8] == (0, (2,))
    assert entries.get((rp2_mask, 8)) == (0, (2,))
    assert ((rp2_mask, 8), (0, (2,))) in entries.items()
    for absent in ((rp2_mask, 7), (1 << K.m, 1), (-1, 1), (0, 5), "x", (1, 2, 3)):
        assert absent not in entries
        with pytest.raises(KeyError):
            entries[absent]
    assert entries != {} and entries == dict(entries.items())
    with pytest.raises(TypeError):
        entries[rp2_mask, 8] = (1, ())
    with pytest.raises(TypeError):
        del entries[rp2_mask, 8]
    store = Ho.subcomplex_profiles(K, H.INTEGERS)
    with pytest.raises(TypeError):
        store[0] = store[1]
    with pytest.raises(KeyError):
        store[1 << K.m]


def test_sweep_cap():
    K = C.barycentric_subdivision(C.real_projective_plane())
    with pytest.raises(C.BudgetExceededError):
        Ho.subcomplex_profiles(K, H.RATIONALS)
    # one error for every 2^m sweep, also the chi-tilde transform's
    with pytest.raises(C.BudgetExceededError,
                       match=r"^complexes.SWEEP_CAP = 24 exceeded: .* m = 31 vertices$"):
        C.chi_subcomplexes(K)


def test_torsion_primes_harvest():
    K = C.disjoint_union(C.real_projective_plane(), C.points(1))
    assert Ho.torsion_primes(K) == [2]
    assert Ho.torsion_primes(C.cycle_complex(4)) == []


def _smallest_prime_factors(K):
    return sorted({min(d for d in range(2, q + 1) if q % d == 0)
                   for prof in Ho.subcomplex_profiles(K, H.INTEGERS).objs
                   for t in prof.torsion.values() for q in t})


def test_torsion_primes_on_the_torsion_corpus(monkeypatch):
    rp2 = C.real_projective_plane()
    corpus = [rp2, C.disjoint_union(rp2, C.random_flag(6, 0.5, 1)),
              C.join(rp2, C.random_flag(4, 0.5, 2)), C.join(rp2, C.random_flag(5, 0.5, 3)),
              rp2_flag12()]
    for K in corpus:
        Ho.clear_cache()
        assert Ho.torsion_primes(K) == _smallest_prime_factors(K) == [2]
    # odd prime powers, as the Smith form splits them
    fake = [SimpleNamespace(torsion={1: (9, 4), 2: (25, 2)}),
            SimpleNamespace(torsion={0: (7, 3 ** 5, 2 ** 13 - 1)})]
    monkeypatch.setattr(Ho, "subcomplex_profiles",
                        lambda K, coeff: SimpleNamespace(objs=fake))
    assert Ho.torsion_primes(None) == [2, 3, 5, 7, 2 ** 13 - 1]

