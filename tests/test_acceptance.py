"""Acceptance suite: one test per release criterion, exact tolerances.

Everything here is exact arithmetic, so unless a criterion states a
runtime budget the tolerance is equality.  Each test prints its own
PASS line (run with -s or look at the captured output) so the suite
doubles as a verification report.
"""

import random
import time

import pytest

from flagtor import complexes as C
from flagtor import hochster as Ho
from flagtor import homology as H
from flagtor import lscat as L
from flagtor import pontryagin as P
from flagtor import series as S
from flagtor.complexes import mask_of
from flagtor.exact_linalg import rank_columns, snf_columns
from flagtor.series import MultiSeries

from _cli import flagtor_peak_rss


def report(criterion, detail=""):
    print(f"PASS {criterion}" + (f" ({detail})" if detail else ""))


def flag_corpus():
    """At least 30 flag complexes with m <= 8.

    All m-cycles for 4 <= m <= 8, the cross-polytope boundaries, joins,
    disjoint unions, and random clique complexes.
    """
    corpus = {}
    for m in range(4, 9):
        corpus[f"cycle:{m}"] = C.cycle_complex(m)
    for d in (2, 3, 4):
        corpus[f"cross:{d}"] = C.cross_polytope(d)
    corpus["cycle:4*points:2"] = C.join(C.cycle_complex(4), C.points(2))
    corpus["cycle:5*points:2"] = C.join(C.cycle_complex(5), C.points(2))
    corpus["points:2*points:3"] = C.join(C.points(2), C.points(3))
    corpus["simplex:2*points:2"] = C.join(C.simplex(2), C.points(2))
    corpus["cycle:6*simplex:1"] = C.join(C.cycle_complex(6), C.simplex(1))
    corpus["points:4"] = C.points(4)
    corpus["points:8"] = C.points(8)
    corpus["cycle:4+simplex:2"] = C.disjoint_union(C.cycle_complex(4),
                                                   C.simplex(2))
    corpus["simplex:3+simplex:3"] = C.disjoint_union(C.simplex(3),
                                                     C.simplex(3))
    for seed in range(1, 5):
        corpus[f"random-flag:5:50:{seed}"] = C.random_flag(5, 0.5, seed)
        corpus[f"random-flag:6:40:{seed}"] = C.random_flag(6, 0.4, seed)
    for seed in range(1, 4):
        corpus[f"random-flag:7:50:{seed}"] = C.random_flag(7, 0.5, seed)
        corpus[f"random-flag:8:35:{seed}"] = C.random_flag(8, 0.35, seed)
    for seed in range(1, 3):
        corpus[f"random-flag:8:60:{seed}"] = C.random_flag(8, 0.6, seed)
    assert len(corpus) >= 30
    assert all(C.is_flag(K) and K.m <= 8 for K in corpus.values())
    return corpus


CORPUS = flag_corpus()


def test_criterion_01_tor_oracle_equivalence():
    """Two independent Tor computations agree in every squarefree
    multidegree over Q and F2, and the slice complex is exact at 50
    sampled non-squarefree multidegrees per complex; under 60 s."""
    t0 = time.monotonic()
    rng = random.Random(101)
    for name, K in CORPUS.items():
        for coeff in (H.RATIONALS, H.GF(2)):
            table = P.tor_via_subcomplexes(K, coeff)
            direct = {}
            for (J, n), (r, _) in table.entries.items():
                if r:
                    direct.setdefault(J, {})[n] = r
            for J in range(1 << K.m):
                beta = tuple((J >> i) & 1 for i in range(K.m))
                got = {t: r for t, (r, _) in
                       P.tor_via_koszul_complex(K, coeff, beta).items() if r}
                assert got == direct.get(J, {}), (name, str(coeff), J)
            for _ in range(50):
                beta = [0] * K.m
                for _ in range(rng.randint(2, 6)):
                    beta[rng.randrange(K.m)] += 1
                if max(beta) < 2:
                    beta[rng.randrange(K.m)] += 2
                got = P.tor_via_koszul_complex(K, coeff, tuple(beta))
                assert not any(r for r, _ in got.values()), (name, beta)
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    report("criterion 1: Tor oracle equivalence on %d flag complexes"
           % len(CORPUS), f"{elapsed:.1f}s")


def test_criterion_02_four_cycle_end_to_end():
    """Every pinned value for the 4-cycle, exactly."""
    K = C.cycle_complex(4)
    gens, rels, tot = P.generator_relation_counts(K, H.RATIONALS)
    assert tot["generators"] == 2 and tot["relations"] == 1

    table = P.tor_via_subcomplexes(K, H.RATIONALS)
    nonzero = {(J, n): r for (J, n), (r, _) in table.entries.items()
               if r and n >= 1}
    assert nonzero == {(mask_of([1, 3]), 1): 1,
                       (mask_of([2, 4]), 1): 1,
                       (mask_of([1, 2, 3, 4]), 2): 1}
    assert table.entries[(0, 0)] == (1, ())

    assert L.cat_zk(K) == 2
    assert L.toomer(K, H.RATIONALS) == 2

    ranks = S.homotopy_ranks(K, 8)
    assert ranks == {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}

    assert S.poincare_ozk(K, 8).z_graded() == [1, 0, 2, 0, 3, 0, 4, 0, 5]
    report("criterion 2: 4-cycle end-to-end pins")


def test_criterion_03_pbw_roundtrip():
    """pbw_reconstruct(homotopy_ranks(K, 8), 8) equals poincare_ozk(K, 8)
    exactly on the whole corpus; all ranks non-negative integers."""
    for name, K in CORPUS.items():
        F = S.poincare_ozk(K, 8)
        ranks = S.homotopy_ranks(K, 8)  # raises unless ints >= 0
        assert all(isinstance(v, int) and v > 0 for v in ranks.values())
        assert S.pbw_reconstruct(ranks, K.m, 8) == F, name
    report("criterion 3: series-log-PBW round trip on %d complexes"
           % len(CORPUS))


def test_criterion_04_panov_ray_identity():
    for name, K in CORPUS.items():
        ok, lhs, rhs = S.panov_ray_check(K)
        assert ok, (name, lhs, rhs)
    fv = C.f_vector(C.cycle_complex(4))
    assert fv.h == (1, 2, 1)
    report("criterion 4: h-vector identity on %d complexes" % len(CORPUS))


def test_criterion_05_diagonal_ext_matches_word_basis():
    """cobar Ext vanishes off the diagonal and matches the normal-word
    count there for |beta| <= 4; the ambient loop series matches the word
    counts to total degree 6."""
    for name, K in CORPUS.items():
        counts = P.normal_word_counts(K, 6)
        odj = S.poincare_odj(K, 6)
        assert all(odj.coefficient(a) == c for a, c in counts.items()), name
        assert all(counts.get(a, 0) == v for a, v in odj.terms.items()), name

        def betas(m, bound):
            stack = [((), bound)]
            while stack:
                prefix, left = stack.pop()
                if len(prefix) == m:
                    yield prefix
                    continue
                for a in range(left + 1):
                    stack.append((prefix + (a,), left - a))

        for beta in betas(K.m, 4):
            if sum(beta) == 0:
                continue
            dims = P.cobar_ext(K, H.RATIONALS, beta)
            assert set(dims) <= {sum(beta)}, (name, beta, dims)
            assert dims.get(sum(beta), 0) == counts.get(beta, 0), (name, beta)
    K4 = C.cycle_complex(4)
    assert S.poincare_odj(K4, 6).z_graded() == [1, 4, 8, 12, 16, 20, 24]
    report("criterion 5: diagonal Ext = word basis, |beta| <= 4, "
           "series to degree 6")


def test_criterion_06_non_flag_off_diagonal_class():
    """The empty triangle carries a nonzero Ext^2 class at (1,1,1),
    strictly off the diagonal s = |beta| = 3."""
    bd = C.simplex_boundary(3)
    for coeff in (H.RATIONALS, H.GF(2)):
        dims = P.cobar_ext(bd, coeff, (1, 1, 1))
        assert dims.get(2, 0) == 1
    report("criterion 6: off-diagonal Ext^2 class for the empty triangle")


def test_criterion_07_milnor_moore_collapse():
    for name, K in CORPUS.items():
        for coeff in (H.RATIONALS, H.GF(2)):
            mm = P.milnor_moore_check(K, coeff)
            assert mm["collapse"], (name, str(coeff), mm)
    report("criterion 7: spectral-sequence totals agree on %d complexes x 2 "
           "fields" % len(CORPUS))


def test_criterion_08_nu_agreement_and_values():
    """Both nu algorithms agree on 50+ complexes; skeleton and disjoint
    union values are the predicted ones."""
    tested = 0
    for K in CORPUS.values():
        assert C.nu_filtration(K) == C.nu_direct(K) == 0
        tested += 1
    for m in range(2, 8):
        for i in range(0, m):
            K = C.skeleton(C.simplex(m), i)
            nf, nd = C.nu_filtration(K), C.nu_direct(K)
            assert nf == nd
            if 1 <= i < m - 1:
                assert nd == m - i - 1, (m, i)
            else:
                assert nd == 0
            tested += 1
    extras = [C.simplex_boundary(3), C.simplex_boundary(5),
              C.real_projective_plane(),
              C.skeleton(C.cross_polytope(3), 1),
              C.disjoint_union(C.simplex_boundary(3), C.simplex_boundary(6))]
    rng = random.Random(107)
    for _ in range(10):
        m = rng.randint(4, 7)
        facets = [[v] for v in range(1, m + 1)]
        for _ in range(rng.randint(1, 5)):
            facets.append(sorted(rng.sample(range(1, m + 1), rng.randint(2, m))))
        extras.append(C.from_facets(m, facets))
    for K in extras:
        assert C.nu_filtration(K) == C.nu_direct(K)
        tested += 1
    union = C.disjoint_union(C.simplex_boundary(3), C.simplex_boundary(6))
    assert C.nu_direct(union) == 1
    assert tested >= 50
    report("criterion 8: nu agreement on %d complexes" % tested)


def test_criterion_09_ls_category():
    """Category of flag manifold triangulations is dim+1; the two cdim
    formulas agree everywhere; the skeleton bound is sharp for the
    1-skeleton of the octahedron."""
    for m in range(4, 9):
        assert L.cat_zk(C.cycle_complex(m)) == 2
    assert L.cat_zk(C.cross_polytope(3)) == 3
    assert L.cat_zk(C.icosahedron()) == 3
    everything = dict(CORPUS)
    everything["boundary:3"] = C.simplex_boundary(3)
    everything["rp2"] = C.real_projective_plane()
    everything["sk1-octahedron"] = C.skeleton(C.cross_polytope(3), 1)
    everything["icosahedron"] = C.icosahedron()
    for name, K in everything.items():
        assert 1 + L.max_subcomplex_cdim(K) == L.cat_via_links(K), name
    assert L.cat_lower_bound(C.skeleton(C.cross_polytope(3), 1)) == 2
    report("criterion 9: category values and link identity on %d complexes"
           % len(everything))


def test_criterion_10_flag_projective_plane_torsion():
    """On the barycentric subdivision of the 6-vertex projective plane
    (m = 31; the full sweep is skipped by design) the top multidegree
    slice shows the characteristic-two relation; under 120 s."""
    t0 = time.monotonic()
    K = C.barycentric_subdivision(C.real_projective_plane())
    assert K.m == 31 and C.is_flag(K)
    with pytest.raises(C.BudgetExceededError):
        Ho.subcomplex_profiles(K, H.GF(2))
    full = K.full_mask
    assert P.gens_rels_for_subset(K, full, H.GF(2))[1] == 1
    assert P.gens_rels_for_subset(K, full, H.RATIONALS)[1] == 0
    slice_z = P.tor_for_subset(K, full, H.INTEGERS)
    assert slice_z == {2: (0, (2,))}
    assert P.tor_via_koszul_complex(K, H.INTEGERS, tuple([1] * K.m)) == \
        {2: (0, (2,))}
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    report("criterion 10: flag projective-plane torsion slice",
           f"{elapsed:.1f}s")


def test_criterion_11_check_all_performance():
    """Full check-all at m = 16 over F2: <= 120 s wall, <= 2 GB memory."""
    t0 = time.monotonic()
    r, peak_kb = flagtor_peak_rss("check-all", "--named", "random-flag:16:40:1",
                                  "--coeff", "fp:2", "--threads", "2")
    elapsed = time.monotonic() - t0
    assert "FAIL" not in r.stderr
    assert elapsed <= 120.0
    assert peak_kb <= 2 * 1024 * 1024
    report("criterion 11: m=16 check-all",
           f"{elapsed:.1f}s, {peak_kb // 1024} MB")


def test_criterion_13_sweep_memory_at_m20():
    """zk-homology over Z at m = 20 stays under 100 MB peak RSS."""
    t0 = time.monotonic()
    _, peak_kb = flagtor_peak_rss("zk-homology", "--named", "random-flag:20:40:1",
                                  "--coeff", "z")
    elapsed = time.monotonic() - t0
    assert peak_kb < 100 * 1024
    report("criterion 13: m=20 zk-homology memory",
           f"{elapsed:.1f}s, {peak_kb // 1024} MB")


def _random_complex(rng, mmax=5):
    m = rng.randint(2, mmax)
    facets = [[v] for v in range(1, m + 1)]
    for _ in range(rng.randint(1, 4)):
        facets.append(sorted(rng.sample(range(1, m + 1), rng.randint(2, m))))
    return C.from_facets(m, facets)


def _compose_zero(matrices):
    for t, cols in matrices.items():
        nxt = matrices.get(t + 1)
        if nxt is None:
            continue
        for col in nxt:
            acc = {}
            for r, s in col:
                for rr, ss in cols[r]:
                    acc[rr] = acc.get(rr, 0) + s * ss
            assert all(v == 0 for v in acc.values())


def test_criterion_12_property_suites():
    """1000 randomized cases per property, zero failures."""
    cases = 1000

    rng = random.Random(1201)
    for _ in range(cases):
        K = C.random_flag(rng.randint(2, 5), rng.random(), rng.randint(0, 10 ** 6))
        beta = tuple(rng.randint(0, 2) for _ in range(K.m))
        _, matrices = P.koszul_slice(K, beta)
        _compose_zero(matrices)

    rng = random.Random(1202)
    for _ in range(cases):
        K = _random_complex(rng, mmax=4)
        beta = tuple(rng.randint(0, 2) for _ in range(K.m))
        if sum(beta) > 4:
            beta = beta[:1] + tuple(0 for _ in beta[1:])
        _, matrices = P.cobar_slice(K, beta)
        for s, cols in matrices.items():
            nxt = matrices.get(s + 1)
            if nxt is None:
                continue
            for ci, col in enumerate(cols):
                acc = {}
                for r, v in col:
                    for rr, vv in nxt[r]:
                        acc[rr] = acc.get(rr, 0) + v * vv
                assert all(v == 0 for v in acc.values())

    rng = random.Random(1203)
    for _ in range(cases):
        n = rng.randint(1, 3)
        terms = {tuple([0] * n): 1}
        for _ in range(rng.randint(1, 5)):
            key = tuple(rng.randint(0, 2) for _ in range(n))
            if any(key):
                terms[key] = rng.randint(-3, 3)
        f = MultiSeries(n, 5, terms)
        assert f.mul(f.inverse()) == MultiSeries.one(n, 5)

    rng = random.Random(1204)
    for _ in range(cases):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        entries = {(r, c): rng.randint(-8, 8) for r in range(nr)
                   for c in range(nc) if rng.random() < 0.6}
        entries = {k: v for k, v in entries.items() if v}
        columns = [[] for _ in range(nc)]
        for (r, c), v in entries.items():
            columns[c].append((r, v))
        snf = snf_columns(columns)
        for a, b in zip(snf.diagonal, snf.diagonal[1:]):
            assert b % a == 0
        assert rank_columns(columns) == snf.rank

    rng = random.Random(1205)
    for _ in range(cases):
        K = _random_complex(rng)
        z = H.reduced_homology(K, H.INTEGERS)
        p = rng.choice((2, 3, 5))
        fp = H.reduced_homology(K, H.GF(p))
        for n in range(-1, K.dim + 1):
            tor = sum(1 for t in z.torsion_at(n) if t % p == 0)
            tor_dn = sum(1 for t in z.torsion_at(n - 1) if t % p == 0)
            assert fp.rank(n) == z.rank(n) + tor + tor_dn
        coh = H.reduced_homology(K, H.INTEGERS).cohomology()
        assert coh.ranks == z.ranks
        assert coh.torsion == {n + 1: t for n, t in z.torsion.items()}

    rng = random.Random(1206)
    for _ in range(cases):
        K = _random_complex(rng)
        prof = H.reduced_homology(K, H.RATIONALS)
        total = sum((-1) ** n * r for n, r in prof.ranks.items())
        assert total == C.reduced_euler_char(K)

    report("criterion 12: six property suites x 1000 randomized cases")
