"""Tor tables, the quadratic-dual basis, and the cobar slices."""

import random

import pytest

from flagtor import complexes as C
from flagtor import hochster as Ho
from flagtor import homology as H
from flagtor import pontryagin as P
from flagtor.cli import corpus
from flagtor.complexes import NotFlagError, mask_of

from _fixtures import rp2_flag12


def tor_ranks(table):
    return {(J, n): r for (J, n), (r, _) in table.entries.items() if r}


def test_tor_of_four_cycle():
    table = P.tor_via_subcomplexes(C.cycle_complex(4), H.RATIONALS)
    assert tor_ranks(table) == {
        (0, 0): 1,
        (mask_of([1, 3]), 1): 1,
        (mask_of([2, 4]), 1): 1,
        (mask_of([1, 2, 3, 4]), 2): 1,
    }


def test_tor_of_two_points_is_free():
    table = P.tor_via_subcomplexes(C.points(2), H.RATIONALS)
    assert tor_ranks(table) == {(0, 0): 1, (mask_of([1, 2]), 1): 1}


def test_tor_rejects_non_flag():
    with pytest.raises(NotFlagError):
        P.tor_via_subcomplexes(C.simplex_boundary(3), H.RATIONALS)


def test_koszul_slice_examples():
    K = C.cycle_complex(4)
    assert P.tor_via_koszul_complex(K, H.RATIONALS, (1, 0, 1, 0)) == {1: (1, ())}
    assert P.tor_via_koszul_complex(K, H.RATIONALS, (2, 0, 0, 0)) == {}
    assert P.tor_via_koszul_complex(K, H.RATIONALS, (0, 0, 0, 0)) == {0: (1, ())}


def compose_is_zero(bases, matrices):
    """Check consecutive slice differentials compose to zero."""
    for t, cols in matrices.items():
        nxt = matrices.get(t + 1)
        if nxt is None:
            continue
        for col in nxt:  # a column of d_{t+1}, entries over C_t
            acc = {}
            for r, s in col:
                for rr, ss in cols[r]:
                    acc[rr] = acc.get(rr, 0) + s * ss
            assert all(v == 0 for v in acc.values())


def _tuple_koszul_slice(K, beta):
    """The slice with (Imask, alpha) pairs as its basis: the reference.

    Each basis element carries its divided-power exponent alpha, rows are
    looked up by (I + j, alpha - e_j), and each degree is sorted by pair.
    """
    beta = tuple(beta)
    pin = ones = 0
    for i, b in enumerate(beta):
        if b >= 2:
            pin |= 1 << i
        elif b == 1:
            ones |= 1 << i
    bases = {}
    for G in K.faces:
        if G & pin != pin or G & ~(pin | ones):
            continue
        base_I = ones & ~(G ^ pin)
        R = pin
        while True:
            Imask = base_I | R
            alpha = tuple(b - ((Imask >> i) & 1) for i, b in enumerate(beta))
            bases.setdefault(sum(alpha), []).append((Imask, alpha))
            if R == 0:
                break
            R = (R - 1) & pin
    for t in bases:
        bases[t].sort()
    index = {t: {b: i for i, b in enumerate(bs)} for t, bs in bases.items()}
    matrices = {}
    for t, bs in bases.items():
        if t == 0:
            continue
        rows = index.get(t - 1, {})
        cols = []
        for Imask, alpha in bs:
            col = []
            for j, a in enumerate(alpha):
                bit = 1 << j
                if not a or Imask & bit:
                    continue
                sign = -1 if (Imask & (bit - 1)).bit_count() & 1 else 1
                tgt = alpha[:j] + (a - 1,) + alpha[j + 1:]
                col.append((rows[(Imask | bit, tgt)], sign))
            cols.append(col)
        matrices[t] = cols
    return bases, matrices


def _assert_slice_matches_reference(K, beta):
    bases, matrices = P.koszul_slice(K, beta)
    ref_bases, ref_matrices = _tuple_koszul_slice(K, beta)
    assert bases == {t: [I for I, _ in bs] for t, bs in ref_bases.items()}, beta
    assert matrices == ref_matrices, beta
    for t, bs in bases.items():  # alpha = beta - 1_I, in degree |alpha|
        for I, (_, alpha) in zip(bs, ref_bases[t]):
            assert alpha == tuple(b - (I >> i & 1) for i, b in enumerate(beta))


def test_mask_slices_match_the_tuple_reference():
    rng = random.Random(47)
    for case in range(320):
        m = rng.randint(2, 7)
        if case % 2:
            K = C.random_flag(m, rng.random(), rng.randint(0, 10 ** 6))
        else:
            facets = [[v] for v in range(1, m + 1)]
            for _ in range(rng.randint(1, 4)):
                facets.append(sorted(rng.sample(range(1, m + 1), rng.randint(2, m))))
            K = C.from_facets(m, facets)
        if case % 3 == 0:  # drop every face through one vertex: a ghost
            v = rng.randrange(m)
            K = C.SimplicialComplex(m, frozenset(f for f in K.faces if not f >> v & 1))
        beta = tuple(rng.randint(0, 3) for _ in range(m))
        _assert_slice_matches_reference(K, beta)


def test_mask_slices_match_the_tuple_reference_on_every_subset_of_flag_rp2():
    K = rp2_flag12()
    for J in range(1 << K.m):
        _assert_slice_matches_reference(K, tuple(J >> i & 1 for i in range(K.m)))


def test_koszul_differential_squares_to_zero():
    rng = random.Random(41)
    for _ in range(25):
        K = C.random_flag(5, 0.5, rng.randint(0, 999))
        beta = tuple(rng.randint(0, 2) for _ in range(5))
        bases, matrices = P.koszul_slice(K, beta)
        compose_is_zero(bases, matrices)


def test_koszul_slice_euler_characteristic_matches_series_denominator():
    # alternating basis count of the slice at squarefree beta = J equals
    # the coefficient -chi~(K_J) of the Poincare-series denominator
    for K in (C.cycle_complex(4), C.cross_polytope(3), C.random_flag(6, 0.5, 1)):
        chi = C.chi_subcomplexes(K)
        for J in range(1 << K.m):
            beta = tuple((J >> i) & 1 for i in range(K.m))
            bases, _ = P.koszul_slice(K, beta)
            alt = sum((-1) ** t * len(bs) for t, bs in bases.items())
            assert alt == -chi[J], (J, alt)


def test_oracle_equivalence_on_a_small_sample():
    rng = random.Random(43)
    for seed in range(3):
        K = C.random_flag(6, 0.5, seed)
        for coeff in (H.RATIONALS, H.GF(2), H.GF(3), H.INTEGERS):
            table = P.tor_via_subcomplexes(K, coeff)
            for J in range(1 << K.m):
                beta = tuple((J >> i) & 1 for i in range(K.m))
                got = P.tor_via_koszul_complex(K, coeff, beta)
                want = {n: rt for (JJ, n), rt in table.entries.items()
                        if JJ == J}
                assert got == want, (seed, J)


def test_generator_relation_counts():
    gens, rels, tot = P.generator_relation_counts(C.points(2), H.RATIONALS)
    assert tot == {"generators": 1, "relations": 0, "exact": True}
    gens, rels, tot = P.generator_relation_counts(C.cycle_complex(4), H.RATIONALS)
    assert tot["generators"] == 2 and tot["relations"] == 1
    # the totals, read off the table's totals, are the sums of the counts,
    # also where Tor carries torsion
    for coeff in (H.INTEGERS, H.GF(2)):
        gens, rels, tot = P.generator_relation_counts(rp2_flag12(), coeff)
        assert (tot["generators"], tot["relations"]) == \
            (sum(gens.values()), sum(rels.values()))
        assert list(gens) == sorted(gens) and list(rels) == sorted(rels)


def test_gens_rels_for_subset_needs_a_flag_complex():
    K = C.simplex_boundary(3)
    with pytest.raises(NotFlagError, match="pontryagin.tor_for_subset needs a flag complex"):
        P.gens_rels_for_subset(K, K.full_mask, H.RATIONALS)


def test_flag_projective_plane_relation_counts():
    # one extra relation appears only in characteristic two
    K = C.barycentric_subdivision(C.real_projective_plane())
    full = K.full_mask
    assert P.gens_rels_for_subset(K, full, H.GF(2)) == (0, 1)
    assert P.gens_rels_for_subset(K, full, H.RATIONALS) == (0, 0)
    slice_z = P.tor_for_subset(K, full, H.INTEGERS)
    assert slice_z == {2: (0, (2,))}
    # and the slice complex route reports the same torsion
    assert P.tor_via_koszul_complex(K, H.INTEGERS, tuple([1] * K.m)) == \
        {2: (0, (2,))}


def test_normal_words_lengths():
    K = C.cycle_complex(4)
    assert len(P.normal_words(K, 1)) == 4
    words2 = P.normal_words(K, 2)
    assert len(words2) == 8
    # ascents plus the two non-edge descents
    assert (3, 1) in words2 and (4, 2) in words2 and (2, 1) not in words2
    pts = C.points(5)
    assert len(P.normal_words(pts, 2)) == 5 * 4


def test_normal_words_come_in_lexicographic_order():
    # koszul-dual prints the words in this order
    for K in (C.cycle_complex(5), C.points(3), C.random_flag(7, 0.5, 3),
              C.join(C.cycle_complex(4), C.points(2))):
        for length in range(6):
            words = P.normal_words(K, length)
            assert all(a < b for a, b in zip(words, words[1:])), (K.m, length)


def test_normal_words_refuse_a_negative_length():
    with pytest.raises(ValueError, match="^--length must be >= 0$"):
        P.normal_words(C.cycle_complex(5), -1)


def test_normal_words_stop_past_the_word_budget(monkeypatch):
    K = C.cycle_complex(5)
    n = len(P.normal_words(K, 4))
    monkeypatch.setattr(P, "MAX_WORDS", n)
    assert len(P.normal_words(K, 4)) == n
    monkeypatch.setattr(P, "MAX_WORDS", n - 1)
    with pytest.raises(C.BudgetExceededError,
                       match=rf"^pontryagin.MAX_WORDS = {n - 1} exceeded: .* length 4$"):
        P.normal_words(K, 4)
    with pytest.raises(C.BudgetExceededError):
        P.normal_word_counts(K, 6)


def test_normal_words_stop_past_the_letter_budget(monkeypatch):
    # cycle:4 has 4n words of length n: the letters of all levels add up
    K = C.cycle_complex(4)
    letters = sum(n * 4 * n for n in range(1, 7))
    monkeypatch.setattr(P, "MAX_LETTERS", letters)
    assert len(P.normal_words(K, 6)) == 24
    monkeypatch.setattr(P, "MAX_LETTERS", letters - 1)
    with pytest.raises(C.BudgetExceededError, match=rf"^pontryagin.MAX_LETTERS = "
                       rf"{letters - 1} exceeded: .* up to length 6$"):
        P.normal_words(K, 6)


def _can_append(word, x, adj):
    """Whether x may follow word, by scanning back over the letters that x
    anticommutes with: an equal letter makes a square, a greater one a
    smaller representative, and a letter x does not meet blocks it."""
    for y in reversed(word):
        meets = adj[y - 1] >> (x - 1) & 1
        if y == x or meets and y > x:
            return False
        if not meets:
            return True
    return True


@pytest.mark.parametrize("name", ["cycle:4", "cycle:5", "points:3", "simplex:4",
                                  "octahedron", "cycle:4*points:2", "random-flag:7:50:3",
                                  "random-flag:9:40:2"])
def test_normal_words_are_those_a_suffix_scan_accepts(name):
    # each word carries the letters that may follow it; scanning the word
    # again for each letter must accept exactly those
    K = corpus(name)
    adj = C.adjacency(K)
    level = [()]
    for n in range(1, 7):
        level = [w + (x,) for w in level for x in range(1, K.m + 1)
                 if _can_append(w, x, adj)]
        assert P.normal_words(K, n) == level, (name, n)


def test_normal_word_counts_match_series_growth():
    # the 4-cycle dual algebra grows as 4s in length s
    K = C.cycle_complex(4)
    counts = P.normal_word_counts(K, 6)
    by_len = {}
    for a, c in counts.items():
        by_len[sum(a)] = by_len.get(sum(a), 0) + c
    assert by_len == {0: 1, 1: 4, 2: 8, 3: 12, 4: 16, 5: 20, 6: 24}


def _dual_algebra_dim_by_elimination(K, alpha):
    """Independent oracle: dim of the quadratic dual at a multidegree.

    Spans the degree-s piece of the relation ideal by inserting the
    quadratic relations at every position of every word and row-reduces:
    dim = #words - rank.  No normal-form theory involved.
    """
    from fractions import Fraction
    from itertools import permutations

    letters = []
    for v, a in enumerate(alpha, start=1):
        letters.extend([v] * a)
    words = sorted(set(permutations(letters)))
    index = {w: i for i, w in enumerate(words)}
    edges = {(a, b) for a in range(1, K.m + 1) for b in range(1, K.m + 1)
             if a != b and C.mask_of([a, b]) in K.faces}
    vectors = []
    for w in words:
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a == b:
                vec = {index[w]: 1}
                vectors.append(vec)
            elif (a, b) in edges:
                swapped = w[:i] + (b, a) + w[i + 2:]
                vec = {index[w]: 1, index[swapped]: 1}
                if w[i] < w[i + 1]:  # count each relation instance once
                    vectors.append(vec)
    # rational row reduction
    pivots = {}
    rank = 0
    for vec in vectors:
        vec = {k: Fraction(v) for k, v in vec.items()}
        while vec:
            lead = max(vec)
            piv = pivots.get(lead)
            if piv is None:
                inv = 1 / vec[lead]
                pivots[lead] = {k: v * inv for k, v in vec.items()}
                rank += 1
                break
            c = vec[lead]
            new = dict(vec)
            for k, v in piv.items():
                nv = new.get(k, 0) - c * v
                if nv:
                    new[k] = nv
                else:
                    new.pop(k, None)
            vec = new
    return len(words) - rank


def test_normal_word_counts_against_elimination_oracle():
    # the canonical-word enumeration against brute-force linear algebra,
    # across random graphs (flag or not: only the edges matter)
    rng = random.Random(59)
    for trial in range(12):
        K = C.random_flag(rng.randint(2, 5), rng.random(), rng.randint(0, 999))
        counts = P.normal_word_counts(K, 5)
        for _ in range(6):
            alpha = tuple(rng.randint(0, 2) for _ in range(K.m))
            if not 0 < sum(alpha) <= 5:
                continue
            expected = _dual_algebra_dim_by_elimination(K, alpha)
            assert counts.get(alpha, 0) == expected, (trial, alpha)


def test_koszul_dual_basis_degrees():
    words, counts = P.koszul_dual_basis(C.cycle_complex(4), 2)
    assert len(words) == 8
    assert counts[(1, 1, 0, 0)] == 1  # only u1u2 (the edge anticommutes)
    assert counts[(1, 0, 1, 0)] == 2  # u1u3 and u3u1 (no relation)
    assert words[0] == (1, 2)
    assert words == sorted(words) and all(len(w) == 2 for w in words)


def test_cobar_examples():
    K = C.cycle_complex(4)
    assert P.cobar_ext(K, H.RATIONALS, (1, 1, 0, 0)) == {2: 1}
    assert P.cobar_ext(K, H.RATIONALS, (0, 1, 0, 0)) == {1: 1}
    assert P.cobar_ext(K, H.RATIONALS, (0, 0, 0, 0)) == {0: 1}
    # non-flag: the boundary of the triangle has an off-diagonal class in
    # Ext^2 coming from its missing face, and the diagonal survives too
    bd = C.simplex_boundary(3)
    for coeff in (H.RATIONALS, H.GF(2)):
        dims = P.cobar_ext(bd, coeff, (1, 1, 1))
        assert dims[2] == 1
        assert dims == {2: 1, 3: 1}


def test_a_cobar_slice_is_eliminated_once_over_z_and_read_over_each_field(monkeypatch):
    K = C.cycle_complex(5)
    Ho.clear_cache()
    built, eliminated = [], []
    cobar_slice, chain_homology = P.cobar_slice, H.chain_homology
    monkeypatch.setattr(P, "cobar_slice",
                        lambda K, beta: built.append(beta) or cobar_slice(K, beta))
    monkeypatch.setattr(H, "chain_homology",
                        lambda *args: eliminated.append(args[-1]) or chain_homology(*args))
    beta = (1, 1, 1, 0, 0)
    for coeff in (H.RATIONALS, H.GF(2), H.GF(3), H.RATIONALS):
        assert P.cobar_ext(K, coeff, beta) == {3: 2}
    assert built == [beta] and beta in C.tables(K)["cobar slices"]
    assert eliminated == [H.INTEGERS]
    # the warm table is read over the field on every call: a wrong
    # reading must still be seen
    monkeypatch.setattr(H.HomologyProfile, "over", lambda self, coeff: H.HomologyProfile({-2: 1}))
    assert P.cobar_ext(K, H.RATIONALS, beta) == {2: 1}
    assert eliminated == [H.INTEGERS]


def test_cobar_differential_squares_to_zero():
    rng = random.Random(47)
    for _ in range(20):
        m = rng.randint(2, 4)
        facets = [[v] for v in range(1, m + 1)]
        for _ in range(rng.randint(1, 4)):
            facets.append(sorted(rng.sample(range(1, m + 1), rng.randint(2, m))))
        K = C.from_facets(m, facets)
        beta = tuple(rng.randint(0, 2) for _ in range(m))
        words, matrices = P.cobar_slice(K, beta)
        for s, cols in matrices.items():
            nxt = matrices.get(s + 1)
            if nxt is None:
                continue
            acc = {}
            for ci, col in enumerate(cols):
                for r, v in col:
                    for rr, vv in nxt[r]:
                        acc[(ci, rr)] = acc.get((ci, rr), 0) + v * vv
            assert all(v == 0 for v in acc.values()), (facets, beta)


def test_cobar_flag_diagonal_matches_words():
    rng = random.Random(53)
    for seed in range(3):
        K = C.random_flag(5, 0.5, seed)
        counts = P.normal_word_counts(K, 4)
        for _ in range(15):
            beta = tuple(rng.randint(0, 2) for _ in range(5))
            if not 0 < sum(beta) <= 4:
                continue
            dims = P.cobar_ext(K, H.RATIONALS, beta)
            assert set(dims) <= {sum(beta)}
            assert dims.get(sum(beta), 0) == counts.get(beta, 0)


def test_cobar_bound():
    with pytest.raises(C.BudgetExceededError, match=r"^bound = 8 exceeded: \|beta\| = 9"):
        P.cobar_ext(C.points(2), H.RATIONALS, (9, 0), bound=8)


def test_milnor_moore_totals():
    assert P.milnor_moore_check(C.cycle_complex(4), H.RATIONALS) == \
        {"e2_total": 4, "einf_total": 4, "collapse": True}
    assert P.milnor_moore_check(C.points(2), H.RATIONALS)["e2_total"] == 2
    assert P.milnor_moore_check(C.points(1), H.RATIONALS)["e2_total"] == 1
