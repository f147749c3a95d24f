"""Rank and Smith normal form against hand values and a sympy oracle.

Matrices are given as the kernels take them, as columns of
[(row, value), ...] lists; ``SNFResult.rank_mod`` is the reference rank
over F_p.
"""

import random
import signal

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from flagtor.exact_linalg import (NonPrimeModulusError, factorization, is_prime,
                                  prime_power_factors, rank_columns, rank_gf2_columns,
                                  rank_mod_p_columns, rank_rational_columns,
                                  snf_columns)
from flagtor.homology import Coefficients, parse_coefficients


def dense(rows):
    """The columns of a matrix given by its rows."""
    ncols = len(rows[0]) if rows else 0
    return [[(r, row[c]) for r, row in enumerate(rows) if row[c]]
            for c in range(ncols)]


def sparse(ncols, cells):
    """The columns of a matrix given by its nonzero cells {(r, c): v}."""
    columns = [[] for _ in range(ncols)]
    for (r, c), v in cells.items():
        columns[c].append((r, v))
    return columns


def sympy_invariant_factors(rows):
    M = sympy.Matrix(rows)
    D = sympy_snf(M, domain=sympy.ZZ)
    diag = [abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i] != 0]
    return tuple(sorted(diag))


def test_rank_zero_matrix():
    M = [[], [], []]
    assert rank_columns(M) == 0
    assert rank_columns(M, 2) == 0


def test_rank_identity():
    M = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank_columns(M) == 3
    assert rank_columns(M, 5) == 3


def test_rank_2468():
    M = dense([[2, 4], [6, 8]])
    assert rank_columns(M) == 2  # det = -8
    assert rank_columns(M, 2) == 0  # all entries even
    assert rank_columns(M, 3) == 2


def test_rank_requires_prime_modulus():
    # a modulus reaches the kernels only through Coefficients
    with pytest.raises(NonPrimeModulusError):
        Coefficients("fp", 6)
    with pytest.raises(NonPrimeModulusError):
        parse_coefficients("fp:6")


def test_snf_identity():
    M = dense([[1, 0], [0, 1]])
    assert snf_columns(M).diagonal == (1, 1)


def test_snf_2468():
    # gcd of entries 2, |det| = 8, so invariant factors 2 | 4
    snf = snf_columns(dense([[2, 4], [6, 8]]))
    assert snf.diagonal == (2, 4)
    assert snf.torsion() == (2, 4)
    assert snf.rank_mod(2) == 0
    assert snf.rank_mod(3) == 2


def test_snf_rp2_boundary_has_order_two_torsion():
    # second boundary matrix of the 6-vertex projective plane
    from flagtor import complexes as C, homology as H

    K = C.real_projective_plane()
    geo = H.geometry(K)
    counts, matrices = H._restricted_columns(geo, K.full_mask)
    cols = matrices[2]
    dense_rows = [[0] * len(cols) for _ in range(counts[1])]
    for c, col in enumerate(cols):
        for r, sign in col:
            dense_rows[r][c] = sign
    snf = snf_columns(cols)
    assert snf.diagonal[-1] == 2
    assert snf.diagonal == sympy_invariant_factors(dense_rows)


def test_snf_matches_sympy_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0
                 for _ in range(nc)] for _ in range(nr)]
        ours = snf_columns(dense(rows)).diagonal
        assert ours == sympy_invariant_factors(rows)


def test_snf_permutation_invariance_and_rank_consistency():
    rng = random.Random(11)
    for _ in range(60):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        entries = {(r, c): rng.randint(-9, 9)
                   for r in range(nr) for c in range(nc)
                   if rng.random() < 0.5}
        entries = {k: v for k, v in entries.items() if v}
        M = sparse(nc, entries)
        snf = snf_columns(M)
        # divisibility chain
        for a, b in zip(snf.diagonal, snf.diagonal[1:]):
            assert b % a == 0
        # invariance under row/column shuffles
        pr = list(range(nr))
        pc = list(range(nc))
        rng.shuffle(pr)
        rng.shuffle(pc)
        M2 = sparse(nc, {(pr[r], pc[c]): v for (r, c), v in entries.items()})
        assert snf_columns(M2).diagonal == snf.diagonal
        # rank over Q equals SNF rank; rank over F_p counts units
        assert rank_columns(M) == snf.rank
        for p in (2, 3, 5):
            assert rank_columns(M, p) == snf.rank_mod(p)


def test_snf_spot_checks_see_a_wrong_smith_form(monkeypatch):
    from flagtor import exact_linalg as E

    assert E.snf_spot_checks(random.Random(3))
    snf_columns = E.snf_columns
    monkeypatch.setattr(E, "snf_columns",
                        lambda cols: E.SNFResult(snf_columns(cols).diagonal[1:]))
    assert not E.snf_spot_checks(random.Random(3))


def test_snf_spot_checks_see_a_wrong_reading_over_a_field(monkeypatch):
    from flagtor import exact_linalg as E

    rank_mod = E.SNFResult.rank_mod
    monkeypatch.setattr(E.SNFResult, "rank_mod",
                        lambda self, p: rank_mod(self, p) + (p == 3 and 3 in self.diagonal))
    assert not E.snf_spot_checks(random.Random(3))


def test_snf_spot_checks_draw_what_they_always_drew():
    # the F_p readings draw nothing, so every check-all keeps its matrices
    from flagtor import exact_linalg as E

    for seed, after in ((0, 637381822), (3, 2148813409)):
        rng = random.Random(seed)
        assert E.snf_spot_checks(rng)
        assert rng.getrandbits(32) == after


def unit_free(seed, n):
    """An n x n matrix with about 5 entries per column, each one of +-2,
    +-3, +-4, +-6, drawn from random.Random(seed): no entry is a unit."""
    rng = random.Random(seed)
    return [[(r, rng.choice((2, 3, 4, 6)) * rng.choice((1, -1)))
             for r in range(n) if rng.random() < 5 / n] for _ in range(n)]


# the nonzero invariant factors of unit_free(seed, n), each computed once
# by sympy (which lists the zeros too):
#   PYTHONPATH=src:tests python -c "import sympy as S, test_exact_linalg as T;
#     seed, n = 4, 40; cols = T.unit_free(seed, n);
#     print(S.matrices.normalforms.invariant_factors(S.Matrix(n, n,
#       lambda r, c: dict(cols[c]).get(r, 0)), domain=S.ZZ))"
# On (7, 60) that call did not end in 50 min.  Its matrix is nonsingular,
# so its diagonal multiplies out to sympy's det(method="bareiss"); each
# prime p of sympy's factorint of the determinant, to the power v, got its
# exponents from an elimination over Z/p^(v+1) on least p-valuations, which
# gives sympy's diagonals on (4, 40) and (7, 40).
UNIT_FREE = {
    (4, 40): (1,) * 28 + (2, 2, 2, 2, 2, 6, 12, 12, 36, 36, 36, 5628885723940485096),
    (7, 40): (1,) * 25 + (2,) * 11 + (4, 12, 36, 6017973347007994364928),
    (7, 60): (1,) * 38 + (2,) * 14 + (12,) * 5 + (36, 144, 274504467322237109720518309104),
    (21, 40): (1,) * 24 + (2,) * 8 + (4, 4, 12, 12, 12, 72, 216),
}


@pytest.mark.parametrize("seed, n", sorted(UNIT_FREE), ids=lambda v: str(v))
def test_snf_of_a_unit_free_matrix_ends_and_matches_sympy(seed, n):
    # no entry is a unit, so the first pivot is a least entry and its
    # remainders; entries once grew without bound there, past 9M bits
    # within 20 s on (4, 40)
    def too_slow(signum, frame):
        raise TimeoutError(f"the Smith form of unit_free({seed}, {n}) took over 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        diagonal = snf_columns(unit_free(seed, n)).diagonal
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert diagonal == UNIT_FREE[seed, n]


# Property tests.  Matrices with +-1 entries take most pivots on a unit;
# matrices without them leave every pivot to the least |v| and its
# remainders.  Both kinds are drawn.
WITH_UNITS = st.integers(-3, 3)
WITHOUT_UNITS = st.sampled_from([-6, -4, -3, -2, 0, 0, 0, 2, 3, 4, 6])


@st.composite
def dense_rows(draw, entries):
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 6))
    return draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))


MATRICES = st.one_of(dense_rows(WITH_UNITS), dense_rows(WITHOUT_UNITS))


@settings(max_examples=300, deadline=None)
@given(MATRICES)
def test_snf_property_matches_sympy_invariant_factors(rows):
    snf = snf_columns(dense(rows))
    assert snf.diagonal == sympy_invariant_factors(rows)
    assert rank_columns(dense(rows)) == snf.rank
    for p in (2, 3):
        assert rank_columns(dense(rows), p) == snf.rank_mod(p)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_snf_property_invariant_under_row_and_column_permutations(data):
    rows = data.draw(MATRICES)
    pr = data.draw(st.permutations(range(len(rows))))
    pc = data.draw(st.permutations(range(len(rows[0]))))
    shuffled = [[rows[r][c] for c in pc] for r in pr]
    assert snf_columns(dense(shuffled)).diagonal == \
        snf_columns(dense(rows)).diagonal


@st.composite
def sparse_matrices(draw, entries):
    """(rows, cols, {(r, c): v}) with v != 0 and about half the cells empty."""
    nr = draw(st.integers(1, 8))
    nc = draw(st.integers(1, 8))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)),
        entries.filter(bool), max_size=(nr * nc + 1) // 2))
    return nr, nc, cells


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_matrices(WITH_UNITS), sparse_matrices(WITHOUT_UNITS)),
       st.data())
def test_rank_kernels_property_match_smith_form(matrix, data):
    # each kernel on its own, with row keys spread out the way face
    # bitmasks are (F_2 columns are bitmasks over row positions)
    nr, nc, cells = matrix
    snf = snf_columns(sparse(nc, cells))
    keys = data.draw(st.lists(st.integers(0, 1 << 20), min_size=nr,
                              max_size=nr, unique=True))
    cols = [{} for _ in range(nc)]
    for (r, c), v in cells.items():
        cols[c][keys[r]] = v
    assert rank_rational_columns(cols) == snf.rank
    for p in (2, 3, 5):
        assert rank_mod_p_columns(cols, p) == snf.rank_mod(p)
    bits = [0] * nc
    for (r, c), v in cells.items():
        if v % 2:
            bits[c] |= 1 << r
    assert rank_gf2_columns(bits) == snf.rank_mod(2)


# ---------------------------------------------------------------------------
# the one trial division, and is_prime, prime_power_factors and
# series.moebius, which read it
# ---------------------------------------------------------------------------

def test_factorization_and_its_readers_match_brute_force():
    from flagtor.series import moebius
    top = 3000
    primes = [p for p in range(2, top + 1) if all(p % d for d in range(2, p))]
    for n in range(1, top + 1):
        pairs = []
        for p in primes:
            e, q = 0, n
            while q % p == 0:
                q //= p
                e += 1
            if e:
                pairs.append((p, e))
        assert list(factorization(n)) == pairs, n
        assert is_prime(n) == (pairs == [(n, 1)])
        if n > 1:
            assert prime_power_factors(n) == tuple(sorted(p ** e for p, e in pairs))
        squarefree = all(e == 1 for _, e in pairs)
        assert moebius(n) == ((-1) ** len(pairs) if squarefree else 0), n
    assert [n for n in range(-5, top + 1) if is_prime(n)] == primes


def test_factorization_stops_where_its_reader_stops():
    # past the small factor, trial division would try about 2^30 divisors
    # of 2^61 - 1; the alarm turns that into a failure within a second
    from flagtor.homology import Coefficients

    def too_slow(signum, frame):
        raise TimeoutError("the trial division ran past the smallest factor")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        assert next(factorization(3 ** 40 * (2 ** 61 - 1))) == (3, 40)
        with pytest.raises(NonPrimeModulusError):
            Coefficients("fp", 2 * (2 ** 61 - 1))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
