"""Series arithmetic, Poincare series, homotopy ranks, PBW round trips."""

import itertools
import math
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagtor import checks
from flagtor import complexes as C
from flagtor import hochster as Ho
from flagtor import homology as H
from flagtor import pontryagin as P
from flagtor import series as S
from flagtor.complexes import NotFlagError
from flagtor.series import MultiSeries, NonUnitConstantTermError


def test_inverse_geometric():
    f = MultiSeries(1, 8, {(0,): 1, (1,): -1})  # 1 - x
    inv = f.inverse()
    assert inv.terms == {(k,): 1 for k in range(9)}
    assert f.mul(inv) == MultiSeries.one(1, 8)


def test_neg_log_of_geometric():
    # -log(1 - x) = sum x^k / k, so D_k = k * (1/k) = 1
    f = MultiSeries(1, 6, {(0,): 1, (1,): -1})
    assert _log_derivative(f) == {(k,): 1 for k in range(1, 7)}


def test_inverse_factorizes():
    f = MultiSeries(2, 6, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    a = MultiSeries(2, 6, {(0, 0): 1, (1, 0): -1}).inverse()
    b = MultiSeries(2, 6, {(0, 0): 1, (0, 1): -1}).inverse()
    assert f.inverse() == a.mul(b)


def test_inverse_requires_unit():
    with pytest.raises(NonUnitConstantTermError):
        MultiSeries(1, 4, {(1,): 1}).inverse()


def test_poly_inverse_matches_the_series_inverse():
    rng = random.Random(67)
    for _ in range(80):
        a = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 9))]
        N = rng.randint(0, 12)
        inv = MultiSeries(1, N, {(d,): c for d, c in enumerate(a)}).inverse()
        assert S.poly_inverse(a, N) == [inv.coefficient((d,)) for d in range(N + 1)]
    for a in ([], [0, 1], [2, 1], [-1, 3]):
        with pytest.raises(NonUnitConstantTermError):
            S.poly_inverse(a, 4)


def test_inverse_roundtrip_random():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 3)
        terms = {tuple([0] * n): 1}
        for _ in range(rng.randint(1, 6)):
            key = tuple(rng.randint(0, 3) for _ in range(n))
            if any(key):
                terms[key] = rng.randint(-3, 3)
        f = MultiSeries(n, 6, terms)
        assert f.mul(f.inverse()) == MultiSeries.one(n, 6)


def test_poincare_of_four_cycle():
    K = C.cycle_complex(4)
    D = S.euler_denominator(K, 8)
    assert D.terms == {(0, 0, 0, 0): 1, (1, 0, 1, 0): -1,
                       (0, 1, 0, 1): -1, (1, 1, 1, 1): 1}
    F = S.poincare_ozk(K, 8)
    # 1/((1-x13)(1-x24)); Z-graded this is 1/(1-t^2)^2
    assert F.coefficient((2, 0, 2, 0)) == 1
    assert F.coefficient((1, 1, 1, 1)) == 1
    assert F.coefficient((1, 0, 0, 0)) == 0
    assert F.z_graded() == [1, 0, 2, 0, 3, 0, 4, 0, 5]
    assert S.poincare_ozk_t(K, 8) == [1, 0, 2, 0, 3, 0, 4, 0, 5]


def test_poincare_of_two_points():
    F = S.poincare_ozk(C.points(2), 8)
    for k in range(5):
        assert F.coefficient((k, k)) == 1


def test_poincare_of_simplex_is_one():
    F = S.poincare_ozk(C.simplex(4), 8)
    assert F == MultiSeries.one(4, 8)


def test_poincare_rejects_non_flag():
    with pytest.raises(NotFlagError):
        S.poincare_ozk(C.simplex_boundary(3), 8)


def test_panov_ray_four_cycle():
    ok, lhs, rhs = S.panov_ray_check(C.cycle_complex(4))
    assert ok
    assert lhs == [1, 0, -2, 0, 1]  # (1+t)^2 (1 - 2t + t^2) = 1 - 2t^2 + t^4


def test_panov_ray_disjoint_points_and_simplex():
    ok, _, _ = S.panov_ray_check(C.points(5))
    assert ok
    ok, lhs, rhs = S.panov_ray_check(C.simplex(4))
    assert ok and lhs == [1]


def test_homotopy_ranks_examples():
    assert S.homotopy_ranks(C.cycle_complex(4), 8) == {
        (1, 0, 1, 0): 1, (0, 1, 0, 1): 1}
    # loops on S^3: one generator, Moebius kills all higher diagonal terms
    assert S.homotopy_ranks(C.points(2), 8) == {(1, 1): 1}
    assert S.homotopy_ranks(C.points(1), 8) == {}


def test_pbw_reconstruct_examples():
    K = C.cycle_complex(4)
    ranks = S.homotopy_ranks(K, 8)
    assert S.pbw_reconstruct(ranks, 4, 8) == S.poincare_ozk(K, 8)
    # a single exterior generator gives the factor 1 + x^alpha
    one = S.pbw_reconstruct({(1, 0, 0): 1}, 3, 6)
    assert one.terms == {(0, 0, 0): 1, (1, 0, 0): 1}
    assert S.pbw_reconstruct({}, 3, 6) == MultiSeries.one(3, 6)


def test_chi_inequality_examples():
    K = C.cycle_complex(4)
    assert S.chi_inequality(K, (1, 1, 1, 1))[0] == 0
    assert S.chi_inequality(K, (1, 0, 1, 0))[0] == 1
    assert S.chi_inequality(K, (1, 0, 0, 0))[0] == 0


def _chi_by_faces(K, J):
    """chi~(K_J) = -sum over faces f of K_J, the empty face too, of (-1)^|f|."""
    return -sum((-1) ** f.bit_count() for f in K.faces if not f & ~J)


def _compositions(K, alpha):
    """sum_N (1/N) sum over ordered N-tuples of nonempty subsets of supp
    alpha that sum to alpha of the product of their chi~, term by term."""
    supp = [i for i, a in enumerate(alpha) if a]
    terms = []
    for S in range(1, 1 << len(supp)):
        J = sum(1 << i for pos, i in enumerate(supp) if S >> pos & 1)
        c = _chi_by_faces(K, J)
        if c:  # a zero factor adds nothing
            terms.append(([J >> i & 1 for i in range(K.m)], c))
    value = Fraction(0)
    for n in range(1, sum(alpha) + 1):
        for parts in itertools.product(terms, repeat=n):
            if [sum(col) for col in zip(*(v for v, _ in parts))] == list(alpha):
                value += Fraction(math.prod(c for _, c in parts), n)
    return value


def test_chi_inequality_is_the_sum_over_compositions():
    # gcd > 1 too, where the value is no homotopy rank: (2, 0, 2, 0, 0)
    # gives 1/2 on cycle:5
    rng = random.Random(5)
    nonzero = 0
    for K in (C.cycle_complex(5), C.cross_polytope(3),
              C.random_flag(6, 0.5, 1), C.random_flag(7, 0.4, 3)):
        alphas = [(2, 2), (2, 0, 2), (3, 0, 3), (1, 2, 0, 1), (1, 1, 1, 1), (2, 1, 1, 2)]
        for _ in range(6):
            alphas.append([rng.randint(0, 2) for _ in range(4)])
        for alpha in alphas:
            alpha = tuple(alpha) + (0,) * (K.m - len(alpha))
            value = _compositions(K, alpha)
            assert S.chi_inequality(K, alpha) == (value, value >= 0), (K.m, alpha)
            nonzero += value != 0
    assert nonzero > 10


def _gcd(alpha):
    g = 0
    for a in alpha:
        g = gcd(g, a)
    return g


def test_chi_inequality_matches_ranks_when_gcd_one():
    for seed in range(4):
        K = C.random_flag(6, 0.5, seed)
        ranks = S.homotopy_ranks(K, 6)
        sampled = [a for a in ranks if _gcd(a) == 1][:6]
        for alpha in sampled:
            val, ok = S.chi_inequality(K, alpha)
            assert ok and val == ranks[alpha]


def test_odj_series_of_four_cycle():
    K = C.cycle_complex(4)
    F = S.poincare_odj(K, 6)
    assert F.z_graded() == [1, 4, 8, 12, 16, 20, 24]
    counts = P.normal_word_counts(K, 6)
    for alpha, c in counts.items():
        assert F.coefficient(alpha) == c
    for alpha, v in F.terms.items():
        assert counts.get(alpha, 0) == v


def test_odj_matches_free_word_count_for_points():
    # no edges: the dual algebra is the tensor algebra mod squares
    K = C.points(4)
    F = S.poincare_odj(K, 5)
    counts = P.normal_word_counts(K, 5)
    for alpha, v in F.terms.items():
        assert counts.get(alpha, 0) == v


def test_series_times_denominator_is_one_on_flag_complexes():
    for seed in range(3):
        K = C.random_flag(6, 0.5, seed)
        D = S.euler_denominator(K, 8)
        F = S.poincare_ozk(K, 8)
        assert F.mul(D) == MultiSeries.one(K.m, 8)


def test_moebius():
    assert [S.moebius(n) for n in range(1, 11)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_poincare_coefficients_are_nonnegative_integers():
    rng = random.Random(71)
    for seed in range(5):
        K = C.random_flag(6, 0.5, seed)
        F = S.poincare_ozk(K, 6)
        for v in F.terms.values():
            assert isinstance(v, int) and v >= 0


# ---------------------------------------------------------------------------
# differential tests against the plain product formulas
# ---------------------------------------------------------------------------

def _neg_log_power_sum(f):
    """-log f = sum_k (1 - f)^k / k, by repeated products."""
    n, N = f.nvars, f.trunc
    u = MultiSeries(n, N, {k: -v for k, v in f.terms.items() if any(k)})
    out = {}
    power = MultiSeries.one(n, N)
    for k in range(1, N + 1):
        power = power.mul(u)
        for a, v in power.terms.items():
            out[a] = out.get(a, 0) + Fraction(v, k)
    return MultiSeries(n, N, out)


def _log_derivative(f):
    """D = E(-log f) by the package's recurrence, as {alpha: coefficient};
    E multiplies each degree-d term by d."""
    buckets = S._log_derivative(f._buckets, f.trunc)
    return {S._unpack(k, f.nvars): v for b in buckets.values() for k, v in b.items()}


def _ranks_oracle(K, N):
    """Moebius inversion of the power-sum logarithm, in Fractions."""
    chi = C.chi_subcomplexes(K)
    f = {}
    for J, c in enumerate(chi):
        d = J.bit_count()
        if c and d <= N:
            f[tuple((J >> i) & 1 for i in range(K.m))] = -c * (-1) ** d
    w = _neg_log_power_sum(MultiSeries(K.m, N, f))
    candidates = {tuple(k * a for a in beta)
                  for beta in w.terms for k in range(1, N // sum(beta) + 1)}
    ranks = {}
    for alpha in sorted(candidates):
        g = _gcd(alpha)
        total = sum(Fraction(S.moebius(k), k)
                    * w.coefficient(tuple(a // k for a in alpha))
                    for k in range(1, g + 1) if g % k == 0)
        val = total if sum(alpha) % 2 == 0 else -total
        if val:
            assert val.denominator == 1 and val > 0
            ranks[alpha] = int(val)
    return ranks


def _pbw_oracle(ranks, nvars, N):
    """One full product per generator of degree <= N/2; the rest have no
    surviving cross-terms and fold into one factor 1 + sum l x^alpha."""
    acc = MultiSeries.one(nvars, N)
    tail = {tuple([0] * nvars): 1}
    for alpha in sorted(ranks):
        l, d = ranks[alpha], sum(alpha)
        if 2 * d > N:
            tail[alpha] = l
            continue
        terms = {}
        for j in range(N // d + 1):
            c = comb(l - 1 + j, j) if d % 2 == 0 else comb(l, j)
            if c:
                terms[tuple(j * a for a in alpha)] = c
        acc = acc.mul(MultiSeries(nvars, N, terms))
    return acc.mul(MultiSeries(nvars, N, tail))


def test_ranks_and_pbw_match_product_oracles():
    rng = random.Random(89)
    for seed in range(10):
        K = C.random_flag(rng.randint(2, 8), rng.choice([0.3, 0.5, 0.7]), seed)
        ranks = S.homotopy_ranks(K, 8)
        expected = _ranks_oracle(K, 8)
        assert list(ranks.items()) == list(expected.items())
        F = S.pbw_reconstruct(ranks, K.m, 8)
        assert F == _pbw_oracle(ranks, K.m, 8) == S.poincare_ozk(K, 8)


def test_neg_log_matches_power_sum():
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randint(1, 3)
        N = rng.randint(1, 6)
        terms = {tuple([0] * n): 1}
        for _ in range(rng.randint(1, 6)):
            key = tuple(rng.randint(0, 3) for _ in range(n))
            if any(key):
                terms[key] = rng.randint(-3, 3)
        f = MultiSeries(n, N, terms)
        w = _neg_log_power_sum(f)
        assert _log_derivative(f) == {a: sum(a) * v for a, v in w.terms.items()}


def test_ranks_reject_non_flag_input_that_passes_the_gate(monkeypatch):
    monkeypatch.setattr(S, "require_flag", lambda K, what: None)
    with pytest.raises(S.IntegralityViolationError,
                       match=r"rank at \(1, 1, 1\) is -1"):
        S.homotopy_ranks(C.simplex_boundary(3), 8)


def _count(monkeypatch, module, name, calls):
    """Wrap module.name so that each call adds one to calls[name]."""
    fn = getattr(module, name)
    calls[name] = 0

    def counted(*args):
        calls[name] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)


def test_check_all_builds_the_chi_table_and_denominator_once(monkeypatch):
    # every series check of a flag complex with m <= 10 reads the same two
    # memoized tuples: one chi~ transform, one Z-graded denominator
    K = C.random_flag(8, 0.4, 1)
    Ho.clear_cache()
    calls = {}
    for module, name in ((C, "_chi_subcomplexes"), (S, "_euler_denominator_t"),
                         (C, "chi_subcomplexes"), (S, "euler_denominator_t")):
        _count(monkeypatch, module, name, calls)
    assert all(ok for _, ok, _ in checks.check_all(K, H.INTEGERS, 8))
    assert calls["_chi_subcomplexes"] == calls["_euler_denominator_t"] == 1
    assert calls["chi_subcomplexes"] > 1 and calls["euler_denominator_t"] > 1
    assert type(C.chi_subcomplexes(K)) is tuple
    assert type(S.euler_denominator_t(K)) is tuple


# ---------------------------------------------------------------------------
# byte-packed keys, the PBW fold and the per-complex memo
# ---------------------------------------------------------------------------

def _vector_pairs(n):
    vec = st.tuples(*[st.integers(0, S._MAXTRUNC)] * n)
    return st.tuples(vec, vec)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 24).flatmap(_vector_pairs))
def test_packed_keys_roundtrip_keep_order_and_add_coordinatewise(pair):
    a, b = pair
    ka, kb = S._pack(a), S._pack(b)
    assert S._unpack(ka, len(a)) == a
    assert (ka < kb) == (a < b)
    assert S._unpack(ka + kb, len(a)) == tuple(x + y for x, y in zip(a, b))


@pytest.mark.parametrize("terms", [{(-1, 2): 5}, {(1,): 5}, {(1, 2, 0): 5}])
def test_series_rejects_keys_that_are_not_exponent_vectors(terms):
    with pytest.raises(ValueError):
        MultiSeries(2, 8, terms)


def test_series_cuts_terms_with_an_exponent_above_the_truncation():
    assert MultiSeries(2, 3, {(0, 0): 1, (4, 0): 5, (2, 2): 7}).terms == {(0, 0): 1}


@pytest.mark.parametrize("alpha", [(-1, 2), (1,), (1, 2, 0), (4, 0), (2, 2)])
def test_coefficient_rejects_bad_vectors(alpha):
    F = MultiSeries(2, 3, {(0, 0): 1, (1, 2): 4})
    assert F.coefficient((1, 2)) == 4
    with pytest.raises(ValueError):
        F.coefficient(alpha)
    # (2, 2) has total degree 4 > 3: a series cut at 3 does not know its
    # coefficient, which for 1/(1 - x - y) is C(4, 2) = 6
    f = {(0, 0): 1, (1, 0): -1, (0, 1): -1}
    assert MultiSeries(2, 4, f).inverse().coefficient((2, 2)) == 6


def _pbw_per_generator(ranks, nvars, trunc):
    """The in-place product with every generator's factor multiplied in
    separately, in sorted order: the reference for the fold."""
    acc = MultiSeries.one(nvars, trunc)
    buckets = acc._buckets
    for alpha in sorted(ranks):
        l, d = ranks[alpha], sum(alpha)
        if l == 0 or d > trunc:
            continue
        top = trunc // d if d % 2 == 0 else min(l, trunc // d)
        coeffs = [comb(l - 1 + j, j) if d % 2 == 0 else comb(l, j)
                  for j in range(1, top + 1)]
        step = S._pack(alpha)
        for e in range(trunc - d, -1, -1):
            src = buckets.get(e)
            if not src:
                continue
            for j, c in enumerate(coeffs[:(trunc - e) // d], 1):
                tgt = buckets.setdefault(e + j * d, {})
                for k, v in src.items():
                    k += step * j
                    tgt[k] = tgt.get(k, 0) + c * v
    return acc


def test_pbw_fold_matches_the_per_generator_product():
    rng = random.Random(101)
    for trial in range(120):
        nvars = rng.randint(1, 4)
        trunc = rng.randint(1, 9)
        ranks = {}
        # degrees around trunc/2, where the fold starts, and any others
        for d in [trunc // 2, (trunc + 1) // 2, trunc // 2 + 1] + \
                [rng.randint(1, trunc + 1) for _ in range(rng.randint(0, 8))]:
            cuts = sorted(rng.randint(0, d) for _ in range(nvars - 1))
            alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
            if any(alpha):
                ranks[alpha] = rng.choice([0, 1, 1, 2, 3, 7])
        got = S.pbw_reconstruct(ranks, nvars, trunc)
        assert got == _pbw_per_generator(ranks, nvars, trunc), (ranks, trunc)
    K = C.random_flag(7, 0.5, 3)
    for trunc in (7, 8):
        ranks = S.homotopy_ranks(K, trunc)
        assert S.pbw_reconstruct(ranks, K.m, trunc) == \
            _pbw_per_generator(ranks, K.m, trunc) == S.poincare_ozk(K, trunc)


def _counting(monkeypatch):
    """Count calls to MultiSeries.inverse and series._log_derivative."""
    calls = {"inverse": 0, "log": 0}
    inverse, log = MultiSeries.inverse, S._log_derivative

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counted_log(*args):
        calls["log"] += 1
        return log(*args)

    monkeypatch.setattr(MultiSeries, "inverse", counted_inverse)
    monkeypatch.setattr(S, "_log_derivative", counted_log)
    return calls


def _relabel(K, perm):
    """K with vertex v renamed perm[v - 1]."""
    return C.from_facets(K.m, [[perm[v - 1] for v in f] for f in K.facet_lists()])


def test_series_memo_is_read_only_and_per_complex(monkeypatch):
    Ho.clear_cache()
    calls = _counting(monkeypatch)
    K = C.random_flag(7, 0.5, 4)
    ranks = S.homotopy_ranks(K, 8)
    F = S.poincare_ozk(K, 8)
    with pytest.raises(TypeError):
        ranks[(1,) * K.m] = 1
    with pytest.raises(TypeError):
        del ranks[next(iter(ranks))]
    # an equal complex built anew, and lower truncations, are read off
    again = C.from_facets(K.m, [list(f) for f in K.facet_lists()])
    assert S.homotopy_ranks(again, 8) is ranks
    assert S.poincare_ozk(again, 8) is F
    assert list(S.homotopy_ranks(K, 5).items()) == \
        [(a, r) for a, r in ranks.items() if sum(a) <= 5]
    assert S.poincare_ozk(K, 4) == MultiSeries(K.m, 4, F.terms)
    assert calls == {"inverse": 1, "log": 1}
    assert list(ranks) == sorted(ranks)
    # a relabelled isomorphic complex gets its own tables
    perm = [3, 1, 7, 2, 6, 4, 5]
    L = _relabel(K, perm)
    assert L != K
    moved = {tuple(a[perm.index(i + 1)] for i in range(K.m)): r
             for a, r in ranks.items()}
    assert dict(S.homotopy_ranks(L, 8)) == moved
    assert list(S.homotopy_ranks(L, 8)) == sorted(moved)
    assert S.poincare_ozk(L, 8).terms == {
        tuple(a[perm.index(i + 1)] for i in range(K.m)): v
        for a, v in F.terms.items()}
    assert calls == {"inverse": 2, "log": 2}
    # only the last complex is kept; a higher truncation is rebuilt
    assert S.homotopy_ranks(K, 8) == ranks
    assert S.homotopy_ranks(K, 9) is S.homotopy_ranks(K, 9)
    assert calls["log"] == 4


def test_second_check_all_on_one_complex_inverts_nothing(monkeypatch):
    K = C.random_flag(8, 0.5, 2)
    checks.check_all(K, H.INTEGERS, 8)
    calls = _counting(monkeypatch)
    again = C.from_facets(K.m, [list(f) for f in K.facet_lists()])
    assert all(ok for _, ok, _ in checks.check_all(again, H.GF(3), 8))
    assert calls == {"inverse": 0, "log": 0}
