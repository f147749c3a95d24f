"""Truncated multigraded power series with exact coefficients.

A series in m variables is a finite map from exponent vectors to exact
numbers (Python ints, or Fractions where logarithms force them), cut off
at a total-degree bound.  The monomial keyed by alpha stands for
t^{-|alpha|} lambda^{2 alpha}: in the flag case every Poincare series in
scope is supported on that diagonal, and the one series that is not (the
loop homology of the ambient polyhedral-product space) differs from a
diagonal one by the factor prod (1 + t^{-1} lambda_i^2), whose terms are
again diagonal monomials.  Serializers restore the (t, lambda) exponents
on output.

The series functions take K alone and read one table, chi~(K_J) for
every J, from ``complexes.chi_subcomplexes``.  It, the Z-graded
denominator, the series F and the rank table are held in K's memo
(``complexes.tables``), until an unrelated complex is asked for.

Internally an exponent vector is packed into an integer, one byte per
variable with the first variable in the most significant byte, and terms
are bucketed by total degree.  Every exponent is at most the truncation,
which is capped at 31, so a sum of keys never carries across a byte:
convolution runs on plain integer additions, which is what makes the
degree-8 products over eight variables cheap, and the integer order of
the keys is the lexicographic order of the vectors.

``poincare_ozk`` and ``homotopy_ranks`` hold F and the rank table at the
highest truncation asked for so far; a lower truncation is read off
them, since no term of degree <= t depends on a higher one.  Both are
returned read-only: F as a ``MultiSeries`` that no caller mutates, the
ranks as a ``MappingProxyType``.

The inverse and the logarithm are one division: ``_divide`` solves
q f = h degree by degree for f with constant term 1, one bucket
convolution.  ``MultiSeries.inverse`` divides 1 by f, and so does
``poly_inverse`` for the Z-graded series, whose coefficient lists it
reads as buckets of one key each (the key 0, so every sum of keys is 0).
Logarithms come from the Euler operator E (degree d times d):
D = E(-log f) satisfies D f = -E f, so ``_log_derivative`` divides -E f
by f, and D stays in the integers when f is integral.  Homotopy ranks
are read off D by Moebius inversion with one exact division each, and
the PBW round trip multiplies each generator's factor into one
accumulator in place, those of degree above trunc/2 all at once.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from types import MappingProxyType

from . import complexes
from .complexes import f_vector, require_flag
from .exact_linalg import factorization

_MAXTRUNC = 31


class NonUnitConstantTermError(ValueError):
    pass


class IntegralityViolationError(ValueError):
    """A quantity that must be a non-negative integer came out otherwise."""


# A series in m variables up to total degree t can hold C(m + t, t) terms.
# Under a 3 GB address-space limit, at t = 8: m = 17 (1,081,575 terms)
# runs `series` in 31 s and 699 MB and `ranks` in 45 s and 743 MB, so the
# budget admits it; m = 18 (1,562,275) is refused, where `series` ran out
# of memory with the json.dumps writer (it now fits in 1,033 MB).
SERIES_BUDGET = 1_500_000
# chi_inequality's subset walk takes at most |alpha| * prod(2 alpha_i + 1)
# box steps.  On random-flag:16:40:1 with alpha = 1^n: n = 14 (67M steps)
# runs in 4.5 s, n = 16 (689M) in 35 s; the budget admits the first.
CHI_BUDGET = 100_000_000


def _check_series_budget(K, trunc):
    """Raise before building a series in K.m variables to degree trunc
    that could hold more than SERIES_BUDGET terms; check the sweep cap
    first, since the series reads chi~ of every full subcomplex."""
    complexes.check_sweep_cap(K)
    terms = comb(K.m + trunc, trunc)
    if terms > SERIES_BUDGET:
        raise complexes.exceeded("series.SERIES_BUDGET", SERIES_BUDGET,
                                 f"a series in {K.m} variables to total degree "
                                 f"{trunc} can hold {terms} terms")


def _pack(alpha):
    return int.from_bytes(bytes(alpha), "big")


def _unpack(key, nvars):
    return tuple(key.to_bytes(nvars, "big"))


def _check_vector(alpha, nvars):
    if len(alpha) != nvars or min(alpha, default=0) < 0:
        raise ValueError(f"{tuple(alpha)} is not an exponent vector "
                         f"of length {nvars}")


def _divide(h, f, trunc):
    """Buckets of q = h / f up to degree trunc, for f with constant term 1.

    h and f are buckets.  From q f = h and f_0 = 1, degree by degree,

        q_d = h_d - sum_{0<j<=d} f_j q_{d-j},

    one bucket convolution; q is integral whenever h and f are.
    """
    out = {}
    for d in range(trunc + 1):
        cur = dict(h.get(d, ()))
        for j in range(1, d + 1):
            fb, prev = f.get(j), out.get(d - j)
            if not fb or not prev:
                continue
            prev = list(prev.items())
            for k1, v1 in fb.items():
                for k2, v2 in prev:
                    k = k1 + k2
                    cur[k] = cur.get(k, 0) - v1 * v2
        cur = {k: v for k, v in cur.items() if v}
        if cur:
            out[d] = cur
    return out


def _log_derivative(buckets, trunc):
    """Buckets of D = E(-log f) for a series f with constant term 1.

    E is the Euler operator, which multiplies each degree-d term by d.
    From E(log f) * f = E f, D is the quotient -E f / f.
    """
    minus_ef = {d: {k: -d * v for k, v in b.items()} for d, b in buckets.items() if d}
    return _divide(minus_ef, buckets, trunc)


class MultiSeries:
    """A truncated formal power series over exact rationals.

    ``terms`` maps exponent vectors (nvars non-negative ints) to
    coefficients; a term of total degree above ``trunc`` is cut off, and
    any other key raises ``ValueError``.  ``coefficient`` raises on a
    vector of total degree above ``trunc``, whose coefficient the series
    does not hold, as well as on one that is not an exponent vector.
    """

    __slots__ = ("nvars", "trunc", "_buckets")

    def __init__(self, nvars, trunc, terms=None, _buckets=None):
        if not 0 <= trunc <= _MAXTRUNC:
            raise ValueError(f"truncation must be in 0..{_MAXTRUNC}")
        self.nvars = nvars
        self.trunc = trunc
        self._buckets = {}
        if _buckets is not None:
            for d, b in _buckets.items():
                if d <= trunc and b:
                    self._buckets[d] = dict(b)
        elif terms:
            for k, v in terms.items():
                _check_vector(k, nvars)
                d = sum(k)
                if v and d <= trunc:
                    self._buckets.setdefault(d, {})[_pack(k)] = v

    @classmethod
    def one(cls, nvars, trunc):
        return cls(nvars, trunc, _buckets={0: {0: 1}})

    @property
    def terms(self):
        out = {}
        for b in self._buckets.values():
            for k, v in b.items():
                out[_unpack(k, self.nvars)] = v
        return out

    def coefficient(self, alpha):
        _check_vector(alpha, self.nvars)
        d = sum(alpha)
        if d > self.trunc:
            raise ValueError(f"{tuple(alpha)} has total degree above the "
                             f"truncation {self.trunc}")
        return self._buckets.get(d, {}).get(_pack(alpha), 0)

    def __eq__(self, other):
        if not isinstance(other, MultiSeries) or self.nvars != other.nvars:
            return NotImplemented
        mine = {d: b for d, b in self._buckets.items() if b}
        theirs = {d: b for d, b in other._buckets.items() if b}
        return mine == theirs

    def __repr__(self):
        parts = [f"{v}*x^{k}" for k, v in sorted(self.terms.items())[:6]]
        more = "..." if sum(len(b) for b in self._buckets.values()) > 6 else ""
        return (f"MultiSeries(n={self.nvars}, N={self.trunc}, "
                f"{' + '.join(parts)}{more})")

    def mul(self, other):
        trunc = min(self.trunc, other.trunc)
        out = {}
        for d1, b1 in self._buckets.items():
            if d1 > trunc:
                continue
            for d2, b2 in other._buckets.items():
                d = d1 + d2
                if d > trunc:
                    continue
                tgt = out.setdefault(d, {})
                for k1, v1 in b1.items():
                    for k2, v2 in b2.items():
                        k = k1 + k2
                        nv = tgt.get(k, 0) + v1 * v2
                        if nv:
                            tgt[k] = nv
                        else:
                            del tgt[k]
        return MultiSeries(self.nvars, trunc, _buckets=out)

    def inverse(self):
        """Degree-by-degree inverse of a series with constant term 1."""
        if self._buckets.get(0, {}).get(0, 0) != 1:
            raise NonUnitConstantTermError("constant term must be 1")
        return MultiSeries(self.nvars, self.trunc,
                           _buckets=_divide({0: {0: 1}}, self._buckets, self.trunc))

    def z_graded(self):
        """Collapse to totals per degree: list indexed by |alpha|."""
        out = [0] * (self.trunc + 1)
        for d, b in self._buckets.items():
            out[d] = sum(b.values())
        return out


# ---------------------------------------------------------------------------
# univariate helpers (plain coefficient lists, usable at any m <= 24)
# ---------------------------------------------------------------------------

def poly_mul(a, b, trunc=None):
    n = len(a) + len(b) - 1 if trunc is None else min(trunc + 1, len(a) + len(b) - 1)
    out = [0] * n
    for i, x in enumerate(a):
        if x == 0 or i >= n:
            continue
        for j, y in enumerate(b):
            if i + j < n and y:
                out[i + j] += x * y
    return out


def poly_inverse(a, trunc):
    """1 / a to degree trunc, by ``_divide`` on buckets of one key each."""
    if not a or a[0] != 1:
        raise NonUnitConstantTermError("constant term must be 1")
    q = _divide({0: {0: 1}}, {d: {0: c} for d, c in enumerate(a) if c}, trunc)
    return [q.get(d, {}).get(0, 0) for d in range(trunc + 1)]


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


# ---------------------------------------------------------------------------
# Poincare series of the loop homology algebras
# ---------------------------------------------------------------------------

def euler_denominator(K, trunc):
    """The polynomial -sum_J chi~(K_J) x^J (constant term 1)."""
    buckets = {}
    for J, c in enumerate(complexes.chi_subcomplexes(K)):
        d = J.bit_count()
        if c and d <= trunc:
            key = _pack(tuple((J >> i) & 1 for i in range(K.m)))
            buckets.setdefault(d, {})[key] = -c
    return MultiSeries(K.m, trunc, _buckets=buckets)


def euler_denominator_t(K):
    """The Z-graded specialization -sum_J chi~(K_J) t^{|J|}, degrees 0..m."""
    return complexes.memo(K, "denominator", _euler_denominator_t)


def _euler_denominator_t(K):
    denom = [0] * (K.m + 1)
    for J, c in enumerate(complexes.chi_subcomplexes(K)):
        denom[J.bit_count()] -= c
    return tuple(denom)


def _memoized(K, name, trunc, build, cut):
    """K's table ``name`` at truncation trunc, built at most once per K.

    The table is held in K's memo as [its truncation, the table], at the
    highest truncation asked for so far; a lower one is ``cut(table, trunc)``.
    """
    held = complexes.memo(K, name, lambda K: [trunc, build(K, trunc)])
    if held[0] < trunc:
        held[:] = trunc, build(K, trunc)
    return held[1] if held[0] == trunc else cut(held[1], trunc)


def poincare_ozk(K, trunc):
    """Multigraded Poincare series of the loop homology of Z_K (flag case).

    Coefficient at alpha = dim of the (-|alpha|, 2 alpha) component.
    Held in K's memo; the result must not be mutated.
    """
    require_flag(K, "series.poincare_ozk")
    _check_series_budget(K, trunc)
    return _memoized(K, "F", trunc,
                     lambda K, trunc: euler_denominator(K, trunc).inverse(),
                     lambda F, trunc: MultiSeries(F.nvars, trunc, _buckets=F._buckets))


def poincare_ozk_t(K, trunc):
    """The Z-graded specialization, as a coefficient list in t."""
    require_flag(K, "series.poincare_ozk_t")
    return poly_inverse(euler_denominator_t(K), trunc)


def poincare_odj(K, trunc):
    """Series of the loop homology of the ambient polyhedral-product space.

    Equals the Z_K series times prod_i (1 + x_{e_i}); its coefficient at
    alpha counts the normal words with letter multiset alpha.
    """
    F = poincare_ozk(K, trunc)
    zero = tuple([0] * K.m)
    for i in range(K.m):
        e = tuple(1 if j == i else 0 for j in range(K.m))
        F = F.mul(MultiSeries(K.m, trunc, {zero: 1, e: 1}))
    return F


def panov_ray_check(K):
    """(1+t)^{m-n} sum h_i (-t)^i == -sum_J chi~(K_J) t^{|J|}, exactly.

    n = dim K + 1; returns (ok, lhs, rhs) as coefficient lists.
    """
    require_flag(K, "series.panov_ray_check")
    fv = f_vector(K)
    n = K.dim + 1
    lhs = [comb(K.m - n, j) for j in range(K.m - n + 1)]
    hpoly = [h * (-1) ** i for i, h in enumerate(fv.h)]
    lhs = _trim(poly_mul(lhs, hpoly))
    rhs = _trim(list(euler_denominator_t(K)))
    return lhs == rhs, lhs, rhs


# ---------------------------------------------------------------------------
# rational homotopy ranks
# ---------------------------------------------------------------------------

def moebius(n):
    mu = 1
    for _, e in factorization(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def homotopy_ranks(K, trunc):
    """Ranks of the rational homotopy of Z_K per halved multidegree.

    l_alpha = dim of pi in degree (-|alpha|, 2 alpha).  With w =
    -log(-sum_J chi~(K_J)(-x)^J) and D_beta = |beta| w_beta (all integers,
    from ``_log_derivative``), Moebius inversion over the common divisors
    of the coordinates gives

        l_alpha = (-1)^|alpha| (1/|alpha|) sum_{k | gcd alpha} mu(k) D_{alpha/k}.

    The sum runs on packed keys: D_beta feeds alpha = k beta for every k
    with k |beta| <= trunc.  Raises if a value fails to be a non-negative
    integer (which cannot happen for genuine flag input).  Held in K's
    memo, and returned read-only in ascending order of alpha.
    """
    require_flag(K, "series.homotopy_ranks")
    _check_series_budget(K, trunc)
    return _memoized(K, "ranks", trunc, _homotopy_ranks,
                     lambda ranks, trunc: MappingProxyType(
                         {a: r for a, r in ranks.items() if sum(a) <= trunc}))


def _homotopy_ranks(K, trunc):
    # the Euler denominator at -x, an integer series with constant term 1
    f = {d: ({k: -v for k, v in b.items()} if d % 2 else b)
         for d, b in euler_denominator(K, trunc)._buckets.items()}
    mus = [(k, mu) for k in range(1, trunc + 1) if (mu := moebius(k))]
    sums = {}
    for d, b in _log_derivative(f, trunc).items():
        for key, v in b.items():
            for k, mu in mus:
                if k * d > trunc:
                    break
                sums[key * k] = sums.get(key * k, 0) + mu * v
    ranks = {}
    for key in sorted(key for key, total in sums.items() if total):
        alpha = _unpack(key, K.m)
        d = sum(alpha)
        total = sums[key] if d % 2 == 0 else -sums[key]
        if total < 0 or total % d:
            raise IntegralityViolationError(
                f"rank at {alpha} is {Fraction(total, d)}; "
                "non-flag input smuggled in?")
        ranks[alpha] = total // d
    return MappingProxyType(ranks)


def pbw_reconstruct(ranks, nvars, trunc):
    """Rebuild the Poincare series from homotopy ranks.

    Each even-|alpha| generator contributes 1/(1-x^alpha)^l = sum_j
    C(l-1+j, j) x^{j alpha}, each odd-|alpha| one (1+x^alpha)^l = sum_j
    C(l, j) x^{j alpha}; the result must equal the loop homology series.
    Every factor multiplies the accumulator in place, walking its degree
    buckets downwards so that no term is read after it has been updated.
    A generator of degree d with 2d > trunc keeps only the linear term
    l x^alpha of its factor, and that term meets only terms of degree
    < d; these generators are multiplied in last, one bucket convolution
    per degree.
    """
    acc = MultiSeries.one(nvars, trunc)
    buckets = acc._buckets
    high = {}
    for alpha, l in ranks.items():
        if l < 0:
            raise ValueError("ranks must be non-negative")
        d = sum(alpha)
        if l == 0 or d > trunc:
            continue
        if 2 * d > trunc:
            high.setdefault(d, {})[_pack(alpha)] = l
            continue
        top = trunc // d if d % 2 == 0 else min(l, trunc // d)
        coeffs = [comb(l - 1 + j, j) if d % 2 == 0 else comb(l, j)
                  for j in range(1, top + 1)]
        step = _pack(alpha)
        for e in range(trunc - d, -1, -1):  # higher buckets have no target in range
            src = buckets.get(e)
            if not src:
                continue
            for j, c in enumerate(coeffs[:(trunc - e) // d], 1):
                shift = step * j
                tgt = buckets.setdefault(e + j * d, {})
                for k, v in src.items():
                    k += shift
                    tgt[k] = tgt.get(k, 0) + c * v
    # sources have degree <= trunc - d < trunc/2 and targets degree >= d
    for d, gens in high.items():
        for e in range(trunc - d + 1):
            src = buckets.get(e)
            if not src:
                continue
            tgt = buckets.setdefault(e + d, {})
            for step, l in gens.items():
                for k, v in src.items():
                    k += step
                    tgt[k] = tgt.get(k, 0) + l * v
    return acc


def chi_inequality(K, alpha):
    """Direct compositional value sum_N (1/N) sum over alpha = J_1+..+J_N.

    The J_i are nonempty vertex subsets summing to alpha coordinatewise,
    and the inner sum, of the products of the chi~(K_{J_i}), is the x^alpha
    coefficient of g^N for g = sum chi~(K_J) x^J over nonempty J in
    supp(alpha): each power is one product more, cut to the box below
    alpha.  For gcd(alpha) = 1 this equals the homotopy rank at alpha, and
    it is non-negative for every flag complex.  Returns (value, value >= 0),
    or raises before any work past CHI_BUDGET box steps.
    """
    require_flag(K, "series.chi_inequality")
    steps = sum(alpha) * prod(2 * a + 1 for a in alpha)
    if steps > CHI_BUDGET:
        raise complexes.exceeded("series.CHI_BUDGET", CHI_BUDGET,
                                 f"|alpha| = {sum(alpha)} takes up to {steps} box steps")
    chi = complexes.chi_subcomplexes(K)
    supp = [(i, a) for i, a in enumerate(alpha) if a]
    # a vector in the box is a number in mixed radix a + 1 over supp, so
    # adding a subset that misses every coordinate at its bound never carries
    places = [prod(a + 1 for _, a in supp[:pos]) for pos in range(len(supp))]
    g = {}  # subset S of positions in supp -> (its vector as a number, chi~)
    for S in range(1, 1 << len(supp)):
        c = chi[sum(1 << i for pos, (i, _) in enumerate(supp) if S >> pos & 1)]
        if c:
            g[S] = sum(p for pos, p in enumerate(places) if S >> pos & 1), c
    top = prod(a + 1 for _, a in supp) - 1  # alpha itself
    value, power = Fraction(0), {0: 1}
    for n in range(1, sum(a for _, a in supp) + 1):
        product = {}
        for k, c in power.items():
            free = S = sum(1 << pos for pos, ((_, a), p) in enumerate(zip(supp, places))
                           if k // p % (a + 1) < a)
            while S:  # the nonempty subsets of free
                if S in g:
                    step, x = g[S]
                    product[k + step] = product.get(k + step, 0) + c * x
                S = (S - 1) & free
        power = product
        value += Fraction(power.get(top, 0), n)
    return value, value >= 0
