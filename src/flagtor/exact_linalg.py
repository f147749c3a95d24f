"""Exact rank and Smith normal form for sparse integer matrices.

Everything runs on arbitrary-precision Python integers: ranks over Q are
computed by fraction-free elimination, ranks over F_p by modular
elimination (with a bitset fast path for p = 2), and torsion over Z via
the Smith normal form.  The Smith form is one elimination loop over a
column index: a +-1 pivot splits off as an invariant factor 1 in one
pass (after Dumas, Heckenbach, Saunders and Welker, "Computing simplicial
homology based on efficient Smith normal form algorithms", 2003), and
where no row has one, the least entry pivots and each remainder it
leaves, the least first, pivots next.  No floating point is used
anywhere.

The one matrix format is columns: ``rank_columns`` and ``snf_columns``
take [(row, value), ...] lists whose rows are indices 0, 1, ... of the
target basis; homology keys them by ``position``, a face's index among
the faces of its dimension.  ``rank_columns`` is the one place where a
field picks its kernel, and ``homology.chain_homology`` the one place
that chooses between a field and Z.  Pivot choices follow the row order,
and results do not depend on it.  ``snf_spot_checks`` tests the Smith
form on random matrices for ``checks.check_all``; ``SNFResult.rank_mod``
is the reference rank over F_p that tests hold the F_p kernels to.

``factorization`` is the package's one trial division: ``is_prime``,
``prime_power_factors``, ``series.moebius`` and
``hochster.torsion_primes`` read it, each only as far as it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class NonPrimeModulusError(ValueError):
    """The modulus passed for an F_p computation is not prime."""


def factorization(n):
    """The prime factorization of n >= 1 by trial division, lazily.

    Yields (p, e) with p^e exactly dividing n, in ascending p; n = 1
    yields nothing.  Each pair is yielded before any larger candidate is
    tried, so a caller that stops at the smallest prime factor pays only
    for that one, however large the rest of n is.
    """
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            yield d, e
        d += 1
    if n > 1:
        yield n, 1


def is_prime(p):
    return next(factorization(p), None) == (p, 1)


def prime_power_factors(n):
    """Split n > 1 into its prime-power components, e.g. 12 -> (3, 4)."""
    return tuple(sorted(p ** e for p, e in factorization(n)))


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""

    diagonal: tuple

    @property
    def rank(self):
        return len(self.diagonal)

    def torsion(self):
        """Prime-power torsion coefficients (the parts of the d_i > 1)."""
        out = []
        for d in self.diagonal:
            if d > 1:
                out.extend(prime_power_factors(d))
        return tuple(sorted(out))

    def rank_mod(self, p):
        return sum(1 for d in self.diagonal if d % p)


# ---------------------------------------------------------------------------
# rank kernels
# ---------------------------------------------------------------------------

def rank_gf2_columns(columns):
    """Rank over F_2; each column is an int bitmask over row indices."""
    pivots = {}
    rank = 0
    for col in columns:
        while col:
            h = col.bit_length() - 1
            piv = pivots.get(h)
            if piv is None:
                pivots[h] = col
                rank += 1
                break
            col ^= piv
    return rank


def rank_mod_p_columns(columns, p):
    """Rank over F_p; each column is a dict row -> int."""
    pivots = {}
    rank = 0
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(col[r], -1, p)
                pivots[r] = {rr: (vv * inv) % p for rr, vv in col.items()}
                rank += 1
                break
            c = col[r]
            new = dict(col)
            for rr, vv in piv.items():
                nv = (new.get(rr, 0) - c * vv) % p
                if nv:
                    new[rr] = nv
                else:
                    new.pop(rr, None)
            col = new
    return rank


def _content_reduce(col):
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {r: v // g for r, v in col.items()}
    return col


def rank_rational_columns(columns):
    """Rank over Q by fraction-free integer elimination.

    Each column is a dict row -> int.  A +-1 pivot is subtracted from the
    column in place; against any other pivot the two are combined with
    integer cross-multiplication and divided by their content, so values
    stay exact and reasonably small.
    """
    pivots = {}
    rank = 0
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = _content_reduce(col)
                rank += 1
                break
            a, b = piv[r], col[r]
            if a == 1 or a == -1:
                q = b * a  # = b / a
                for rr, v in piv.items():
                    nv = col.get(rr, 0) - q * v
                    if nv:
                        col[rr] = nv
                    else:
                        del col[rr]
                continue
            new = {}
            for rr in set(col) | set(piv):
                nv = col.get(rr, 0) * a - piv.get(rr, 0) * b
                if nv:
                    new[rr] = nv
            col = _content_reduce(new)
    return rank


def rank_columns(columns, p=None):
    """Rank over Q (p=None) or over the prime field F_p.

    Each column is a [(row, value), ...] list with rows 0, 1, ...; over
    F_2 the rows become bit positions of the bitset kernel.
    """
    if p is None:
        return rank_rational_columns([dict(col) for col in columns])
    if p == 2:
        bits = []
        for col in columns:
            b = 0
            for r, v in col:
                if v & 1:
                    b ^= 1 << r
            bits.append(b)
        return rank_gf2_columns(bits)
    return rank_mod_p_columns([dict(col) for col in columns], p)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _pivot(live, cols, queue, pr, pc):
    """Split one diagonal entry off {r: {c: v}}, starting from the pivot
    (pr, pc), and return its absolute value.

    Row operations clear column pc through the column index ``cols``
    {c: rows}; if remainders are left, the least becomes the pivot.  Then
    column operations clear row pr, which touch no other row as its column
    is clear; again the least remainder becomes the pivot, until row pr
    and column pc hold the pivot alone and are dropped.  A +-1 pivot
    leaves no remainder and takes one pass.  Rows that change go on
    ``queue``; rows left empty are dropped.
    """
    while True:
        prow = live.pop(pr)
        for c in prow:
            cols[c].discard(pr)
        pv = prow.pop(pc)
        unit = pv == 1 or pv == -1
        left = [pr]
        for r in cols.pop(pc):
            row = live[r]
            a = row.pop(pc)
            q = a * pv if unit else a // pv  # a * pv = a / pv, as pv = +-1
            if q:
                for c, v in prow.items():
                    nv = row.get(c, 0) - q * v
                    if nv:
                        if c not in row:
                            cols[c].add(r)
                        row[c] = nv
                    elif c in row:
                        del row[c]
                        cols[c].discard(r)
                a -= q * pv
            if a:
                row[pc] = a
                left.append(r)
            if not row:
                del live[r]
            elif q:
                queue.append(r)
        if unit:
            return 1
        if len(left) == 1:
            prow = {c: v % pv for c, v in prow.items() if v % pv}
            if not prow:
                return abs(pv)
        prow[pc] = pv
        live[pr] = prow
        cols[pc] = set(left)
        for c in prow:
            cols[c].add(pr)
        if len(left) > 1:
            pr = min(left[1:], key=lambda r: (abs(live[r][pc]), r))
        else:
            pc = min(prow, key=lambda c: (abs(prow[c]), c))


def _snf_diagonal(rows):
    """Diagonalize a dict-of-dicts integer matrix {r: {c: v}}, consuming it.

    Returns the list of nonzero diagonal values produced by the
    elimination (not yet normalized into a divisibility chain).  Rows come
    off a LIFO queue, each pivoting on its +-1 entry in the sparsest
    column; when no queued row has one, the pivot is the least (|v|, r, c)
    of the matrix, and the rows it changes are queued again.
    """
    live = {r: row for r, row in rows.items() if row}
    cols = {}
    for r, row in live.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    diag = []
    queue = list(live)
    while live:
        pr = pc = None
        while queue and pc is None:
            pr = queue.pop()
            for c, v in live.get(pr, {}).items():
                if (v == 1 or v == -1) and (pc is None or len(cols[c]) < len(cols[pc])):
                    pc = c
        if pc is None:
            pv = None
            for r, row in live.items():
                for c, v in row.items():
                    if pv is None or (abs(v), r, c) < (abs(pv), pr, pc):
                        pr, pc, pv = r, c, v
        diag.append(_pivot(live, cols, queue, pr, pc))
    return diag


def _divisibility_chain(diag):
    """The invariant factors of a diagonal, ascending; units divide every
    factor, so only the factors > 1 need the gcd/lcm passes."""
    diag = [abs(d) for d in diag if d]
    big = [d for d in diag if d > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(big)):
            for j in range(i + 1, len(big)):
                if big[j] % big[i]:
                    g = gcd(big[i], big[j])
                    big[i], big[j] = g, big[i] * big[j] // g
                    changed = True
    return (1,) * (len(diag) - len(big)) + tuple(sorted(big))


def snf_columns(columns):
    """Smith normal form from columns given as [(row, value), ...] lists.

    A matrix and its transpose have the same Smith form, so the columns
    are eliminated as the rows of the transpose, without regrouping.
    """
    rows = {c: {r: v for r, v in col if v} for c, col in enumerate(columns)}
    return SNFResult(_divisibility_chain(_snf_diagonal(rows)))


def snf_spot_checks(rng):
    """Smith forms of 20 random small matrices, drawn from rng: each
    diagonal must be a divisibility chain, be invariant under row and
    column permutations, be as long as the rank over Q, and read the
    ranks over F_2 and F_3 (``SNFResult.rank_mod``) that the field
    kernels find."""
    for _ in range(20):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        cells = [(r, c, rng.randint(-4, 4)) for r in range(n_rows)
                 for c in range(n_cols) if rng.random() < 0.6]
        perm_r, perm_c = list(range(n_rows)), list(range(n_cols))
        rng.shuffle(perm_r)
        rng.shuffle(perm_c)
        columns = [[] for _ in range(n_cols)]
        shuffled = [[] for _ in range(n_cols)]
        for r, c, v in cells:
            columns[c].append((r, v))
            shuffled[perm_c[c]].append((perm_r[r], v))
        snf = snf_columns(columns)
        diag = snf.diagonal
        if any(b % a for a, b in zip(diag, diag[1:])) \
                or snf_columns(shuffled).diagonal != diag \
                or rank_columns(columns) != len(diag) \
                or any(rank_columns(columns, p) != snf.rank_mod(p) for p in (2, 3)):
            return False
    return True
