"""Exact rank and Smith normal form for sparse integer matrices.

Everything runs on arbitrary-precision Python integers: ranks over Q are
computed by fraction-free elimination, ranks over F_p by modular
elimination (with a bitset fast path for p = 2), and torsion over Z via
the Smith normal form.  The Smith form first eliminates every +-1 pivot it
can find through a column index, each one an invariant factor 1 (after
Dumas, Heckenbach, Saunders and Welker, "Computing simplicial homology
based on efficient Smith normal form algorithms", 2003), and runs
minimal-absolute-value pivoting only on the core that is left.  No
floating point is used anywhere.

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

def _eliminate_units(live):
    """Eliminate +-1 pivots from a dict-of-dicts matrix {r: {c: v}} in place.

    Each unit pivot is cleared from its column by row operations, which
    leaves its row clearable by column operations that touch nothing else:
    the pivot splits off as an invariant factor 1 and the Schur complement
    stays in ``live``.  A column index {c: rows} finds the rows to update,
    and each row's pivot is its unit entry in the sparsest column.  Rows
    that change are scanned again.  ``live`` must hold no empty rows.
    Returns the (row, column) pairs pivoted on, in order; their rows and
    columns are gone from ``live``, and rows left empty are dropped.
    """
    cols = {}
    for r, row in live.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    pairs = []
    queue = list(live)
    while queue:
        r = queue.pop()
        row = live.get(r)
        if row is None:
            continue
        pc = None
        for c, v in row.items():
            if (v == 1 or v == -1) and (pc is None or len(cols[c]) < len(cols[pc])):
                pc = c
        if pc is None:
            continue
        del live[r]
        pairs.append((r, pc))
        for c in row:
            cols[c].discard(r)
        pv = row[pc]
        for r2 in cols.pop(pc):
            row2 = live[r2]
            q = row2.pop(pc) * pv  # = entry / pv, as pv = +-1
            for c, v in row.items():
                if c == pc:
                    continue
                nv = row2.get(c, 0) - q * v
                if nv:
                    if c not in row2:
                        cols[c].add(r2)
                    row2[c] = nv
                elif c in row2:
                    del row2[c]
                    cols[c].discard(r2)
            if row2:
                queue.append(r2)
            else:
                del live[r2]
    return pairs


def _snf_diagonal(rows):
    """Diagonalize a dict-of-dicts integer matrix {r: {c: v}}, consuming it.

    Returns the list of nonzero diagonal values produced by the
    elimination (not yet normalized into a divisibility chain).  The unit
    pivots go first; minimal-absolute-value pivoting then runs on the core
    they leave, which for boundary matrices is usually empty.
    """
    live = {r: row for r, row in rows.items() if row}
    diag = [1] * len(_eliminate_units(live))
    while live:
        # minimal absolute value pivot, deterministic tie-break
        pr = pc = pv = None
        for r, row in live.items():
            for c, v in row.items():
                if pv is None or (abs(v), r, c) < (abs(pv), pr, pc):
                    pr, pc, pv = r, c, v
        while True:
            if live[pr][pc] < 0:
                live[pr] = {c: -v for c, v in live[pr].items()}
            pv = live[pr][pc]
            # clear the pivot column
            dirty = None
            for r, row in live.items():
                if r == pr or pc not in row:
                    continue
                q = row[pc] // pv
                if q:
                    prow = live[pr]
                    for c, v in prow.items():
                        nv = row.get(c, 0) - q * v
                        if nv:
                            row[c] = nv
                        else:
                            row.pop(c, None)
                if pc in row:
                    dirty = r  # remainder is smaller than |pv|
                    break
            if dirty is not None:
                pr = dirty
                continue
            # column is clean; clear the pivot row (touches row pr only)
            prow = live[pr]
            rem = None
            for c in list(prow):
                if c == pc:
                    continue
                q = prow[c] // pv
                prow[c] -= q * pv
                if prow[c] == 0:
                    del prow[c]
                elif rem is None:
                    rem = c
            if rem is not None:
                pc = rem
                continue
            break
        diag.append(abs(live[pr][pc]))
        del live[pr]
        for r in [r for r, row in live.items() if not row]:
            del live[r]
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
    column permutations, and be as long as the rank over Q."""
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
        diag = snf_columns(columns).diagonal
        if any(b % a for a, b in zip(diag, diag[1:])) \
                or snf_columns(shuffled).diagonal != diag \
                or rank_columns(columns) != len(diag):
            return False
    return True
