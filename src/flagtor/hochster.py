"""Homology of moment-angle complexes via full-subcomplex decompositions.

H_p of the moment-angle complex Z_K is the direct sum over all vertex
subsets J of the reduced homology of K_J in degree p-|J|-1; the real
version R_K uses degree p-1.  The expensive part is one pass over all
2^m full subcomplexes; its results are memoized in a process-wide cache
(keyed by the complex and the coefficients) that every other module
shares.  The pass walks J in ascending order and eliminates only the
irreducible K_J, those that are connected and have no dominated vertex;
every other J takes the profile of the complex it collapses onto, or the
sum of its components' profiles (``homology.reduction``), all of which
are proper subsets already swept.  The pass runs in one process.
Single subsets (``profile_for_subset``) are plain elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from . import homology

SWEEP_CAP = 24


class ComplexTooLargeError(ValueError):
    """A full 2^m sweep was requested for m beyond the supported cap."""


@dataclass(frozen=True)
class MultiDegree:
    """Homological index i plus a halved exponent vector alpha.

    The externally visible degree is (-i, 2*alpha); serializers double
    the exponents on output.
    """

    i: int
    alpha: tuple

    def display(self):
        return {"t": -self.i, "lambda": [2 * a for a in self.alpha]}


@dataclass
class HochsterTable:
    """Per-(J, p) summands of H_*(Z_K) or H_*(R_K), plus totals."""

    kind: str  # 'zk' | 'rk'
    entries: dict = field(default_factory=dict)  # (Jmask, p) -> (rank, torsion)
    totals_rank: dict = field(default_factory=dict)
    totals_torsion: dict = field(default_factory=dict)

    def betti(self):
        return dict(self.totals_rank)


# ---------------------------------------------------------------------------
# the shared subcomplex-homology cache
# ---------------------------------------------------------------------------

_CACHE = {}


def clear_cache():
    _CACHE.clear()


@lru_cache(maxsize=64)
def _canonical_key(K):
    return K.canonical_key()


def _cache_for(K, coeff):
    return _CACHE.setdefault((_canonical_key(K), coeff.key()), {})


def cache_snapshot(K, coeff):
    return dict(_cache_for(K, coeff))


def profile_for_subset(K, Jmask, coeff):
    store = _cache_for(K, coeff)
    prof = store.get(Jmask)
    if prof is None:
        prof = homology.subcomplex_homology(K, Jmask, coeff)
        store[Jmask] = prof
    return prof


def subcomplex_profiles(K, coeff):
    """Reduced homology of every full subcomplex K_J, keyed by bitmask.

    Returns a read-only view of the shared cache, not a copy; use
    ``cache_snapshot`` for a copy.  Subsets whose complexes collapse onto
    the same smaller one share a single profile object.
    """
    if K.m > SWEEP_CAP:
        raise ComplexTooLargeError(
            f"full subcomplex sweep needs m <= {SWEEP_CAP}, got m = {K.m}")
    store = _cache_for(K, coeff)
    if len(store) == 1 << K.m:
        return MappingProxyType(store)
    geo = homology.geometry(K)
    for J in range(1 << K.m):
        if J in store:
            continue
        parts = homology.reduction(geo, J)
        if parts is None:
            store[J] = homology._profile_restricted(geo, J, coeff)
        else:
            store[J] = homology.direct_sum([store[P] for P in parts])
    return MappingProxyType(store)


# ---------------------------------------------------------------------------
# the two decompositions
# ---------------------------------------------------------------------------

def _assemble(kind, profiles, shift_by_J):
    table = HochsterTable(kind)
    # subsets that collapse onto one complex share a profile object, so
    # its nonzero (n, rank, torsion) rows are read once per call
    rows_of = {}
    for J, prof in profiles.items():
        rows = rows_of.get(id(prof))
        if rows is None:
            rows = rows_of[id(prof)] = list(prof.rows())
        off = J.bit_count() + 1 if shift_by_J else 1
        for n, r, t in rows:
            p = n + off
            table.entries[(J, p)] = (r, t)
            if r:
                table.totals_rank[p] = table.totals_rank.get(p, 0) + r
            if t:
                table.totals_torsion.setdefault(p, []).extend(t)
    table.totals_torsion = {p: tuple(sorted(t))
                            for p, t in table.totals_torsion.items()}
    return table


def zk_homology(K, coeff):
    """H_p(Z_K) = sum over J of reduced H_{p-|J|-1}(K_J)."""
    profiles = subcomplex_profiles(K, coeff)
    return _assemble("zk", profiles, shift_by_J=True)


def rk_homology(K, coeff):
    """H_p(R_K) = sum over J of reduced H_{p-1}(K_J)."""
    profiles = subcomplex_profiles(K, coeff)
    return _assemble("rk", profiles, shift_by_J=False)


def _dualize(profiles):
    """Cohomology profiles of every subcomplex from the homology ones."""
    return {J: p.cohomology() for J, p in profiles.items()}


def zk_cohomology(K, coeff):
    """H^p(Z_K) = sum over J of reduced H^{p-|J|-1}(K_J)."""
    profiles = subcomplex_profiles(K, coeff)
    return _assemble("zk", _dualize(profiles), shift_by_J=True)


def rk_cohomology(K, coeff):
    """H^p(R_K) = sum over J of reduced H^{p-1}(K_J)."""
    profiles = subcomplex_profiles(K, coeff)
    return _assemble("rk", _dualize(profiles), shift_by_J=False)


def torsion_primes(K):
    """Primes dividing any torsion coefficient of any K_J (for field sweeps)."""
    profiles = subcomplex_profiles(K, homology.INTEGERS)
    primes = set()
    for prof in profiles.values():
        for t in prof.torsion.values():
            for q in t:
                p = 2
                while p * p <= q:
                    if q % p == 0:
                        break
                    p += 1
                primes.add(p if q % p == 0 else q)
    return sorted(primes)
