"""Homology of moment-angle complexes via full-subcomplex decompositions.

H_p of the moment-angle complex Z_K is the direct sum over all vertex
subsets J of the reduced homology of K_J in degree p-|J|-1; the real
version R_K uses degree p-1.  The expensive part is one pass over all
2^m full subcomplexes; its results are memoized in a process-wide cache
(keyed by the complex and the coefficients) that every other module
shares.  The pass walks J in ascending order, so every proper subset of
J is already swept, and settles almost every K_J from two of them.
Vertices of J in no face are dropped first, and a single vertex is a
point.  Then, for each vertex t of J whose links are full subcomplexes
(every vertex, when K is flag), from the top down,
``homology.mayer_vietoris`` reads the profiles of lk t = K_{N(t) & (J-t)}
and of K_{J-t}; the first t that settles K_J wins.  What no t settles
falls through to the collapse and split rules of ``homology.reduction``,
and only then to elimination, which on flag complexes is left with the
empty J alone.  Every profile is interned by value: a store holds one
object per distinct profile, the rule's result is memoized per pair of
them, and consumers read each distinct profile once
(``distinct_profiles``).  The pass runs in one process.  Single subsets
(``profile_for_subset``) are plain elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from . import homology
from .complexes import SWEEP_CAP


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
_DISTINCT = {}  # same keys -> (profiles, {profile.key(): index in profiles})


def clear_cache():
    _CACHE.clear()
    _DISTINCT.clear()


@lru_cache(maxsize=64)
def _canonical_key(K):
    return K.canonical_key()


def _cache_for(K, coeff):
    return _CACHE.setdefault((_canonical_key(K), coeff.key()), {})


def _distinct_for(K, coeff):
    return _DISTINCT.setdefault((_canonical_key(K), coeff.key()), ([], {}))


def _intern(distinct, prof):
    """Index of the one stored profile equal to prof, adding prof if new."""
    objs, index = distinct
    i = index.setdefault(prof.key(), len(objs))
    if i == len(objs):
        objs.append(prof)
    return i


def cache_snapshot(K, coeff):
    return dict(_cache_for(K, coeff))


def profile_for_subset(K, Jmask, coeff):
    store = _cache_for(K, coeff)
    prof = store.get(Jmask)
    if prof is None:
        distinct = _distinct_for(K, coeff)
        prof = homology.subcomplex_homology(K, Jmask, coeff)
        prof = store[Jmask] = distinct[0][_intern(distinct, prof)]
    return prof


def subcomplex_profiles(K, coeff):
    """Reduced homology of every full subcomplex K_J, keyed by bitmask.

    Returns a read-only view of the shared cache, not a copy; use
    ``cache_snapshot`` for a copy.  Subsets with equal profiles share a
    single profile object.
    """
    if K.m > SWEEP_CAP:
        raise ComplexTooLargeError(
            f"full subcomplex sweep needs m <= {SWEEP_CAP}, got m = {K.m}")
    store = _cache_for(K, coeff)
    if len(store) == 1 << K.m:
        return MappingProxyType(store)
    distinct = _distinct_for(K, coeff)
    objs = distinct[0]
    geo = homology.geometry(K)
    vertices, full_link, adj = geo.vertices, geo.full_link_vertices, geo.adjacency
    ids = [None] * (1 << K.m)  # J -> index of its profile
    for J, prof in store.items():
        ids[J] = _intern(distinct, prof)
    settled = {}  # (index of link) << 32 | (index of rest) -> index, or -1
    for J in range(1 << K.m):
        if ids[J] is not None:
            continue
        if J & ~vertices:
            i = ids[J & vertices]
        elif J and not J & (J - 1):
            i = _intern(distinct, homology.HomologyProfile())  # a point
        else:
            i, T = -1, J & full_link
            while T:
                top = T.bit_length() - 1
                T ^= 1 << top
                rest = J ^ 1 << top
                link = ids[adj[top] & rest]
                key = link << 32 | ids[rest]
                i = settled.get(key)
                if i is None:
                    prof = homology.mayer_vietoris(objs[link], objs[ids[rest]])
                    i = settled[key] = -1 if prof is None else _intern(distinct, prof)
                if i >= 0:
                    break
            if i < 0:
                parts = homology.reduction(geo, J)
                if parts is None:
                    prof = homology._profile_restricted(geo, J, coeff)
                else:
                    prof = homology.direct_sum([objs[ids[P]] for P in parts])
                i = _intern(distinct, prof)
        ids[J] = i
        store[J] = objs[i]
    return MappingProxyType(store)


def distinct_profiles(K, coeff):
    """Each distinct profile of the full subcomplexes of K, once."""
    subcomplex_profiles(K, coeff)
    return list(_distinct_for(K, coeff)[0])


# ---------------------------------------------------------------------------
# the two decompositions
# ---------------------------------------------------------------------------

def _assemble(kind, profiles, shift_by_J):
    table = HochsterTable(kind)
    entries = table.entries
    # equal profiles are one object, so the shifted (p, (rank, torsion))
    # rows are built once per (object, |J|) and the totals are folded from
    # how many J share them
    shifted = {}
    for J, prof in profiles.items():
        size = J.bit_count() if shift_by_J else 0
        group = shifted.get((id(prof), size))
        if group is None:
            group = shifted[id(prof), size] = [
                [(n + size + 1, (r, t)) for n, r, t in prof.rows()], 0]
        group[1] += 1
        for p, summand in group[0]:
            entries[J, p] = summand
    rank, torsion = table.totals_rank, {}
    for rows, count in shifted.values():
        for p, (r, t) in rows:
            if r:
                rank[p] = rank.get(p, 0) + r * count
            if t:
                torsion.setdefault(p, []).extend(t * count)
    table.totals_torsion = {p: tuple(sorted(t)) for p, t in torsion.items()}
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
    """Cohomology profiles of every subcomplex from the homology ones.

    Each distinct homology profile is dualized once, into one object.
    """
    dual = {}
    out = {}
    for J, p in profiles.items():
        d = dual.get(id(p))
        if d is None:
            d = dual[id(p)] = p.cohomology()
        out[J] = d
    return out


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
    primes = set()
    for prof in distinct_profiles(K, homology.INTEGERS):
        for t in prof.torsion.values():
            for q in t:
                p = 2
                while p * p <= q:
                    if q % p == 0:
                        break
                    p += 1
                primes.add(p if q % p == 0 else q)
    return sorted(primes)
