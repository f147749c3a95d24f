"""Homology of moment-angle complexes via full-subcomplex decompositions.

H_p of the moment-angle complex Z_K is the direct sum over all vertex
subsets J of the reduced homology of K_J in degree p-|J|-1; the real
version R_K uses degree p-1.  The expensive part is one pass over all
2^m full subcomplexes; its results are held in K's memo
(``complexes.tables``, filled through ``complexes.memo``), one store per
ring, which every other module shares and which lasts until a complex
neither K nor derived from K is asked for.  ``clear_cache`` is the one
call that empties every per-complex table.  Two lookups read the memo
without building: ``profile_for_subset``, and ``subcomplex_profiles``
asking whether a ring has been swept.
Q and Z are always swept.  A prime field is swept until K's integral
store is in the memo; from then on its store is read off the integral
one by universal coefficients (``HomologyProfile.over``): one reading
per distinct integral profile, and the ids mapped through that table.
Only ``subcomplex_profiles(K, F_p, derive=False)`` still sweeps the
field then, for ``lscat.toomer``.

A store holds each distinct profile once, interned by value
(``homology.Profiles``), and after a sweep an id array with one entry
per J, the index of its profile in that table: one byte per J, or two
once a sweep meets more than 255 distinct profiles (the sweep then runs
once more from J = 0 with two-byte ids, keeping the profiles it met).
The sweep fills the array in ascending J, one vertex layer at a time:
the J whose top vertex is t are J' + t for J' < 2^t.  When every link of
t is a full subcomplex (every vertex, when K is flag), the whole layer
is one block pass: the ids of K_{J'} are the slice ``ids[:2^t]``, those
of lk t = K_{N(t) & J'} one gather, and ``homology.mayer_vietoris`` runs
once per new (link id, rest id) pair before one table lookup maps the
whole block.  What t leaves unsettled goes to the next vertex down: the
same pass runs on each sub-block of the J' with top bit s, in ascending
s, and so on recursively.  A layer of a vertex in no face (a ghost)
copies the block below it.  Short sub-blocks, sub-blocks with few
unsettled J, layers of other vertices, and what no vertex settles go J
by J: vertices in no face are dropped, a single vertex is a point, the
vertex rule is tried at each qualifying vertex not yet tried, from the
top down, then the collapse and split rules of ``homology.reduction``,
and only then elimination, which on flag complexes is left with the
empty J alone.  A single subset (``profile_for_subset``) is read off a
finished store, or else is plain elimination.

A table groups the J by (profile id, |J|), read off a histogram of the
id array: each group's degrees p and summands are built once, the totals
are folded from them, and ``HochsterTable.entries`` is a read-only
mapping over the id array and the groups that stores nothing per J; its
``in_degree(p)`` reads the items of one degree p in one pass.
The four tables, ``zk_homology``, ``rk_homology`` and their cohomology
versions ``zk_cohomology`` and ``rk_cohomology``, have one builder: each
is assembled once per ring and held in K's memo, a cohomology table from
the cohomology profile of each distinct homology profile.  For flag K the
``rk_homology`` table, keyed (J, n), is also route one of
``pontryagin``'s Tor table.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat, tee

from . import homology
from .complexes import check_sweep_cap, clear_tables, exceeded, memo, tables
from .exact_linalg import factorization

# sub-blocks of fewer J than this are settled J by J
_SHORT = 16
# a sub-block pass costs about an eighth of settling one J by J, so a
# sub-block goes to the vertex below once an eighth of its J are unsettled
_PASS_COST = 8
# index of the low half of a word split into two halves of one id width
_LOW = 0 if sys.byteorder == "little" else 1
# byte v -> v + 1
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


@dataclass
class HochsterTable:
    """Per-(J, p) summands of H_*(Z_K) or H_*(R_K), plus totals."""

    # (Jmask, p) -> (rank, torsion): a read-only mapping over the store's
    # id array and the groups built with the totals, in ascending J and
    # then p; nothing is stored per J
    entries: Mapping
    totals_rank: dict = field(default_factory=dict)
    totals_torsion: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# read-only mappings whose items and values iterate at C level
# ---------------------------------------------------------------------------

class _Items(ItemsView):
    def __iter__(self):
        return self._mapping._items()


class _Values(ValuesView):
    def __iter__(self):
        return self._mapping._values()


class _FastMapping(Mapping):
    """A mapping whose items and values views iterate what ``_items`` and
    ``_values`` build from C-level iterators, not one lookup per key."""

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def _items(self):
        return zip(iter(self), self._values())


class _Width:
    """Profile ids of one width: a byte, or two bytes once a sweep has met
    more distinct profiles than the byte width's ``limit``."""

    def __init__(self, typecode):
        self.typecode = typecode
        self.size = array(typecode).itemsize
        self.bits = 8 * self.size
        # all ones: AND with it keeps the other side, so merges are one AND
        self.unset = (1 << self.bits) - 1
        self.unset_bytes = b"\xff" * self.size
        self.limit = self.unset  # ids stay below this

    def ids(self, values):
        """An id array of this width from an iterable of ids."""
        return array(self.typecode, bytes(values) if self.size == 1 else values)

    def find_unset(self, raw, start, stop):
        """Index of the first unset id of raw (bytes) in [start, stop), or -1."""
        size = self.size
        i = raw.find(self.unset_bytes, start * size, stop * size)
        while i >= 0 and i % size:  # a match across two ids
            i = raw.find(self.unset_bytes, i + 1, stop * size)
        return i // size


_WIDTHS = (_Width("B"), _Width("H"))
MAX_PROFILES = _WIDTHS[-1].limit  # distinct profiles one sweep may meet


def _pack(high, low):
    """Keys high << bits | low of two id arrays of one width, as a memoryview."""
    pair = array(low.typecode, bytes(2 * len(low) * low.itemsize))
    pair[_LOW::2] = low
    pair[1 - _LOW::2] = high
    return memoryview(pair).cast("B").cast("H" if low.itemsize == 1 else "I")


def _and(a, b):
    """The bitwise AND of two id arrays of one width, id by id."""
    size = len(a) * a.itemsize
    both = int.from_bytes(a, "little") & int.from_bytes(b, "little")
    return array(a.typecode, both.to_bytes(size, "little"))


def _gather(source, below, s):
    """source[x & below] for every x < 2^s, where below < 2^s.

    Bits of x outside ``below`` repeat what is built, so the work is
    about one concatenation per subset of the bits of ``below`` from bit
    4 up, not one step per x.
    """
    if not below:
        return source[:1] * (1 << s)
    if s <= 4:
        return array(source.typecode, [source[x & below] for x in range(1 << s)])
    top = below.bit_length() - 1
    half, rest = 1 << top, below ^ 1 << top
    return (_gather(source, rest, top) + _gather(source[half:], rest, top)) \
        * (1 << (s - top - 1))


def _sizes(m, typecode):
    """|J| for every J < 2^m, as an array of the given typecode."""
    counts = bytearray(1)
    for _ in range(m):
        counts += counts.translate(_PLUS_ONE)
    sizes = array(typecode, bytes(len(counts) * array(typecode).itemsize))
    step = sizes.itemsize
    memoryview(sizes).cast("B")[_LOW * (step - 1)::step] = counts
    return sizes


# ---------------------------------------------------------------------------
# the shared subcomplex-homology stores
# ---------------------------------------------------------------------------

class _Store(homology.Profiles, _FastMapping):
    """J -> profile of K_J for one (K, coeff); read-only to callers.

    ``objs`` is the table of distinct profiles (``homology.Profiles``).  A
    store is empty until its sweep has run; then ``ids`` holds the index
    in ``objs`` of every J, in an array of one width.  Iteration is by
    ascending J.
    """

    def __init__(self):
        super().__init__()
        self.ids = array("B")
        self.histogram = None  # Counter of id << bits | |J|, in ascending J

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, J):
        if type(J) is not int or not 0 <= J < len(self.ids):
            raise KeyError(J)
        return self.objs[self.ids[J]]

    def __iter__(self):
        return iter(range(len(self.ids)))

    def _values(self):
        return map(self.objs.__getitem__, self.ids)


def clear_cache():
    """Empty K's memo, which holds every per-complex table."""
    clear_tables()


def _cache_for(K, coeff):
    """K's swept store over coeff, empty until its sweep has run."""
    return memo(K, ("store", coeff), lambda K: _Store())


def cache_snapshot(K, coeff):
    return dict(_cache_for(K, coeff).items())


def profile_for_subset(K, Jmask, coeff):
    """Reduced homology of K_J, off a finished store or else by elimination."""
    held = tables(K)
    store = held.get(("store", coeff)) or held.get(("derived store", coeff))
    if store:
        return store[Jmask]
    return homology.subcomplex_homology(K, Jmask, coeff)


def subcomplex_profiles(K, coeff, derive=True):
    """Reduced homology of every full subcomplex K_J, keyed by bitmask.

    Returns the shared store, a read-only mapping, not a copy; use
    ``cache_snapshot`` for a copy.  Subsets with equal profiles share a
    single profile object.

    Over a prime field, a call with ``derive`` whose ring has not been
    swept reads K's integral store when that one has been: the store
    "derived store" holds each distinct integral profile read over the
    field once (``HomologyProfile.over``, universal coefficients) and the
    integral ids mapped through that table.  ``derive=False`` asks for a
    store swept over the field itself, which ``lscat.toomer`` reads so that
    it stays a second route to the category.  Q and Z are always swept.
    """
    check_sweep_cap(K)
    held = tables(K)
    if derive and coeff.kind == "fp" and not held.get(("store", coeff)):
        integral = held.get(("store", homology.INTEGERS))
        if integral:
            store = memo(K, ("derived store", coeff), lambda K: _Store())
            if not store:
                store.ids = _over(store, integral, coeff)
            return store
    store = _cache_for(K, coeff)
    if not store:
        try:
            store.ids = _Sweep(K, coeff, store, _WIDTHS[0]).run()
        except _Widen:  # once more from J = 0, keeping the profiles met
            store.ids = _Sweep(K, coeff, store, _WIDTHS[1]).run()
    return store


def _over(store, integral, coeff):
    """The ids of the integral store read over coeff, interning into store
    the reading of each distinct integral profile once."""
    table = [store.intern(prof.over(coeff)) for prof in integral.objs]
    ids = integral.ids
    if ids.itemsize == 1:
        return array("B", ids.tobytes().translate(bytes(table).ljust(256, b"\0")))
    return array(ids.typecode, map(table.__getitem__, ids))


class _Widen(Exception):
    """A new profile id does not fit the sweep's id width."""


class _Settled(dict):
    """link id << bits | rest id -> id of K_J by Mayer-Vietoris, or unset.

    It holds the store and the width, not the sweep, so that a finished
    sweep is freed by reference counting."""

    def __init__(self, store, width):
        super().__init__()
        self.store, self.width = store, width

    def __missing__(self, key):
        store, width = self.store, self.width
        prof = homology.mayer_vietoris(store.objs[key >> width.bits],
                                       store.objs[key & width.unset])
        i = self[key] = width.unset if prof is None else _intern(store, width, prof)
        return i


def _intern(store, width, prof):
    """The id of prof in store, which must fit width."""
    i = store.intern(prof)
    if i < width.limit:
        return i
    if width is _WIDTHS[-1]:
        raise exceeded("hochster.MAX_PROFILES", width.limit,
                       "distinct profiles met by one sweep")
    raise _Widen


class _Sweep:
    """One ascending pass over every J, writing profile ids in place."""

    def __init__(self, K, coeff, store, width):
        self.m, self.coeff, self.store, self.width = K.m, coeff, store, width
        self.geo = homology.geometry(K)
        self.ids = self.width.ids([self.width.unset]) * (1 << K.m)
        self.settled = _Settled(store, width)
        self.point = None

    def run(self):
        self.ids[0] = self.one(0)
        for t in range(self.m):
            self.layer(t)
        return self.ids

    def layer(self, t):
        """Settle every J whose top vertex is t."""
        ids, geo, n = self.ids, self.geo, 1 << t
        if not n & geo.vertices:  # a ghost: K_J is K_{J-t}
            ids[n:2 * n] = ids[:n]
        elif n & geo.full_link_vertices and n >= _SHORT:
            self.block(0, t)
        else:
            for J in range(n, 2 * n):
                ids[J] = self.one(J)

    def block(self, base, s):
        """Settle J = base + 2^s + x for every x < 2^s.

        s is a full-link vertex, base holds only vertices above s, and
        every id below base + 2^s is settled.  Vertex s goes first for the
        whole block.  What it leaves goes, one sub-block of the x with top
        bit r at a time, in ascending r, to vertex r by the same pass, or
        J by J when the sub-block is short, r is not a full-link vertex, or
        few of its J are unsettled.
        """
        ids, width, n = self.ids, self.width, 1 << s
        lo = base | n
        nbrs = self.geo.adjacency[s]
        linked = base & nbrs
        link = _gather(ids[linked:linked + n], nbrs & (n - 1), s)
        new = width.ids(map(self.settled.__getitem__, _pack(link, ids[base:lo])))
        if base:  # keep what a vertex above s settled
            new = _and(ids[lo:lo + n], new)
        ids[lo:lo + n] = new
        raw = new.tobytes()
        if width.find_unset(raw, 0, n) < 0:
            return
        # an unset J failed at s and at every vertex of base, so J by J it
        # tries only the vertices below s
        if new[0] == width.unset:
            ids[lo] = self.one(lo, n - 1)
        full_link = self.geo.full_link_vertices
        for r in range(s):
            a, b = 1 << r, 2 << r
            i = width.find_unset(raw, a, b)
            if i < 0:
                continue
            if a >= _SHORT and full_link >> r & 1 and \
                    _PASS_COST * raw.count(width.unset_bytes, a * width.size, b * width.size) >= a:
                self.block(lo, r)
                continue
            while i >= 0:
                ids[lo + i] = self.one(lo + i, n - 1)
                i = width.find_unset(raw, i + 1, b)

    def one(self, J, below=-1):
        """The id of K_J by the rules for one J at a time.

        The vertex rule is tried at the full-link vertices of J in
        ``below``, from the top down.
        """
        geo, ids, store = self.geo, self.ids, self.store
        if J & ~geo.vertices:
            return ids[J & geo.vertices]
        if J and not J & (J - 1):
            if self.point is None:
                self.point = _intern(store, self.width, homology.HomologyProfile())
            return self.point
        T, adj, settled = J & geo.full_link_vertices & below, geo.adjacency, self.settled
        bits, unset = self.width.bits, self.width.unset
        while T:
            top = T.bit_length() - 1
            T ^= 1 << top
            rest = J ^ 1 << top
            i = settled[ids[adj[top] & rest] << bits | ids[rest]]
            if i != unset:
                return i
        parts = homology.reduction(geo, J)
        if parts is None:
            prof = homology._profile_restricted(geo, J, self.coeff)
        else:
            prof = homology.direct_sum([store.objs[ids[P]] for P in parts])
        return _intern(store, self.width, prof)


# ---------------------------------------------------------------------------
# the two decompositions
# ---------------------------------------------------------------------------

class _Entries(_FastMapping):
    """(J, p) -> (rank, torsion) of a Hochster table, read off the ids.

    Yields the items of a dict filled in ascending J and, within a J, in
    ascending p.  ``groups`` maps the group of a J (its histogram key, or
    its id when p is not shifted by |J|) to the (number of J, p list,
    summand list) that ``_assemble`` built with the totals; nothing is
    stored per J.
    """

    def __init__(self, store, shift_by_J, groups):
        self._store, self._shift, self._groups = store, shift_by_J, groups

    def _keys(self):
        """The group of every J, ascending."""
        return _size_keys(self._store.ids) if self._shift else self._store.ids

    def __len__(self):
        return sum(c * len(ps) for c, ps, _ in self._groups.values())

    def __getitem__(self, key):
        try:
            J, p = key
            if J < 0:
                raise IndexError
            group = self._store.ids[J]
            if self._shift:
                group = group << 8 * self._store.ids.itemsize | J.bit_count()
            _, ps, summands = self._groups[group]
            return summands[ps.index(p)]
        except (TypeError, ValueError, IndexError):
            raise KeyError(key) from None

    def __iter__(self):
        ps = {group: g[1] for group, g in self._groups.items()}
        keys = self._keys()
        Js = chain.from_iterable(map(repeat, count(), map(len, map(ps.__getitem__, keys))))
        return zip(Js, chain.from_iterable(map(ps.__getitem__, keys)))

    def _values(self):
        summands = {group: g[2] for group, g in self._groups.items()}
        return chain.from_iterable(map(summands.__getitem__, self._keys()))

    def in_degree(self, p):
        """The items ((J, p), summand) of the one degree p, in ascending J:
        one pass over the group of every J, holding none of the items."""
        summand = {group: g[2][g[1].index(p)]
                   for group, g in self._groups.items() if p in g[1]}
        keys = self._keys()
        Js, again = tee(compress(count(), map(summand.__contains__, keys)))
        return zip(zip(Js, repeat(p)),
                   map(summand.__getitem__, map(keys.__getitem__, again)))


def _size_keys(ids):
    """id << bits | |J| for every J, ascending."""
    return _pack(ids, _sizes(len(ids).bit_length() - 1, ids.typecode))


def _histogram(store):
    """Counter of id << bits | |J| over every J, in order of first appearance."""
    if store.histogram is None:
        store.histogram = Counter(_size_keys(store.ids))
    return store.histogram


def _assemble(store, objs, shift_by_J):
    """The table of a swept store whose ids index objs.

    Each group of J, one profile at one |J| (or one profile, when p is not
    shifted by |J|), gets its number of J, its p = n + |J| + 1 (or n + 1)
    for each row n of the profile, and its summands, once, from the
    (profile id, |J|) histogram in order of first appearance in ascending
    J.  The totals are folded from the groups, and the entries read them.
    """
    bits = 8 * store.ids.itemsize
    groups = {}
    for key, c in _histogram(store).items():
        i, size = key >> bits, key & ((1 << bits) - 1)
        if not shift_by_J:
            key, size = i, 0
        if key not in groups:
            rows = list(objs[i].rows())
            groups[key] = [0, [n + size + 1 for n, _, _ in rows], [(r, t) for _, r, t in rows]]
        groups[key][0] += c
    rank, torsion = {}, {}
    for c, ps, summands in groups.values():
        for p, (r, t) in zip(ps, summands):
            if r:
                rank[p] = rank.get(p, 0) + r * c
            if t:
                torsion.setdefault(p, []).extend(t * c)
    return HochsterTable(_Entries(store, shift_by_J, groups), rank,
                         {p: tuple(sorted(t)) for p, t in torsion.items()})


def zk_homology(K, coeff):
    """H_p(Z_K) = sum over J of reduced H_{p-|J|-1}(K_J)."""
    return _table(K, coeff, True, False)


def rk_homology(K, coeff):
    """H_p(R_K) = sum over J of reduced H_{p-1}(K_J)."""
    return _table(K, coeff, False, False)


def zk_cohomology(K, coeff):
    """H^p(Z_K) = sum over J of reduced H^{p-|J|-1}(K_J)."""
    return _table(K, coeff, True, True)


def rk_cohomology(K, coeff):
    """H^p(R_K) = sum over J of reduced H^{p-1}(K_J)."""
    return _table(K, coeff, False, True)


def _table(K, coeff, shift_by_J, dual):
    """One of the four Hochster tables over coeff, assembled once and held
    in K's memo; with ``dual``, from the cohomology profile of each
    distinct homology profile."""
    def build(K):
        store = subcomplex_profiles(K, coeff)
        objs = [p.cohomology() for p in store.objs] if dual else store.objs
        return _assemble(store, objs, shift_by_J)
    return memo(K, ("table", coeff, shift_by_J, dual), build)


def torsion_primes(K):
    """Primes dividing any torsion coefficient of any K_J (for field sweeps)."""
    primes = set()
    for prof in subcomplex_profiles(K, homology.INTEGERS).objs:
        for t in prof.torsion.values():
            for q in t:
                primes.add(next(factorization(q))[0])
    return sorted(primes)
