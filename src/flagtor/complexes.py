"""Simplicial complexes as bitmask face sets, and their combinatorics.

Vertices are 1-based in every public interface and live on bit positions
0..m-1 internally.  A complex stores its *entire* face set (the empty
face included), not just the facets: constant-time membership tests
dominate all downstream homology work, and for the flag complexes this
library targets the face list is just the clique list of a graph.

Exhaustive 2^m subset sweeps cap m at ``SWEEP_CAP`` (24); the objects
here can be larger (single-subcomplex computations stay cheap), the cap
is enforced at the sweep entry points by ``check_sweep_cap``.
``from_facets`` refuses a facet of more than ``MAX_FACET_VERTICES`` (20)
vertices, since it would close to over 2^20 stored faces.  Every cap
of the package, here or in its own module, raises ``BudgetExceededError``
through ``exceeded``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

SWEEP_CAP = 24
MAX_FACET_VERTICES = 20


class BudgetExceededError(ValueError):
    """A computation would pass one of the package's caps."""


def exceeded(name, cap, detail):
    """The error of every cap: ``<module>.<CAP> = <value> exceeded: <detail>``."""
    return BudgetExceededError(f"{name} = {cap} exceeded: {detail}")


def check_sweep_cap(K):
    """Raise BudgetExceededError unless K is small enough to sweep."""
    if K.m > SWEEP_CAP:
        raise exceeded("complexes.SWEEP_CAP", SWEEP_CAP,
                       f"a full subcomplex sweep over m = {K.m} vertices")


class GhostVertexError(ValueError):
    """Some vertex in [m] belongs to no face."""


class VertexOutOfRangeError(ValueError):
    pass


class NotAFaceError(ValueError):
    pass


class NotFlagError(ValueError):
    """An operation defined only for flag complexes got a non-flag one."""


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def verts_of(mask):
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


@dataclass(frozen=True)
class SimplicialComplex:
    """m vertices plus a downward-closed set of faces given as bitmasks.

    ``labels`` maps internal vertices 1..m to the names they carry in a
    parent complex; it defaults to the identity.
    """

    m: int
    faces: frozenset
    labels: tuple = None

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(range(1, self.m + 1)))

    def __contains__(self, mask):
        return mask in self.faces

    @property
    def dim(self):
        return max(f.bit_count() for f in self.faces) - 1

    @property
    def full_mask(self):
        return (1 << self.m) - 1

    def facet_lists(self):
        return sorted((verts_of(f) for f in facets(self)), key=lambda t: (len(t), t))


def validate(K):
    """Check downward closure, ghost-freeness and the empty face."""
    if 0 not in K.faces:
        raise ValueError("empty face missing")
    seen = 0
    for f in K.faces:
        seen |= f
        low = f
        while low:
            bit = low & -low
            if f ^ bit not in K.faces:
                raise ValueError(f"not downward closed at {verts_of(f)}")
            low ^= bit
    if seen != K.full_mask:
        _raise_ghosts(K.m, set(verts_of(seen & K.full_mask)))


def _raise_ghosts(m, used):
    """Raise GhostVertexError for the vertices of 1..m not in the set used,
    naming only the first few, since m may be huge."""
    count = m - len(used)
    ghosts = list(islice((v for v in range(1, m + 1) if v not in used), 5))
    more = f" and {count - 5} more" if count > 5 else ""
    raise GhostVertexError(f"ghost vertices {ghosts}{more}")


def _close_downward(masks):
    """Every face of the given facets: each new facet adds all its subsets,
    doubled one vertex at a time."""
    faces = {0}
    for f in masks:
        if f in faces:
            continue
        subs = [0]
        low = f
        while low:
            bit = low & -low
            subs += [s | bit for s in subs]
            low ^= bit
        faces.update(subs)
    return faces


def from_facets(m, facets_list):
    """Downward closure of the given facets (1-based vertex lists)."""
    if m < 1:
        raise VertexOutOfRangeError("need at least one vertex")
    facets_list = list(facets_list)  # read twice
    used = set()
    for f in facets_list:
        for v in f:
            if not (1 <= v <= m):
                raise VertexOutOfRangeError(f"vertex {v} not in 1..{m}")
        if not f:
            raise ValueError("empty facet")
        if len(set(f)) > MAX_FACET_VERTICES:
            raise exceeded("complexes.MAX_FACET_VERTICES", MAX_FACET_VERTICES,
                           f"a facet of {len(set(f))} vertices")
        used.update(f)
    # decided on the vertex set, before any mask of m bits is built
    if len(used) != m:
        _raise_ghosts(m, used)
    return SimplicialComplex(m, frozenset(_close_downward(map(mask_of, facets_list))))


EMPTY_COMPLEX = SimplicialComplex(0, frozenset({0}), ())


def facets(K):
    out = []
    for f in K.faces:
        free = K.full_mask & ~f
        is_facet = True
        low = free
        while low:
            bit = low & -low
            if f | bit in K.faces:
                is_facet = False
                break
            low ^= bit
        if is_facet and (f or len(K.faces) == 1):
            out.append(f)
    return sorted(out)


def _reindex(face_masks, support_mask, parent_labels):
    """Re-embed faces living on support_mask onto vertices 1..|support|."""
    positions = verts_of(support_mask)  # 1-based positions in the parent
    newbit = {p - 1: i for i, p in enumerate(positions)}
    faces = set()
    for f in face_masks:
        g = 0
        low = f
        while low:
            bit = low & -low
            g |= 1 << newbit[bit.bit_length() - 1]
            low ^= bit
        faces.add(g)
    labels = tuple(parent_labels[p - 1] for p in positions)
    return SimplicialComplex(len(positions), frozenset(faces), labels)


def full_subcomplex(K, J):
    """K_J = all faces inside J, re-indexed onto vertices 1..|J|.

    J may be a vertex iterable (1-based) or a bitmask.  The original
    vertex names are kept in ``labels``.
    """
    Jmask = J if isinstance(J, int) else mask_of(J)
    if Jmask & ~K.full_mask:
        raise VertexOutOfRangeError("J not contained in the vertex set")
    if Jmask == 0:
        return EMPTY_COMPLEX
    sub = [f for f in K.faces if not f & ~Jmask]
    return _reindex(sub, Jmask, K.labels)


def link(K, I):
    """lk_K I: faces J disjoint from I with I|J a face, on their support."""
    Imask = I if isinstance(I, int) else mask_of(I)
    if Imask not in K.faces:
        raise NotAFaceError(f"{verts_of(Imask)} is not a face")
    if Imask == 0:
        return K
    lk = [f for f in K.faces if not f & Imask and f | Imask in K.faces]
    support = 0
    for f in lk:
        support |= f
    if support == 0:
        return EMPTY_COMPLEX
    return _reindex(lk, support, K.labels)


def original_faces(K):
    """Face set translated through ``labels`` (as frozenset of vertex tuples)."""
    return frozenset(tuple(sorted(K.labels[v - 1] for v in verts_of(f)))
                     for f in K.faces)


# ---------------------------------------------------------------------------
# the per-complex memo
# ---------------------------------------------------------------------------

_HELD = {}  # each complex held to its tables: the last asked for, and those derived from it


def tables(K):
    """K's memo: one dict of every table computed from K's full subcomplexes.

    It holds the flag bit, the chi~ table, the Z-graded denominator, the
    series F and the rank table, the sweep stores (one per ring, and the
    prime-field stores read off the integral one), the four Hochster
    tables per ring (Z_K and R_K homology and their cohomology), the
    ``homology.geometry``, the value of ``lscat.cat_via_links``, the
    "koszul slices" of ``pontryagin`` (the homology over Z of one slice per
    shape, a ``homology.Profiles`` like the sweep stores) and its "cobar
    slices" (the homology over Z of each slice), the verdicts of the
    ring-free checks of ``checks.check_all`` per trunc, its sample of
    non-squarefree slices per trunc with their verdict per ring, the
    verdict of its Smith-form self-test and the complexes ``derived`` from
    K.
    Every table is filled through ``memo``; outside this module only two
    lookups of ``hochster`` read the dict itself, since they must not
    build.  One rule bounds its life: the memo holds the complex asked
    for last and the complexes derived from it, and asking for any other
    complex drops them all.  An equal copy of a held complex shares its
    dict; ``hochster.clear_cache`` drops every dict.  Each call hashes K,
    so callers fetch the dict once per call, not once per subset.
    """
    held = _HELD.get(K)
    if held is None:
        _HELD.clear()
        held = _HELD[K] = {}
    return held


def clear_tables():
    """Drop the tables of every held complex."""
    _HELD.clear()


def memo(K, name, build):
    """K's table ``name``, built as build(K) on first use."""
    held = tables(K)
    if name not in held:
        held[name] = build(K)
    return held[name]


def derived(K, name, build):
    """The complex build(K), held as K's table ``name`` like ``memo``, with
    its own tables held beside K's for as long as K's are.  A complex
    equal to K is held as K itself."""
    L = memo(K, name, lambda K: K if (new := build(K)) == K else new)
    _HELD.setdefault(L, {})
    return L


# ---------------------------------------------------------------------------
# flagness
# ---------------------------------------------------------------------------

def missing_faces(K):
    """Minimal non-faces, as sorted bitmask list."""
    out = set()
    for f in K.faces:
        free = K.full_mask & ~f
        low = free
        while low:
            bit = low & -low
            low ^= bit
            g = f | bit
            if g in K.faces or g in out:
                continue
            sub = g
            minimal = True
            while sub:
                b = sub & -sub
                if g ^ b not in K.faces:
                    minimal = False
                    break
                sub ^= b
            if minimal:
                out.add(g)
    return sorted(out)


def is_flag(K):
    """True when every minimal non-face of K has two vertices, that is,
    when every clique of the 1-skeleton is a face; decided once per K."""
    return memo(K, "flag", _is_flag)


def require_flag(K, what):
    """Raise NotFlagError unless K is flag: the one precondition of every
    flag-only result, ``what`` naming it as ``<module>.<function>``."""
    if not is_flag(K):
        raise NotFlagError(f"{what} needs a flag complex")


def _is_flag(K):
    return all(map(K.faces.__contains__, _cliques(adjacency(K))))


def adjacency(K):
    """adj[v] = bitmask of neighbours of vertex v+1 (0-based index)."""
    adj = [0] * K.m
    for f in K.faces:
        if f.bit_count() == 2:
            a = (f & -f).bit_length() - 1
            b = f.bit_length() - 1
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def _cliques(adj):
    """Every nonempty clique of the graph with neighbour masks adj, once each."""
    stack = [(1 << v, adj[v] & ~((1 << (v + 1)) - 1)) for v in range(len(adj))]
    while stack:
        f, ext = stack.pop()
        yield f
        low = ext
        while low:
            bit = low & -low
            low ^= bit
            v = bit.bit_length() - 1
            stack.append((f | bit, ext & adj[v] & ~((bit << 1) - 1)))


def _clique_complex(m, adj, labels):
    return SimplicialComplex(m, frozenset([0, *_cliques(adj)]), labels)


def flagification(K):
    """The unique flag complex with the same 1-skeleton (all cliques)."""
    return _clique_complex(K.m, adjacency(K), K.labels)


# ---------------------------------------------------------------------------
# nu: distance from flagness, by two independent algorithms
# ---------------------------------------------------------------------------

def nu_filtration(K):
    """Rounds of adding all size->=3 missing faces until flag."""
    target = flagification(K).faces
    current = set(K.faces)
    n = 0
    while current != target:
        here = SimplicialComplex(K.m, frozenset(current), K.labels)
        add = [f for f in missing_faces(here) if f.bit_count() >= 3]
        if not add:
            raise AssertionError("filtration stalled before flagification")
        current.update(add)
        n += 1
    return n


def nu_direct(K):
    """Smallest n with: J in K whenever J ⊆ I in K^f and |I \\ J| >= n."""
    Kf = flagification(K)
    if Kf.faces == K.faces:
        return 0
    worst = 0
    for fmask in facets(Kf):
        fverts = verts_of(fmask)
        found = None
        for k in range(2, len(fverts) + 1):
            for sub in combinations(fverts, k):
                if mask_of(sub) not in K.faces:
                    found = len(fverts) - k
                    break
            if found is not None:
                break
        if found is not None and found > worst:
            worst = found
    return worst + 1


# ---------------------------------------------------------------------------
# face counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FVector:
    f: tuple  # f[-1]=1, f_0, ..., f_dim (as a tuple starting at f_{-1})
    h: tuple  # h_0 .. h_n with n = dim + 1


def f_vector(K):
    d = K.dim
    counts = [0] * (d + 2)
    for f in K.faces:
        counts[f.bit_count()] += 1
    n = d + 1
    h = [0] * (n + 1)
    # sum_{I} (s-1)^{n-|I|} = sum_i h_i s^{n-i}
    for j, cnt in enumerate(counts):  # j = |I|
        e = n - j
        for t in range(e + 1):  # (s-1)^e = sum_t C(e,t) s^t (-1)^(e-t)
            h[n - t] += cnt * comb(e, t) * (-1) ** (e - t)
    return FVector(tuple(counts), tuple(h))


def reduced_euler_char(K):
    """chi-tilde = -sum over faces (empty one included) of (-1)^|I|."""
    return -sum((-1) ** f.bit_count() for f in K.faces)


def chi_subcomplexes(K):
    """chi-tilde of every full subcomplex, as a tuple indexed by bitmask.

    Uses a subset-sum (zeta) transform, O(m 2^m), once per K: one table
    is 134 MB at m = 24.
    """
    check_sweep_cap(K)
    return memo(K, "chi", _chi_subcomplexes)


def _chi_subcomplexes(K):
    size = 1 << K.m
    acc = [0] * size
    for f in K.faces:
        acc[f] -= (-1) ** f.bit_count()
    for v in range(K.m):
        bit = 1 << v
        for mask in range(size):
            if mask & bit:
                acc[mask] += acc[mask ^ bit]
    return tuple(acc)


def skeleton(K, i):
    """sk_i K: faces with at most i+1 vertices."""
    if i < 0:
        raise ValueError("skeleton index must be >= 0")
    return SimplicialComplex(
        K.m, frozenset(f for f in K.faces if f.bit_count() <= i + 1), K.labels)


# ---------------------------------------------------------------------------
# the named corpus
# ---------------------------------------------------------------------------

def simplex(m):
    return from_facets(m, [list(range(1, m + 1))])


def simplex_boundary(m):
    if m < 2:
        raise ValueError("boundary needs m >= 2")
    return from_facets(m, [[v for v in range(1, m + 1) if v != i]
                           for i in range(1, m + 1)])


def points(m):
    return from_facets(m, [[v] for v in range(1, m + 1)])


def cycle_complex(m):
    if m < 3:
        raise ValueError("cycle needs m >= 3")
    edges = [[i, i % m + 1] for i in range(1, m + 1)]
    return from_facets(m, edges)


def disjoint_union(K1, K2):
    faces = set(K1.faces)
    faces.update(f << K1.m for f in K2.faces)
    return SimplicialComplex(K1.m + K2.m, frozenset(faces))


def join(K1, K2):
    faces = {f1 | (f2 << K1.m) for f1 in K1.faces for f2 in K2.faces}
    return SimplicialComplex(K1.m + K2.m, frozenset(faces))


def cross_polytope(d):
    """Boundary of the d-dimensional cross-polytope (d-fold join of S^0)."""
    if d < 1:
        raise ValueError("cross-polytope needs d >= 1")
    K = points(2)
    for _ in range(d - 1):
        K = join(K, points(2))
    return K


def icosahedron():
    tri = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
           (2, 3, 7), (7, 8, 3), (3, 4, 8), (8, 9, 4), (4, 5, 9),
           (9, 10, 5), (5, 6, 10), (10, 11, 6), (6, 2, 11), (11, 7, 2),
           (12, 7, 8), (12, 8, 9), (12, 9, 10), (12, 10, 11), (12, 11, 7)]
    return from_facets(12, [list(t) for t in tri])


def real_projective_plane():
    """The 6-vertex (minimal) triangulation of RP^2."""
    tri = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
           (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
    return from_facets(6, [list(t) for t in tri])


def barycentric_subdivision(K):
    """Order complex of the face poset; always a flag complex."""
    nonempty = sorted((f for f in K.faces if f), key=lambda f: (f.bit_count(), f))
    n = len(nonempty)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            a, b = nonempty[i], nonempty[j]
            if a & b == a or a & b == b:  # comparable
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return _clique_complex(n, adj, tuple(range(1, n + 1)))


def random_flag(m, p, seed):
    """Clique complex of a Bernoulli random graph G(m, p)."""
    if m < 1 or not 0 <= p <= 1:
        raise ValueError("random flag complex needs m >= 1 and 0 <= p <= 1")
    rng = random.Random(seed)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return _clique_complex(m, adj, tuple(range(1, m + 1)))
