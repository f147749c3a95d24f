"""Reduced simplicial (co)homology over Q, F_p and Z.

Chain complexes are augmented: the empty face sits in degree -1, so the
homology of the empty complex {∅} is rank one in degree -1 and the
subset-sum bookkeeping downstream needs no special cases.  Faces are
oriented by ascending vertex order with boundary signs (-1)^position.

Per-subset calls (``subcomplex_homology``, ``reduced_homology``) are
plain elimination.  For sweeps over many full subcomplexes, two rules
settle K_J from the profiles of smaller vertex sets.  ``mayer_vietoris``
takes those of lk t = K_{N(t) & (J-t)} and of K_{J-t} for a vertex t
whose links are full subcomplexes (every vertex, when K is flag), and
gives that of K_J when the long exact sequence splits.  ``reduction``
names J minus a dominated vertex (a strong collapse), or the components
of a disconnected K_J, which ``direct_sum`` puts together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .complexes import adjacency, exceeded, is_flag, memo, missing_faces
from .exact_linalg import NonPrimeModulusError, is_prime, rank_columns, snf_columns


@dataclass(frozen=True)
class Coefficients:
    """One of the rationals, a prime field F_p, or the integers."""

    kind: str  # 'q' | 'fp' | 'z'
    p: int = None

    def __post_init__(self):
        if self.kind not in ("q", "fp", "z"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "fp" and not is_prime(self.p):
            raise NonPrimeModulusError(f"{self.p} is not prime")

    @property
    def is_field(self):
        return self.kind != "z"

    def __str__(self):
        return {"q": "Q", "z": "Z"}.get(self.kind, f"F{self.p}")


RATIONALS = Coefficients("q")
INTEGERS = Coefficients("z")
MAX_MODULUS = 2**32 - 1  # of outside input, which is tested for primality by trial division


def GF(p):
    return Coefficients("fp", p)


def parse_coefficients(text):
    """Parse 'q' | 'z' | 'fp:<p>' (as used on the command line), p <= MAX_MODULUS."""
    if text == "q":
        return RATIONALS
    if text == "z":
        return INTEGERS
    if text.startswith("fp:"):
        p = int(text[3:])
        if p > MAX_MODULUS:
            raise exceeded("homology.MAX_MODULUS", MAX_MODULUS, f"the modulus of fp:{p}")
        return GF(p)
    raise ValueError(f"bad coefficient spec {text!r}; want q, z or fp:<prime>")


@dataclass(frozen=True)
class HomologyProfile:
    """Per-degree rank and torsion of a reduced (co)homology computation.

    Only nonzero entries are stored.  ``torsion[n]`` is a sorted tuple of
    prime powers; it is empty unless the coefficients were Z.  Profiles
    are read-only: a sweep interns them by ``key()``, so all subsets with
    equal profiles share a single object.
    """

    ranks: dict = field(default_factory=dict)
    torsion: dict = field(default_factory=dict)

    def rank(self, n):
        return self.ranks.get(n, 0)

    def torsion_at(self, n):
        return self.torsion.get(n, ())

    def degrees(self):
        return sorted(set(self.ranks) | set(self.torsion))

    def key(self):
        """A hashable value: equal profiles, and only those, share it."""
        return tuple(sorted(self.ranks.items())), tuple(sorted(self.torsion.items()))

    def rows(self):
        """The nonzero (n, rank, torsion) rows, by ascending degree n."""
        for n in self.degrees():
            r, t = self.rank(n), self.torsion_at(n)
            if r or t:
                yield n, r, t

    def hdim(self):
        """Top degree >= 0 with nonzero reduced homology, else -1."""
        top = -1
        for n in self.degrees():
            if n >= 0 and (self.rank(n) or self.torsion_at(n)):
                top = max(top, n)
        return top

    def cohomology(self):
        """The cohomology profile of a homology profile, over any ring.

        Ranks agree, and the torsion of H_n is that of H^{n+1} (universal
        coefficients); over a field there is no torsion to move.
        """
        return HomologyProfile(dict(self.ranks),
                               {n + 1: t for n, t in self.torsion.items()})

    def over(self, coeff):
        """The homology over coeff of the complex whose integral homology
        profile this is.

        By universal coefficients (Hatcher, Algebraic Topology, 3A.3),
        H_n(C; F_p) = H_n(C) ⊗ F_p ⊕ Tor(H_{n-1}(C), F_p): each p-primary
        summand of H_n adds one to the F_p rank in degrees n and n + 1.
        Over Q the ranks are kept, and over Z the profile is itself.
        """
        if coeff.kind == "z":
            return self
        ranks = dict(self.ranks)
        if coeff.kind == "fp":
            for n, t in self.torsion.items():
                k = sum(1 for q in t if q % coeff.p == 0)
                if k:
                    ranks[n] = ranks.get(n, 0) + k
                    ranks[n + 1] = ranks.get(n + 1, 0) + k
        return HomologyProfile(dict(sorted(ranks.items())))

    def cdim(self):
        """Top degree >= 0 with nonzero reduced *cohomology*, else -1.

        Assumes the profile is an integral homology profile; torsion in
        degree n-1 makes H^n nonzero.
        """
        top = -1
        for n in self.degrees():
            if n >= 0 and self.rank(n):
                top = max(top, n)
            if self.torsion_at(n):
                top = max(top, n + 1)
        return top


class Profiles:
    """A table of distinct profiles: ``objs`` lists each once, in order of
    first appearance, and ``intern`` gives a profile's index in it."""

    def __init__(self):
        self.objs = []
        self._index = {}  # profile.key() -> its index in objs

    def intern(self, prof):
        """Index of the one stored profile equal to prof, adding prof if new."""
        i = self._index.setdefault(prof.key(), len(self.objs))
        if i == len(self.objs):
            self.objs.append(prof)
        return i


# ---------------------------------------------------------------------------
# boundary geometry, built once per complex
# ---------------------------------------------------------------------------

class ComplexGeometry:
    """Faces of a complex grouped by dimension with boundary templates.

    ``position[f]`` is the index of face f among the faces of its
    dimension, and ``adjacency`` the 1-skeleton as neighbour bitmasks.
    ``boundary[f]`` lists (position, sign) for each codimension-one face
    of f.  Both are built on first read, which a flag sweep never makes:
    it eliminates only the empty J.
    """

    def __init__(self, K):
        self.K = K
        by_dim = {}
        for f in K.faces:
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
        self.by_dim = {d: sorted(by_dim[d]) for d in sorted(by_dim)}
        self.dim = max(self.by_dim)
        self.vertices = sum(self.by_dim.get(0, ()))
        self.adjacency = adjacency(K)

    @cached_property
    def position(self):
        return {f: i for fs in self.by_dim.values() for i, f in enumerate(fs)}

    @cached_property
    def boundary(self):
        position, boundary = self.position, {}
        for d, fs in self.by_dim.items():
            if d < 0:
                continue
            for f in fs:
                subs = []
                low, i = f, 0
                while low:
                    bit = low & -low
                    subs.append((position[f ^ bit], -1 if i & 1 else 1))
                    low ^= bit
                    i += 1
                boundary[f] = tuple(subs)
        if __debug__ and len(self.K.faces) <= 4096:
            self._check_boundary_squares_to_zero(boundary)
        return boundary

    @cached_property
    def big_non_faces(self):
        """The minimal non-faces of 3 or more vertices; none if K is flag."""
        if is_flag(self.K):
            return []
        return [N for N in missing_faces(self.K) if N.bit_count() >= 3]

    @cached_property
    def full_link_vertices(self):
        """Vertices t of K in no minimal non-face of 3 or more vertices.

        For these, lk t in every K_J is the full subcomplex on N(t) & J: if
        s is a face on that set and s + t is not, then s + t holds a
        minimal non-face, which holds t (s is a face) and has 3 or more
        vertices (every vertex of s is a neighbour of t).  Every vertex
        qualifies when K is flag.
        """
        out = self.vertices
        for N in self.big_non_faces:
            out &= ~N
        return out

    @cached_property
    def cone_blockers(self):
        """(v, w) -> the minimal non-faces N that stop v's link being a cone on w.

        v and w are vertex bits.  N has 3 or more vertices, holds w, and
        (N - w) + v is a face; one such N inside J keeps w from dominating
        v in K_J.  Only nonempty entries are kept, so a flag complex has
        none.
        """
        out = {}
        for N in self.big_non_faces:
            low = N
            while low:
                w = low & -low
                low ^= w
                for i in range(self.K.m):
                    if (N ^ w | 1 << i) in self.K.faces:
                        out.setdefault((1 << i, w), []).append(N)
        return {pair: tuple(Ns) for pair, Ns in out.items()}

    def _check_boundary_squares_to_zero(self, boundary):
        for f, subs in boundary.items():
            d = f.bit_count() - 1
            if d < 1:
                continue
            acc = {}
            for sub, sign in subs:
                for subsub, sign2 in boundary[self.by_dim[d - 1][sub]]:
                    acc[subsub] = acc.get(subsub, 0) + sign * sign2
            assert all(v == 0 for v in acc.values()), "boundary square nonzero"


def geometry(K):
    """K's geometry, kept in K's memo for sweeps and single subsets."""
    return memo(K, "geometry", ComplexGeometry)


def _restricted_columns(geo, Jmask):
    """Faces of K_J by dimension plus boundary matrix columns.

    Returns (counts, matrices): counts maps dimension d to the face
    count f_d, matrices maps k >= 0 to the columns of the boundary
    C_k -> C_{k-1}, which are the templates ``geo.boundary[f]`` of the
    k-faces f of K_J in ascending order, each [(row, sign), ...].  Rows
    are keyed by ``geo.position`` rather than renumbered per J: every face
    of a face of K_J lies in K_J, and the position order agrees with the
    order of local indices, so eliminations pick the same pivots.
    """
    full = Jmask == geo.K.full_mask
    counts, matrices = {}, {}
    for d, fs in geo.by_dim.items():
        sel = fs if full else [f for f in fs if not f & ~Jmask]
        if sel:
            counts[d] = len(sel)
            if d >= 0:
                matrices[d] = [geo.boundary[f] for f in sel]
    return counts, matrices


def _components(adj, V):
    """Vertex masks of the connected components of the graph adj on V."""
    comps = []
    while V:
        reach = frontier = V & -V
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new = adj[bit.bit_length() - 1] & V & ~reach
            reach |= new
            frontier |= new
        V ^= reach
        comps.append(reach)
    return comps


def chain_homology(dims, differentials, coeff, known=None):
    """Homology of a finite chain complex over Q, F_p or Z.

    dims maps each degree n to the dimension of C_n, and differentials
    maps k to the columns of d_k: C_k -> C_{k-1}, each a
    [(row, value), ...] list with rows 0, 1, ... of C_{k-1}.  known maps
    k to the rank of a d_k that is torsion-free over every ring; those
    are not eliminated.  This is the one place that picks between the
    field kernels and the Smith form, and the one place that applies
    rank-nullity.
    """
    ranks = dict(known or {})
    torsion = {}
    for k, cols in differentials.items():
        if k in ranks:
            continue
        if coeff.is_field:
            ranks[k] = rank_columns(cols, coeff.p)
        else:
            snf = snf_columns(cols)
            ranks[k] = snf.rank
            t = snf.torsion()
            if t:
                torsion[k - 1] = t
    betti = {}
    for n, dim in dims.items():
        b = dim - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if b:
            betti[n] = b
    return HomologyProfile(betti, torsion)


def _profile_restricted(geo, Jmask, coeff):
    """Reduced homology of K_J, eliminating only the boundaries d_k, k >= 2.

    Degrees 0 and 1 come from the graph: d_0 has rank 1 on any nonempty
    K_J, and d_1, the incidence matrix of the 1-skeleton, has rank
    f_0 - c(J) with c(J) its number of connected components.  Neither
    carries torsion over any ring: an incidence matrix is totally
    unimodular.
    """
    counts, matrices = _restricted_columns(geo, Jmask)
    f0 = counts.get(0, 0)
    known = {}
    if f0:
        known[0] = 1
        known[1] = f0 - len(_components(geo.adjacency, Jmask & geo.vertices))
    return chain_homology(counts, matrices, coeff, known)


def mayer_vietoris(link, rest):
    """Profile of K_J from those of lk t and K_{J-t}, or None if not settled.

    t is a vertex of K_J whose link is a full subcomplex
    (``ComplexGeometry.full_link_vertices``).  K_J is the union of K_{J-t}
    and the star of t, a cone, and they meet in lk t, so Mayer-Vietoris
    (Hatcher, Algebraic Topology, 2.2) gives the exact sequence
    ... -> H_n(lk) -> H_n(K_{J-t}) -> H_n(K_J) -> H_{n-1}(lk) -> H_{n-1}(K_{J-t}) -> ...
    in reduced homology, augmented so that an empty link {∅} has rank one
    in degree -1.  An acyclic link gives H(K_J) = H(K_{J-t}).  If no degree
    carries homology in both, every map H_n(lk) -> H_n(K_{J-t}) is zero
    and 0 -> H_n(K_{J-t}) -> H_n(K_J) -> H_{n-1}(lk) -> 0 is exact: over a
    field the ranks add, and over Z the sum is direct unless torsion of
    H_{n-1}(lk) meets a nonzero H_n(K_{J-t}), which is left undecided.
    An empty link thus adds one isolated point.  Any other case is None.
    """
    if not link.ranks and not link.torsion:
        return rest
    for n in link.degrees():
        if n in rest.ranks or n in rest.torsion:
            return None
    for n in link.torsion:
        if n + 1 in rest.ranks or n + 1 in rest.torsion:
            return None
    ranks, torsion = dict(rest.ranks), dict(rest.torsion)
    for n, r in link.ranks.items():
        ranks[n + 1] = ranks.get(n + 1, 0) + r
    for n, t in link.torsion.items():
        torsion[n + 1] = tuple(sorted(torsion.get(n + 1, ()) + t))
    return HomologyProfile(dict(sorted(ranks.items())), dict(sorted(torsion.items())))


def reduction(geo, Jmask):
    """Proper parts of J whose profiles give that of K_J, or None.

    Collapse: v in J is dominated in K_J by some w in J, that is, vw is
    an edge, N[v] & J lies in N[w], and no minimal non-face N inside J of
    3 or more vertices holds w with (N - w) + v a face.  Then lk(v) in K_J
    is a cone with apex w, K_J strong-collapses onto K_{J-v} (Barmak and
    Minian, 2012), and the result is (J - v,).  For flag K the non-face
    clause is empty.  Split: the graph on J has c >= 2 components J_i,
    and the result is their masks.  None means K_J is irreducible:
    connected, with no dominated vertex.  J must hold only vertices of
    K; the sweep maps any other J to J & ``geo.vertices`` first.
    """
    adj = geo.adjacency
    blockers = geo.cone_blockers
    rest = Jmask
    while rest:
        v = rest & -rest
        rest ^= v
        nbrs = adj[v.bit_length() - 1] & Jmask
        dom, low = nbrs, nbrs
        while low and dom:
            u = low & -low
            low ^= u
            dom &= adj[u.bit_length() - 1] | u
        while dom:
            w = dom & -dom
            dom ^= w
            for N in blockers.get((v, w), ()):
                if not N & ~Jmask:
                    break
            else:
                return (Jmask ^ v,)
    parts = _components(adj, Jmask)
    return parts if len(parts) > 1 else None


def direct_sum(parts):
    """Profile of K_J from the profiles of the parts ``reduction`` gave.

    A single part is a collapse, and its profile is returned as it is.
    Parts that are the c components of K_J add up degree by degree, plus
    rank c - 1 in degree 0.
    """
    if len(parts) == 1:
        return parts[0]
    ranks = {0: len(parts) - 1}
    torsion = {}
    for prof in parts:
        for n, r in prof.ranks.items():
            ranks[n] = ranks.get(n, 0) + r
        for n, t in prof.torsion.items():
            torsion[n] = torsion.get(n, ()) + t
    return HomologyProfile({n: ranks[n] for n in sorted(ranks)},
                           {n: tuple(sorted(torsion[n])) for n in sorted(torsion)})


def reduced_homology(K, coeff):
    """Reduced homology of K; over Z torsion comes from Smith forms.

    K is often not the complex in the memo (a link, say), so its geometry
    is built for this call and kept nowhere: no call evicts the memo.
    """
    return _profile_restricted(ComplexGeometry(K), K.full_mask, coeff)


def subcomplex_homology(K, Jmask, coeff):
    """Reduced homology of the full subcomplex K_J (J as a bitmask)."""
    return _profile_restricted(geometry(K), Jmask, coeff)
