"""LS-category of moment-angle complexes, exactly, in the flag case.

For a flag complex K (other than a full simplex) the category of Z_K
equals 1 + the maximal integral cohomological dimension of a full
subcomplex, which also equals 1 + the maximal cohomological dimension of
a link; the Toomer invariant over a field replaces cdim by hdim and the
maximum of the Toomer invariants over Q and the torsion prime fields
recovers the category.  For non-flag K, flagifying and discounting by
nu(K) gives a lower bound.  A small exhaustive search for witnesses that
the cup-length attains the category is included, capped at
MAX_PARTITIONS set partitions; coming up empty is a legitimate (and
recorded) outcome.  Its cochain test is built once per support S: the
d-faces of K_S, the coboundary columns into the d-cochains with their
ranks over Q and F2, and the (d+1)-faces for the cocycle guard.  Each
choice of components then costs its product cochain, the guard and one
rank with the cochain added.  ``cat_report`` gathers the values into one
plain dict, the one the ``cat`` subcommand prints.
"""

from __future__ import annotations

from itertools import product, takewhile

from . import hochster, homology
from .complexes import exceeded, flagification, is_flag, link, memo, nu_direct, require_flag
from .exact_linalg import rank_columns

MAX_PARTITIONS = 1_000_000  # set partitions one cup-witness search may try


def max_subcomplex_cdim(K):
    return max(prof.cdim() for prof in hochster.distinct_profiles(K, homology.INTEGERS))


def cat_zk(K):
    """cat(Z_K) = 1 + max over J of cdim_Z K_J, for flag K.

    The full simplex is the one degenerate case (Z_K a polydisc): 0.
    """
    require_flag(K, "lscat.cat_zk")
    if K.full_mask in K.faces:
        return 0
    return 1 + max_subcomplex_cdim(K)


def cat_via_links(K):
    """1 + max over faces I (the empty one included) of cdim_Z lk_K I,
    walked once per complex and kept in K's memo."""
    return memo(K, "cat via links", _cat_via_links)


def _cat_via_links(K):
    return 1 + max(homology.reduced_homology(link(K, I), homology.INTEGERS).cdim()
                   for I in K.faces)


def toomer(K, coeff):
    """Toomer invariant of Z_K over a field: 1 + max over J of hdim.

    It reads a store swept over the field itself, never one read off the
    integral sweep, so that the maximum over the fields is a second route
    to cat(Z_K)."""
    require_flag(K, "lscat.toomer")
    if not coeff.is_field:
        raise ValueError("lscat.toomer needs field coefficients")
    store = hochster.subcomplex_profiles(K, coeff, derive=False)
    return 1 + max(prof.hdim() for prof in store.objs)


def toomer_report(K):
    """Toomer invariants over Q and every torsion prime field, plus the max.

    The primes are harvested from the Smith forms of the subcomplex
    sweep; the maximum over these fields equals cat(Z_K).
    """
    fields = [homology.RATIONALS]
    fields += [homology.GF(p) for p in hochster.torsion_primes(K)]
    values = {str(c): toomer(K, c) for c in fields}
    return {"by_field": values, "max": max(values.values())}


def cat_lower_bound(K):
    """1 - nu(K) + max over J of cdim_Z of the flagification's K_J, and at
    least 1 unless K is a full simplex (Z_K is then contractible, and
    otherwise it is not).

    Equals cat(Z_K) itself when K is flag (nu = 0).
    """
    bound = 1 - nu_direct(K) + max_subcomplex_cdim(flagification(K))
    return bound if K.full_mask in K.faces else max(1, bound)


# ---------------------------------------------------------------------------
# cup-length witnesses
# ---------------------------------------------------------------------------

def _partitions(vertices, parts):
    """Set partitions of the list into exactly `parts` blocks.

    Canonical order: each block is opened by the smallest element not in
    an earlier block, so every partition appears exactly once.
    """
    if len(vertices) < parts or parts < 1:
        return

    def rec(i, blocks):
        remaining = len(vertices) - i
        if remaining < parts - len(blocks):
            return
        if i == len(vertices):
            if len(blocks) == parts:
                yield [list(b) for b in blocks]
            return
        v = vertices[i]
        for b in blocks:
            b.append(v)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < parts:
            blocks.append([v])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def _cochain_values(faces, chosen):
    """The product of the chosen components' indicator 0-cocycles on the
    d-faces of K_S, with join-product signs.

    A face meets each chosen component in one vertex or gets 0; the sign
    is that of the order of those vertices, read part by part.
    """
    values = []
    for f in faces:
        reps = [f & c for c in chosen]
        if any(r.bit_count() != 1 for r in reps):
            values.append(0)
        else:
            inv = sum(a > b for i, a in enumerate(reps) for b in reps[i + 1:])
            values.append(-1 if inv & 1 else 1)
    return values


def _is_cocycle(tops, values):
    """Sanity guard: the product cochain must vanish on the boundary of
    every (d+1)-face of K_S, given as (index, sign) pairs."""
    return not any(sum(sign * values[i] for i, sign in top) for top in tops)


def _support_test(K, Smask, d):
    """The cochain test of the support S, built once per S: a function from
    one chosen component per part to the field ("Q", else "F2") over which
    their product cochain is not a coboundary in K_S, or None."""
    geo = homology.geometry(K)
    faces = [f for f in geo.by_dim[d] if not f & ~Smask]  # sorted, as by_dim is
    index = {geo.position[f]: i for i, f in enumerate(faces)}
    # the boundary of each (d+1)-face of K_S, on the d-faces, for the guard
    tops = [[(index[r], sign) for r, sign in geo.boundary[t]]
            for t in geo.by_dim.get(d + 1, ()) if not t & ~Smask]
    # the coboundary into the d-cochains: one column per (d-1)-face
    lower = {}
    for i, f in enumerate(faces):
        for r, sign in geo.boundary[f]:
            lower.setdefault(r, []).append((i, sign))
    cols = list(lower.values())
    ranks = [(p, rank_columns(cols, p)) for p in (None, 2)]

    def test(chosen):
        values = _cochain_values(faces, chosen)
        if not any(values):
            return None
        assert _is_cocycle(tops, values), "product cochain failed the cocycle check"
        target = [(i, v) for i, v in enumerate(values) if v]
        for p, rank in ranks:
            if rank_columns(cols + [target], p) > rank:
                return "Q" if p is None else "F2"
        return None

    return test


def _supports(m, least):
    """Every set of at least ``least`` of m vertices, as a mask: by
    descending size and then ascending mask, one next-combination step
    (Gosper's) at a time, without building the list."""
    for k in range(m, max(least, 0) - 1, -1):
        S = (1 << k) - 1
        while not S >> m:
            yield S
            if not S:
                break
            low = S & -S
            high = S + low
            S = high | (S ^ high) // low >> 2


def cup_witness_search(K):
    """Look for disjoint A_1..A_{d+1} certifying cup-length = cat(Z_K).

    Tries supports in decreasing size and set partitions into d+1 parts,
    each inducing a disconnected subcomplex; the candidate classes are
    products of component-indicator 0-cocycles (which span, so checking
    all component choices decides each partition).  Returns the first
    witness found, or None: not finding one proves nothing.  Past
    MAX_PARTITIONS partitions tried it raises BudgetExceededError.
    """
    require_flag(K, "lscat.cup_witness_search")
    d = max_subcomplex_cdim(K)
    if d < 0:
        return None
    adj = homology.geometry(K).adjacency
    tried = 0
    for Smask in _supports(K.m, 2 * (d + 1)):
        test = None
        verts = [v for v in range(K.m) if (Smask >> v) & 1]
        for blocks in _partitions(verts, d + 1):
            tried += 1
            if tried > MAX_PARTITIONS:
                raise exceeded("lscat.MAX_PARTITIONS", MAX_PARTITIONS,
                               "set partitions tried without finding a witness")
            parts = [sum(1 << v for v in b) for b in blocks]
            comps = list(takewhile(lambda c: len(c) > 1,
                                   (homology._components(adj, p) for p in parts)))
            if len(comps) <= d:
                continue
            test = test or _support_test(K, Smask, d)
            for chosen in product(*comps):
                field = test(chosen)
                if field:
                    return {"support": Smask, "parts": parts, "components": list(chosen),
                            "field": field, "dimension": d}
    return None


def cat_report(K):
    """The category of Z_K by subcomplexes and by links, as a dict.

    Keys ``is_flag``, ``via_subcomplexes`` and ``via_links``; for flag K
    also ``cat`` and ``toomer`` (the ``toomer_report``), and otherwise
    ``lower_bound`` (``cat_lower_bound``).
    """
    report = {"is_flag": is_flag(K),
              "via_subcomplexes": 1 + max_subcomplex_cdim(K),
              "via_links": cat_via_links(K)}
    if report["is_flag"]:
        report["cat"] = cat_zk(K)
        report["toomer"] = toomer_report(K)
    else:
        report["lower_bound"] = cat_lower_bound(K)
    return report
