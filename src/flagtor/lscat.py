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
recorded) outcome.  ``cat_report`` gathers the values into one plain
dict, the one the ``cat`` subcommand prints.
"""

from __future__ import annotations

from . import hochster, homology
from .complexes import NotFlagError, flagification, is_flag, link, memo, nu_direct
from .exact_linalg import rank_columns

MAX_PARTITIONS = 1_000_000  # set partitions one cup-witness search may try


class SearchBudgetExceededError(ValueError):
    """The cup-witness search tried MAX_PARTITIONS set partitions in vain."""


def max_subcomplex_cdim(K):
    return max(prof.cdim() for prof in hochster.distinct_profiles(K, homology.INTEGERS))


def cat_zk(K):
    """cat(Z_K) = 1 + max over J of cdim_Z K_J, for flag K.

    The full simplex is the one degenerate case (Z_K a polydisc): 0.
    """
    if not is_flag(K):
        raise NotFlagError("the exact category formula needs a flag complex")
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
    """Toomer invariant of Z_K over a field: 1 + max over J of hdim."""
    if not is_flag(K):
        raise NotFlagError("the Toomer formula needs a flag complex")
    if not coeff.is_field:
        raise ValueError("Toomer invariant needs field coefficients")
    return 1 + max(prof.hdim() for prof in hochster.distinct_profiles(K, coeff))


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
    """1 - nu(K) + max over J of cdim_Z of the flagification's K_J.

    Equals cat(Z_K) itself when K is flag (nu = 0).
    """
    Kf = flagification(K)
    return 1 - nu_direct(K) + max_subcomplex_cdim(Kf)


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


def _cocycle_values(K, Smask, parts, comps_choice):
    """The product cochain on top faces of K_S, with join-product signs.

    parts: list of vertex masks A_1..A_{d+1}; comps_choice: the chosen
    component mask within each part.  Returns (d_faces, values) where
    values[i] is the coefficient on the i-th d-face of K_S.
    """
    d = len(parts) - 1
    faces = sorted(f for f in K.faces if not f & ~Smask
                   and f.bit_count() == d + 1)
    values = []
    for f in faces:
        val = 1
        reps = []
        for part, comp in zip(parts, comps_choice):
            inter = f & part
            if inter.bit_count() != 1:
                val = 0
                break
            reps.append(inter)
            if not inter & comp:
                val = 0
        if val:
            inv = sum(1 for a in range(d + 1) for b in range(a + 1, d + 1)
                      if reps[a] > reps[b])
            val = -1 if inv & 1 else 1
        values.append(val)
    return faces, values


def _is_cocycle(K, Smask, faces, values):
    """Sanity guard: the product cochain must vanish under the coboundary."""
    d = faces[0].bit_count() - 1 if faces else 0
    geo = homology.geometry(K)
    index = {geo.position[f]: i for i, f in enumerate(faces)}
    for tau in K.faces:
        if tau & ~Smask or tau.bit_count() != d + 2:
            continue
        total = 0
        for sub, sign in geo.boundary[tau]:
            i = index.get(sub)
            if i is not None:
                total += sign * values[i]
        if total:
            return False
    return True


def _is_coboundary(K, faces, values, p=None):
    """Is the cochain a coboundary in the reduced complex of K_S?

    faces are the d-faces of K_S.  The coboundary has one column per
    (d-1)-face of a d-face, with rows indexed like faces; the other
    (d-1)-faces give zero columns, which leave the ranks alone.
    """
    geo = homology.geometry(K)
    by_lower = {}
    for i, f in enumerate(faces):
        for r, sign in geo.boundary[f]:
            by_lower.setdefault(r, []).append((i, sign))
    cols = list(by_lower.values())
    target = [(i, v) for i, v in enumerate(values) if v]
    return rank_columns(cols + [target], p) == rank_columns(cols, p)


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
    MAX_PARTITIONS partitions tried it raises SearchBudgetExceededError.
    """
    if not is_flag(K):
        raise NotFlagError("the witness search targets flag complexes")
    d = max_subcomplex_cdim(K)
    if d < 0:
        return None
    nparts = d + 1
    adj = homology.geometry(K).adjacency
    tried = 0
    for Smask in _supports(K.m, 2 * nparts):
        verts = [v for v in range(K.m) if (Smask >> v) & 1]
        for blocks in _partitions(verts, nparts):
            tried += 1
            if tried > MAX_PARTITIONS:
                raise SearchBudgetExceededError(
                    f"the cup-witness search tried {MAX_PARTITIONS} set "
                    f"partitions without finding a witness")
            parts = []
            comps_by_part = []
            ok = True
            for b in blocks:
                pmask = 0
                for v in b:
                    pmask |= 1 << v
                comps = homology._components(adj, pmask)
                if len(comps) < 2:
                    ok = False
                    break
                parts.append(pmask)
                comps_by_part.append(comps)
            if not ok:
                continue
            choice = [0] * nparts

            def try_choices(i):
                if i == nparts:
                    chosen = [comps_by_part[j][choice[j]] for j in range(nparts)]
                    faces, values = _cocycle_values(K, Smask, parts, chosen)
                    if not any(values):
                        return None
                    assert _is_cocycle(K, Smask, faces, values), \
                        "product cochain failed the cocycle check"
                    for p in (None, 2):
                        if not _is_coboundary(K, faces, values, p):
                            return {
                                "support": Smask,
                                "parts": parts,
                                "components": chosen,
                                "field": "Q" if p is None else "F2",
                            }
                    return None
                for c in range(len(comps_by_part[i])):
                    choice[i] = c
                    found = try_choices(i + 1)
                    if found:
                        return found
                return None

            witness = try_choices(0)
            if witness:
                witness["dimension"] = d
                return witness
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
