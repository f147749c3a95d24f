"""Tor of the loop homology of a moment-angle complex, two independent ways.

For a flag complex K, Tor_n of the Pontryagin algebra H_*(ΩZ_K) in
multidegree (-|J|, 2J) is the reduced homology of the full subcomplex
K_J in degree n-1, and vanishes in every non-squarefree multidegree.
That is the summand the Hochster decomposition puts in H_n(R_K), so
route one, the Tor table, is the R_K table of ``hochster.rk_homology``,
keyed (J, n).  Route two computes the same numbers independently, as
the homology of finite multidegree slices of the twisted complex
Λ[u_1..u_m] ⊗ k<K> whose differential peels one letter off the
divided-power part:

    d(u_I ⊗ χ_α) = sum over j in supp α of (u_I ∧ u_j) ⊗ χ_{α - e_j}.

It also enumerates, one word length at a time, a monomial basis of the
quadratic dual algebra

    T(u_1..u_m) / (u_i^2;  u_i u_j + u_j u_i for edges {i,j})

and computes Ext of the Stanley-Reisner ring by a brute-force cobar
slice, so the diagonal identity between the two can be verified on
actual numbers.

Results are plain data: a slice is a pair (basis by degree, differential
columns by degree), a basis word is a tuple of letters, and exponent
vectors are halved, as in the multidegree 2*beta.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from . import hochster, homology
from .complexes import adjacency, exceeded, memo, require_flag

DEFAULT_DEGREE_BOUND = 8
MAX_DEGREE_BOUND = 31  # as MultiSeries; cobar words recurse once per letter
MAX_WORDS = 500_000  # most normal words of one length that are built
MAX_LETTERS = 16_000_000  # most letters of normal words built, over all lengths


# ---------------------------------------------------------------------------
# route one: full subcomplexes
# ---------------------------------------------------------------------------

def tor_via_subcomplexes(K, coeff):
    """Tor_n at multidegree (-|J|, 2J), keyed (J, n): the R_K table, whose
    totals are the Tor ranks and torsion per degree n."""
    require_flag(K, "pontryagin.tor_via_subcomplexes")
    return hochster.rk_homology(K, coeff)


def tor_for_subset(K, Jmask, coeff):
    """The single multidegree (-|J|, 2J) column of the Tor table.

    Works for any m (no 2^m sweep): used when the full table is out of
    reach but one slice, typically J = [m], is wanted.
    """
    require_flag(K, "pontryagin.tor_for_subset")
    prof = hochster.profile_for_subset(K, Jmask, coeff)
    return {d + 1: (r, t) for d, r, t in prof.rows()}


def generator_relation_counts(K, coeff):
    """Minimal generator/relation counts of the loop homology algebra.

    They are read off Tor_1 and Tor_2 of the Tor table by
    ``minimal_counts`` and ``minimal_total``.  Over a field the counts
    are exact; over Z they are lower bounds (the minimal number of
    generators of the corresponding Tor modules).  Returns
    (generators_by_J, relations_by_J, totals dict), by ascending J.
    """
    table = tor_via_subcomplexes(K, coeff)
    totals = {"generators": minimal_total(table, 1),
              "relations": minimal_total(table, 2), "exact": coeff.is_field}
    return dict(minimal_counts(table, 1)), dict(minimal_counts(table, 2)), totals


def minimal_counts(table, n):
    """(J, count) for every J where Tor_n of the Tor table is nonzero, in
    ascending J: the minimal number of generators of Tor_n at J, its rank
    plus its number of torsion summands."""
    return ((J, r + len(t)) for (J, _), (r, t) in table.entries.in_degree(n))


def minimal_total(table, n):
    """The sum of ``minimal_counts(table, n)``, read off the totals."""
    return table.totals_rank.get(n, 0) + len(table.totals_torsion.get(n, ()))


def gens_rels_for_subset(K, Jmask, coeff):
    """Generator and relation counts at the single subset J (flag K):
    Tor_1 and Tor_2 of ``tor_for_subset``."""
    tor = tor_for_subset(K, Jmask, coeff)
    return tuple(r + len(t) for r, t in (tor.get(n, (0, ())) for n in (1, 2)))


# ---------------------------------------------------------------------------
# route two: multidegree slices of the twisted exterior complex
# ---------------------------------------------------------------------------

def koszul_slice(K, beta):
    """Basis and differential of the slice at multidegree 2*beta.

    A basis element u_I ⊗ χ_α has I squarefree, supp(α) a face and
    I + α = beta, so its exterior mask I alone fixes it: α = beta - 1_I,
    and its homological index is t = |α| = |beta| - |I|.  Returns
    (bases, matrices) where bases[t] is the ascending list of the masks I
    in degree t and matrices[t] holds the columns of d: C_t -> C_{t-1}.
    Column I of d_t has one entry per j in supp(beta) - I, at row
    I + j of C_{t-1} with sign (-1)^{|I ∩ [0, j)|}.
    """
    beta = tuple(beta)
    if len(beta) != K.m or any(b < 0 for b in beta):
        raise ValueError("beta must be a nonnegative vector of length m")
    # supp(alpha) always contains the coordinates with beta_i >= 2 and is
    # otherwise a subset of those with beta_i = 1, so it is enough to run
    # over the faces pinned between the two; the exterior part I is then
    # free on the pinned coordinates.
    pin = 0
    ones = 0
    for i, b in enumerate(beta):
        if b >= 2:
            pin |= 1 << i
        elif b == 1:
            ones |= 1 << i
    supp = pin | ones
    outside = ~supp
    faces = [G for G in K.faces if not G & outside and G & pin == pin]
    pinned = [0]  # every subset of pin
    low = pin
    while low:
        bit = low & -low
        low ^= bit
        pinned += [R | bit for R in pinned]
    total = sum(beta)
    bases = {}
    for I in sorted(ones & ~G | R for G in faces for R in pinned):
        bases.setdefault(total - I.bit_count(), []).append(I)
    bases = dict(sorted(bases.items()))
    # Every degree above the lowest holds an I with a free j, so the
    # degrees run without a gap and rows indexes C_{t-1}; the lowest
    # degree's columns are empty.
    matrices = {}
    rows = {}
    for t, bs in bases.items():
        if t:
            cols = []
            for I in bs:
                col = []
                free = supp & ~I
                while free:
                    bit = free & -free
                    free ^= bit
                    col.append((rows[I | bit],
                                -1 if (I & (bit - 1)).bit_count() & 1 else 1))
                cols.append(col)
            matrices[t] = cols
        rows = {I: i for i, I in enumerate(bs)}
    return bases, matrices


class KoszulSlices(homology.Profiles):
    """K's table "koszul slices": the integral homology of each slice read.

    A ``homology.Profiles``: equal profiles are interned, so ``objs``
    lists each distinct profile once, and ``ids`` maps each slice read to
    its index in ``objs``, keyed by the mask J when beta = J is squarefree
    and by (the values of beta on its support S, in vertex order, S)
    otherwise.  Indexed by beta, the table gives the profile.

    For flag K the slice at 2*beta depends only on the values of beta on
    S and on the graph K induces on S, renumbered 0..|S|-1 in order: K
    restricted to S is the clique complex of that graph, and
    ``koszul_slice`` reads only faces inside S, sorts the masks I and
    signs by |I ∩ [0, j)|, which a renumbering that keeps the order
    preserves.  So there is one build and one integral elimination per
    distinct slice shape: a cold beta takes the index of the first beta
    of its shape (``shape``), and only the first of each shape is built.
    ``tor`` reads a profile over a ring on every call; the table holds
    only integral profiles, and ``checks`` holds its verdicts per ring.
    """

    def __init__(self, K):
        super().__init__()
        self.m = K.m
        self.adj = adjacency(K)
        self._shapes = {}  # the shape of a slice -> its index in objs
        self.ids = {}

    def __getitem__(self, beta):
        return self.objs[self.ids[self.key(tuple(beta))]]

    def key(self, beta):
        """The key of beta in ``ids``: its mask J if beta = J is squarefree
        (given as a vector of length m, or as J), else the pair of its
        values on its support S, in vertex order, and S."""
        if type(beta) is int:
            return beta
        S, high = 0, False
        for v, b in enumerate(beta):
            if b:
                S |= 1 << v
                high = high or b != 1
        if len(beta) != self.m or high and min(beta) < 0:
            raise ValueError("beta must be a nonnegative vector of length m")
        return (tuple(filter(None, beta)), S) if high else S

    def shape(self, S):
        """The shape of the support S as an int: a sentinel bit for |S|,
        then for the i-th vertex of S, in order, i bits that mark its
        neighbours among the vertices of S before it.  Supports whose
        induced graphs agree once renumbered in order share it, and no
        two sizes of S do."""
        key, low, i = 1 << S.bit_count(), S, 0
        while low:
            bit = low & -low
            low ^= bit
            near = self.adj[bit.bit_length() - 1] & S & (bit - 1)
            key <<= i
            while near:
                u = near & -near
                near ^= u
                key |= 1 << (S & (u - 1)).bit_count()
            i += 1
        return key

    def index(self, K, beta):
        """The index in ``objs`` of the slice at 2*beta (a vector, or the
        mask J of a squarefree one).  A cold beta is keyed by its shape, the
        shape of its support paired with its values there unless it is
        squarefree, and only the first beta of a shape is built and
        eliminated over Z."""
        key = self.key(beta)
        i = self.ids.get(key)
        if i is None:
            if type(key) is int:
                shape = self.shape(key)
                beta = tuple((key >> v) & 1 for v in range(self.m))
            else:
                shape = key[0], self.shape(key[1])
            i = self._shapes.get(shape)
            if i is None:
                i = self._shapes[shape] = self._eliminate(K, beta)
            self.ids[key] = i
        return i

    def _eliminate(self, K, beta):
        """Build the slice at 2*beta, eliminate it over Z and intern its
        profile; its index in ``objs``."""
        bases, matrices = koszul_slice(K, beta)
        return self.intern(homology.chain_homology(
            {t: len(bs) for t, bs in bases.items()}, matrices, homology.INTEGERS))

    def tor(self, i, coeff):
        """The homology over coeff of the slice with index i, per
        homological degree t -> (rank, torsion), by universal coefficients
        (``HomologyProfile.over``)."""
        return {t: (r, tors) for t, r, tors in self.objs[i].over(coeff).rows()}


def tor_via_koszul_complex(K, coeff, beta):
    """Homology of the slice at 2*beta, per homological degree.

    For squarefree beta = J this must match tor_via_subcomplexes; for
    non-squarefree beta it must vanish entirely.  Returns a dict
    t -> (rank, torsion).

    It reads K's table "koszul slices" (``KoszulSlices``), which makes
    one build and one integral elimination per distinct slice shape: for
    flag K, K restricted to the support S of beta is the clique complex of
    its induced graph, so the slice depends only on the values of beta on
    S and on that graph, renumbered in order.  Every read, over any ring,
    takes the profile by universal coefficients.
    """
    require_flag(K, "pontryagin.tor_via_koszul_complex")
    slices = memo(K, "koszul slices", KoszulSlices)
    return slices.tor(slices.index(K, tuple(beta)), coeff)


def squarefree_slice_ids(K, masks):
    """The slices at the squarefree beta = J, for each J in masks.

    Returns (ids, slices): ``slices`` is K's table "koszul slices" and
    ids[k] the index of the k-th J's slice in it, so that J with equal
    slice homology share one index and ``slices.tor(i, coeff)`` reads
    each distinct slice once.  A cold J shares the slice of an earlier J
    of its shape, if there is one: there is one build and one integral
    elimination per distinct slice shape, since for flag K the slice at J
    depends only on the graph K induces on J, renumbered in order, whose
    clique complex K_J is.
    """
    require_flag(K, "pontryagin.squarefree_slice_ids")
    slices = memo(K, "koszul slices", KoszulSlices)
    ids = slices.ids
    return [ids[J] if J in ids else slices.index(K, J) for J in masks], slices


def slice_ids(K, betas):
    """The slices at 2*beta, for each beta of betas (vectors of length m).

    Returns (ids, slices) as ``squarefree_slice_ids`` does: ``slices`` is
    K's table "koszul slices" and ids[k] the index in it of the k-th
    beta's slice, built and eliminated over Z only if no earlier beta
    had its shape.
    """
    require_flag(K, "pontryagin.slice_ids")
    slices = memo(K, "koszul slices", KoszulSlices)
    return [slices.index(K, tuple(beta)) for beta in betas], slices


# ---------------------------------------------------------------------------
# the quadratic dual: normal-word basis
# ---------------------------------------------------------------------------

def _normal_word_levels(K, max_length):
    """The basis words of each length 0..max_length, one level per length.

    Letters joined by an edge anticommute, so a word is a basis monomial
    iff it is the lexicographically least in its class and no two equal
    letters can be brought together (those words are zero, u_i^2 = 0).
    Whether x may follow a word ending in y is decided by y, unless x
    anticommutes with y and exceeds it: then x moves past y and the rest
    of the word decides.  So each word carries the mask of the letters
    that may follow it, and that of word + (y,) takes one step: what y
    decides, plus what the word accepts of the letters y passes on.

    Level n + 1 appends each accepted letter, ascending, to each word of
    level n, so each level is in lexicographic order.  Both caps are
    checked while building: MAX_WORDS bounds one level's memory, and
    MAX_LETTERS the work of all levels, which grows with the length where
    each level is small.  Past an empty level every level is empty, so
    none is built.
    """
    adj, level, follow = adjacency(K), [()], [(1 << K.m) - 1]
    # y accepts the letters it does not meet (they stay behind it), refuses
    # itself (a square) and the smaller letters it meets (they could sit
    # before it), and passes on the greater letters it meets
    accepts = [follow[0] & ~a & ~(1 << y) for y, a in enumerate(adj)]
    passes = [a & -(2 << y) for y, a in enumerate(adj)]
    built = 0
    yield level
    for n in range(1, max_length + 1):
        longer, after = [], []
        for word, ok in zip(level, follow):
            rest = ok
            while rest:
                low = rest & -rest
                y = low.bit_length() - 1
                longer.append(word + (y + 1,))
                after.append(accepts[y] | passes[y] & ok)
                rest ^= low
            if len(longer) > MAX_WORDS:
                raise exceeded("pontryagin.MAX_WORDS", MAX_WORDS,
                               f"normal words of length {n}")
            if built + n * len(longer) > MAX_LETTERS:
                raise exceeded("pontryagin.MAX_LETTERS", MAX_LETTERS,
                               f"letters of the normal words up to length {n}")
        built += n * len(longer)
        level, follow = longer, after
        yield level
        if not level:
            return


def normal_words(K, length):
    """All basis words of the given length, in lexicographic order."""
    if length < 0:
        raise ValueError("--length must be >= 0")
    for words in _normal_word_levels(K, length):
        pass
    return words


def koszul_dual_basis(K, length):
    """The basis words of the given length plus their count per exponent
    vector: the words as letter tuples, in lexicographic order, and a dict
    alpha -> count."""
    words = normal_words(K, length)
    return words, _exponent_counts(words, K.m)


def normal_word_counts(K, max_total):
    """Counts per exponent vector for all lengths 0..max_total."""
    return _exponent_counts(chain.from_iterable(_normal_word_levels(K, max_total)), K.m)


def _exponent_counts(words, m):
    """The number of words per exponent vector, alpha_v being how often
    the letter v occurs: counted by sorted letters, one key per alpha,
    and each key's alpha built once."""
    counts = {}
    for letters, c in Counter(tuple(sorted(w)) for w in words).items():
        alpha = [0] * m
        for v in letters:
            alpha[v - 1] += 1
        counts[tuple(alpha)] = c
    return counts


# ---------------------------------------------------------------------------
# cobar construction of the Stanley-Reisner coalgebra
# ---------------------------------------------------------------------------

def cobar_slice(K, beta):
    """Words and differential of the cobar slice at multidegree 2*beta.

    Words are tuples of nonzero exponent vectors with face support
    summing to beta.  Returns (words, matrices), where words[s] lists the
    length-s words and matrices[s] holds the columns of the differential
    C_s -> C_{s+1}, which splits one letter via the deconcatenation
    coproduct with alternating signs:

        d[x_1|..|x_s] = sum_k (-1)^k [x_1|..|x'_k|x''_k|..|x_s].

    Every letter has even total degree, so all bar signs collapse to
    this simplicial alternation (which is what makes d^2 = 0 over Z).
    """
    beta = tuple(beta)
    letters = [l for l in _subvectors(beta)
               if any(l) and _support_mask(l) in K.faces]
    words = {0: [()]} if not any(beta) else {}
    if any(beta):
        acc = []
        _cobar_words(letters, beta, [], acc)
        for w in acc:
            words.setdefault(len(w), []).append(w)
    index = {s: {w: i for i, w in enumerate(ws)} for s, ws in words.items()}
    matrices = {}
    for s, ws in words.items():
        tgt = index.get(s + 1)
        if not tgt:
            continue
        cols = []
        for w in ws:
            col = {}
            for k, letter in enumerate(w, start=1):
                sign = -1 if k & 1 else 1
                for bsplit, gsplit in _splits(letter):
                    nw = w[:k - 1] + (bsplit, gsplit) + w[k:]
                    r = tgt[nw]
                    col[r] = col.get(r, 0) + sign
            cols.append([(r, v) for r, v in col.items() if v])
        matrices[s] = cols
    return words, matrices


def _cobar_words(letters, remaining, cur, acc):
    """Append to acc, in order, cur followed by each word summing to remaining."""
    if not any(remaining):
        acc.append(tuple(cur))
        return
    for l in letters:
        if all(a <= r for a, r in zip(l, remaining)):
            cur.append(l)
            _cobar_words(letters, tuple(r - a for r, a in zip(remaining, l)), cur, acc)
            cur.pop()


def _subvectors(vec):
    """All vectors 0 <= w <= vec coordinatewise."""
    out = [tuple()]
    for v in vec:
        out = [w + (a,) for w in out for a in range(v + 1)]
    return out


def _support_mask(vec):
    mask = 0
    for i, a in enumerate(vec):
        if a:
            mask |= 1 << i
    return mask


def _splits(letter):
    """Nontrivial splittings beta'+gamma' = letter with both parts nonzero."""
    return [(w, tuple(a - b for a, b in zip(letter, w)))
            for w in _subvectors(letter)
            if any(w) and any(a - b for a, b in zip(letter, w))]


def cobar_ext(K, coeff, beta, bound=DEFAULT_DEGREE_BOUND):
    """dim Ext^s of the Stanley-Reisner ring at multidegree 2*beta.

    Field coefficients only.  For flag K this is nonzero only on the
    diagonal s = |beta| where it equals the normal-word count.  The slice
    is built and eliminated over Z once per complex, and its integral
    homology held in K's memo, table "cobar slices" (a dict beta ->
    profile, fetched through ``complexes.memo``); every call reads it over
    its field by universal coefficients (``HomologyProfile.over``).
    """
    if not coeff.is_field:
        raise ValueError("pontryagin.cobar_ext needs field coefficients")
    beta = tuple(beta)
    name, cap = (("bound", bound) if bound <= MAX_DEGREE_BOUND
                 else ("pontryagin.MAX_DEGREE_BOUND", MAX_DEGREE_BOUND))
    if sum(beta) > cap:
        raise exceeded(name, cap, f"|beta| = {sum(beta)} in cobar Ext")
    slices = memo(K, "cobar slices", lambda K: {})
    prof = slices.get(beta)
    if prof is None:
        words, matrices = cobar_slice(K, beta)
        # d raises s, so C_s sits in chain degree -s
        prof = slices[beta] = homology.chain_homology(
            {-s: len(ws) for s, ws in words.items()},
            {-s: cols for s, cols in matrices.items()}, homology.INTEGERS)
    return {-n: d for n, d in prof.over(coeff).ranks.items()}


# ---------------------------------------------------------------------------
# Milnor-Moore bookkeeping
# ---------------------------------------------------------------------------

def milnor_moore_check(K, coeff, e2_total=None):
    """Total dimension of the Tor table vs. total Betti of Z_K.

    For flag K the loop-homology spectral sequence degenerates, so the
    two sums agree; a mismatch means an implementation bug.  Both totals
    fold the same sweep unless ``e2_total`` supplies E2 from another
    route, such as the Koszul slices.
    """
    require_flag(K, "pontryagin.milnor_moore_check")
    if not coeff.is_field:
        raise ValueError("pontryagin.milnor_moore_check needs field coefficients")
    e2 = e2_total
    if e2 is None:
        e2 = sum(tor_via_subcomplexes(K, coeff).totals_rank.values())
    einf = sum(hochster.zk_homology(K, coeff).totals_rank.values())
    return {"e2_total": e2, "einf_total": einf, "collapse": e2 == einf}
