"""Reduced (co)homology examples and coefficient bookkeeping."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from flagtor import complexes as C
from flagtor import homology as H


def test_empty_complex():
    prof = H.reduced_homology(C.EMPTY_COMPLEX, H.INTEGERS)
    assert prof.ranks == {-1: 1}
    assert prof.torsion == {}


def test_point_and_two_points():
    pt = H.reduced_homology(C.points(1), H.INTEGERS)
    assert pt.ranks == {}
    two = H.reduced_homology(C.points(2), H.INTEGERS)
    assert two.ranks == {0: 1}
    coh = H.reduced_homology(C.points(2), H.INTEGERS).cohomology()
    assert coh.ranks == {0: 1}


def test_circle():
    K = C.cycle_complex(4)
    for coeff in (H.RATIONALS, H.GF(2), H.INTEGERS):
        prof = H.reduced_homology(K, coeff)
        assert prof.ranks == {1: 1}
        assert prof.torsion == {}
    coh = H.reduced_homology(K, H.INTEGERS).cohomology()
    assert coh.ranks == {1: 1}


def test_projective_plane_all_coefficients():
    K = C.real_projective_plane()
    z = H.reduced_homology(K, H.INTEGERS)
    assert z.ranks == {}
    assert z.torsion == {1: (2,)}
    f2 = H.reduced_homology(K, H.GF(2))
    assert f2.ranks == {1: 1, 2: 1}
    q = H.reduced_homology(K, H.RATIONALS)
    assert q.ranks == {}
    coh = H.reduced_homology(K, H.INTEGERS).cohomology()
    assert coh.ranks == {}
    assert coh.torsion == {2: (2,)}


def test_spheres():
    assert H.reduced_homology(C.simplex_boundary(4), H.INTEGERS).ranks == {2: 1}
    assert H.reduced_homology(C.cross_polytope(3), H.INTEGERS).ranks == {2: 1}
    assert H.reduced_homology(C.icosahedron(), H.INTEGERS).ranks == {2: 1}
    assert H.reduced_homology(C.simplex(5), H.INTEGERS).ranks == {}


def test_cdim_and_hdim():
    def cdim_Z(K):
        return H.reduced_homology(K, H.INTEGERS).cdim()

    assert cdim_Z(C.points(1)) == -1
    assert cdim_Z(C.EMPTY_COMPLEX) == -1
    assert cdim_Z(C.cycle_complex(4)) == 1
    rp2 = C.real_projective_plane()
    assert cdim_Z(rp2) == 2
    hdim_q = H.reduced_homology(rp2, H.RATIONALS).hdim()
    hdim_2 = H.reduced_homology(rp2, H.GF(2)).hdim()
    assert hdim_q == -1  # rationally acyclic
    assert hdim_2 == 2
    # cdim equals the max of hdim over Q and the torsion prime fields
    assert max(hdim_q, hdim_2) == 2


def _random_complex(rng, m=None):
    m = m or rng.randint(2, 6)
    facets = [[v] for v in range(1, m + 1)]
    for _ in range(rng.randint(1, 6)):
        facets.append(sorted(rng.sample(range(1, m + 1), rng.randint(2, m))))
    return C.from_facets(m, facets)


def test_euler_characteristic_matches_homology():
    rng = random.Random(21)
    for _ in range(40):
        K = _random_complex(rng)
        prof = H.reduced_homology(K, H.RATIONALS)
        total = sum((-1) ** n * r for n, r in prof.ranks.items())
        assert total == C.reduced_euler_char(K)


def test_universal_coefficients_consistency():
    rng = random.Random(23)
    for _ in range(30):
        K = _random_complex(rng)
        z = H.reduced_homology(K, H.INTEGERS)
        q = H.reduced_homology(K, H.RATIONALS)
        assert q.ranks == z.ranks
        for p in (2, 3):
            fp = H.reduced_homology(K, H.GF(p))
            for n in set(z.ranks) | set(fp.ranks) | {-1, 0, 1, 2, 3}:
                tor_here = sum(1 for t in z.torsion_at(n) if t % p == 0)
                tor_below = sum(1 for t in z.torsion_at(n - 1) if t % p == 0)
                assert fp.rank(n) == z.rank(n) + tor_here + tor_below
            assert z.over(H.GF(p)) == fp
        assert z.over(H.RATIONALS) == q and z.over(H.INTEGERS) is z


# the multipliers of the pieces Z -> Z of a random complex: mostly torsion,
# as the matrices without units of the Smith form's tests, and 0 and +-1
MULTIPLIERS = st.sampled_from([-6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6])


@st.composite
def integral_complexes(draw, top=3):
    """A chain complex of free Z-modules in degrees 0..top, as (dims,
    differentials) for ``chain_homology``.

    It is a sum of pieces Z -a-> Z from degree k to k - 1 and of free
    classes, whose bases are then mixed: replacing e_i of C_n by
    e_i + c e_j adds c times column j to column i of d_n and subtracts c
    times row i from row j of d_{n+1}, which keeps d^2 = 0 and the
    homology, and hides the pieces from the eliminations.
    """
    dims = dict.fromkeys(range(top + 1), 0)
    entries = []
    for k, a in draw(st.lists(st.tuples(st.integers(1, top), MULTIPLIERS), max_size=6)):
        entries.append((k, dims[k - 1], dims[k], a))
        dims[k] += 1
        dims[k - 1] += 1
    for n in draw(st.lists(st.integers(0, top), max_size=3)):
        dims[n] += 1
    d = {k: [[0] * dims[k] for _ in range(dims[k - 1])] for k in range(1, top + 1)}
    for k, r, c, a in entries:
        d[k][r][c] = a
    for _ in range(draw(st.integers(0, 12))):
        n = draw(st.integers(0, top))
        if dims[n] < 2:
            continue
        i = draw(st.integers(0, dims[n] - 1))
        j = draw(st.integers(0, dims[n] - 2))
        j += j >= i
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        for row in d.get(n, ()):
            row[i] += c * row[j]
        if n + 1 in d:
            d[n + 1][j] = [x - c * y for x, y in zip(d[n + 1][j], d[n + 1][i])]
    differentials = {k: [[(r, rows[r][c]) for r in range(dims[k - 1]) if rows[r][c]]
                         for c in range(dims[k])] for k, rows in d.items()}
    return dims, differentials


@settings(max_examples=300, deadline=None)
@given(integral_complexes())
def test_integral_homology_over_a_field_is_the_homology_over_that_field(cx):
    z = H.chain_homology(*cx, H.INTEGERS)
    for ring in (H.RATIONALS, H.GF(2), H.GF(3)):
        assert z.over(ring) == H.chain_homology(*cx, ring), ring


def test_lemma_cdim_is_max_hdim_over_fields():
    rng = random.Random(29)
    for _ in range(25):
        K = _random_complex(rng)
        z = H.reduced_homology(K, H.INTEGERS)
        primes = set()
        for t in z.torsion.values():
            for q in t:
                p = 2
                while q % p:
                    p += 1
                primes.add(p)
        fields = [H.RATIONALS] + [H.GF(p) for p in sorted(primes)]
        assert z.cdim() == max(H.reduced_homology(K, c).hdim() for c in fields)


def test_betti_numbers_match_sympy_rank_oracle():
    # independent route: dense boundary matrices, sympy ranks over Q
    import sympy

    rng = random.Random(37)
    for _ in range(10):
        K = _random_complex(rng, m=rng.randint(2, 5))
        geo = H.geometry(K)
        counts, matrices = H._restricted_columns(geo, K.full_mask)
        ranks = {}
        for k, cols in matrices.items():
            nrows = counts.get(k - 1, 0)
            M = sympy.zeros(nrows, len(cols))
            for c, col in enumerate(cols):
                for r, sign in col:
                    M[r, c] = sign
            ranks[k] = M.rank()
        prof = H.reduced_homology(K, H.RATIONALS)
        for d, f_d in counts.items():
            expected = f_d - ranks.get(d, 0) - ranks.get(d + 1, 0)
            assert prof.rank(d) == expected


def test_field_cohomology_ranks_match_homology():
    # the cohomology profile reads the homology; the transposed boundaries,
    # eliminated here, are the independent route
    rng = random.Random(31)
    for _ in range(20):
        K = _random_complex(rng)
        counts, matrices = H._restricted_columns(H.ComplexGeometry(K), K.full_mask)
        transposed = {}
        for k, cols in matrices.items():
            rows = [[] for _ in range(counts[k - 1])]
            for i, col in enumerate(cols):
                for r, sign in col:
                    rows[r].append((i, sign))
            transposed[k] = rows
        for coeff in (H.RATIONALS, H.GF(2), H.GF(3)):
            hom = H.reduced_homology(K, coeff)
            coh = hom.cohomology()
            assert hom.ranks == coh.ranks
            assert H.chain_homology(counts, transposed, coeff).ranks == coh.ranks


def _oracle_profiles(K, Jmask):
    """Profiles of K_J over Q, F_2, F_3 and Z by plain elimination.

    Every boundary d_k, d_0 and d_1 included, is written out as a dense
    matrix on local indices, with signs taken from scratch, and reduced
    to its invariant factors by sympy.  Ranks over Q and F_p follow from
    those factors: rank over F_p counts the factors p does not divide.
    """
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    by_dim = {}
    for f in sorted(K.faces):
        if not f & ~Jmask:
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
    factors = {}
    for k, faces in by_dim.items():
        if k < 0:
            continue
        index = {g: i for i, g in enumerate(by_dim[k - 1])}
        M = sympy.zeros(len(index), len(faces))
        for c, f in enumerate(faces):
            verts = [v for v in range(K.m) if f >> v & 1]
            for i, v in enumerate(verts):
                M[index[f ^ (1 << v)], c] = (-1) ** i
        D = sympy_snf(M, domain=sympy.ZZ)
        factors[k] = [abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i]]
    out = {}
    for key, p in (("q", None), ("fp:2", 2), ("fp:3", 3), ("z", None)):
        rank = {k: sum(1 for d in ds if p is None or d % p) for k, ds in factors.items()}
        betti = {d: len(fs) - rank.get(d, 0) - rank.get(d + 1, 0)
                 for d, fs in by_dim.items()}
        torsion = {}
        if key == "z":
            for k, ds in factors.items():
                t = sorted(q ** e for d in ds if d > 1
                           for q, e in sympy.factorint(d).items())
                if t:
                    torsion[k - 1] = tuple(t)
        out[key] = H.HomologyProfile({d: b for d, b in betti.items() if b}, torsion)
    return out


def test_subcomplex_homology_matches_plain_elimination_on_every_subset():
    # the sweep takes degrees 0 and 1 from graph components and keys rows
    # by face bitmasks; the oracle eliminates every boundary on local indices
    rp2 = C.real_projective_plane()
    cases = [C.join(rp2, C.points(1)), C.join(rp2, C.points(2)),
             C.cross_polytope(3)]
    cases += [C.random_flag(m, p, seed)
              for m, p, seed in ((5, .5, 1), (6, .3, 2), (7, .5, 3), (7, .7, 4))]
    torsion_seen = False
    for K in cases:
        for J in range(1 << K.m):
            expected = _oracle_profiles(K, J)
            torsion_seen |= bool(expected["z"].torsion)
            for key, prof in expected.items():
                got = H.subcomplex_homology(K, J, H.parse_coefficients(key))
                assert got == prof, (K.m, J, key)
    assert torsion_seen
