"""Combinatorial layer: constructors, subcomplexes, links, flagness, nu."""

import random

import pytest

from flagtor import cli
from flagtor import complexes as C
from flagtor.complexes import (GhostVertexError, NotAFaceError,
                               VertexOutOfRangeError, mask_of, verts_of)


def faces_as_tuples(K):
    return {verts_of(f) for f in K.faces}


def test_from_facets_four_cycle():
    K = C.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert len(K.faces) == 9  # empty + 4 vertices + 4 edges
    assert mask_of([1, 2]) in K.faces
    assert mask_of([1, 3]) not in K.faces


def test_from_facets_boundary_of_triangle():
    K = C.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert len(K.faces) == 7
    assert K.dim == 1


def test_from_facets_two_points():
    K = C.from_facets(2, [[1], [2]])
    assert faces_as_tuples(K) == {(), (1,), (2,)}


def test_from_facets_errors():
    with pytest.raises(GhostVertexError):
        C.from_facets(3, [[1, 2]])
    with pytest.raises(VertexOutOfRangeError):
        C.from_facets(2, [[1, 3]])


def test_validate_passes_on_generators():
    for K in (C.cycle_complex(5), C.simplex(4), C.cross_polytope(3),
              C.icosahedron(), C.real_projective_plane()):
        C.validate(K)


def test_full_subcomplex_of_cycle():
    K = C.cycle_complex(4)
    two = C.full_subcomplex(K, [1, 3])
    assert faces_as_tuples(two) == {(), (1,), (2,)}
    assert two.labels == (1, 3)
    edge = C.full_subcomplex(K, [1, 2])
    assert faces_as_tuples(edge) == {(), (1,), (2,), (1, 2)}
    assert C.full_subcomplex(K, []).faces == frozenset({0})


def brute_force_link(K, Imask):
    return {f for f in K.faces if not f & Imask and (f | Imask) in K.faces}


def test_link_of_cycle_vertex():
    K = C.cycle_complex(4)
    lk = C.link(K, [1])
    assert faces_as_tuples(lk) == {(), (1,), (2,)}
    assert lk.labels == (2, 4)


def test_link_of_empty_face_is_the_complex():
    K = C.cycle_complex(5)
    assert C.link(K, []) is K


def test_link_errors_on_non_face():
    with pytest.raises(NotAFaceError):
        C.link(C.cycle_complex(4), [1, 3])


def test_link_in_octahedron_is_square():
    # expected value computed with the defining enumeration
    K = C.cross_polytope(3)
    raw = brute_force_link(K, 1)  # vertex 1
    assert len(raw) == 9
    lk = C.link(K, [1])
    assert lk.m == 4
    assert lk.labels == (3, 4, 5, 6)
    assert len([f for f in lk.faces if f.bit_count() == 2]) == 4
    assert C.is_flag(lk)
    assert C.original_faces(lk) == {
        tuple(sorted(verts_of(f))) for f in raw}


def test_link_equals_full_subcomplex_for_flag():
    rng = random.Random(3)
    for seed in range(4):
        K = C.random_flag(7, 0.5, seed)
        for I in sorted(K.faces):
            lk = C.link(K, I)
            sup = [v for v in range(1, K.m + 1)
                   if not (I >> (v - 1)) & 1 and (I | (1 << (v - 1))) in K.faces]
            sub = C.full_subcomplex(K, mask_of(sup))
            assert C.original_faces(lk) == C.original_faces(sub)


def test_missing_faces_and_flagness():
    bd = C.simplex_boundary(3)
    assert not C.is_flag(bd)
    assert [verts_of(f) for f in C.missing_faces(bd)] == [(1, 2, 3)]
    assert C.flagification(bd).faces == C.simplex(3).faces

    K = C.cycle_complex(4)
    assert C.is_flag(K)
    assert sorted(verts_of(f) for f in C.missing_faces(K)) == [(1, 3), (2, 4)]

    sk = C.skeleton(C.simplex(4), 1)
    assert C.flagification(sk).faces == C.simplex(4).faces


def _flag_by_missing_faces(K):
    """The reference: every minimal non-face has exactly two vertices."""
    return all(f.bit_count() == 2 for f in C.missing_faces(K))


NAMED = ["cycle:3", "cycle:4", "cycle:7", "simplex:1", "simplex:4", "boundary:2",
         "boundary:3", "boundary:5", "points:1", "points:4", "cross:3", "icosahedron",
         "octahedron", "rp2", "rp2-flag", "skeleton:1:simplex:5", "skeleton:0:cycle:5",
         "skeleton:2:cross:4", "barycentric:boundary:3", "barycentric:rp2",
         "random-flag:9:50:2", "random-flag:12:30:1", "boundary:3+boundary:6",
         "rp2*points:3", "cycle:4*cycle:5", "rp2+cycle:4", "points:2*boundary:3"]


def test_is_flag_matches_the_minimal_non_faces():
    for name in NAMED:
        K = cli.corpus(name)
        assert C.is_flag(K) == _flag_by_missing_faces(K), name
    rng = random.Random(17)
    seen = set()
    for case in range(500):
        m = rng.randint(1, 8)
        if case % 4 == 0:
            K = C.random_flag(m, rng.random(), rng.randint(0, 10 ** 6))
        else:
            facets = [[v] for v in range(1, m + 1)]
            for _ in range(rng.randint(0, 6) if m > 1 else 0):
                facets.append(sorted(rng.sample(range(1, m + 1), rng.randint(2, m))))
            K = C.from_facets(m, facets)
        if case % 5 == 0:  # drop every face through one vertex: a ghost
            v = rng.randrange(m)
            K = C.SimplicialComplex(m, frozenset(f for f in K.faces if not f >> v & 1))
        flag = C.is_flag(K)
        assert flag == _flag_by_missing_faces(K), sorted(K.faces)
        seen.add(flag)
    assert seen == {True, False}


def test_flagification_idempotent_and_fixes_flag():
    rng = random.Random(5)
    for seed in range(6):
        K = C.random_flag(6, rng.random(), seed)
        Kf = C.flagification(K)
        assert Kf.faces == K.faces
        sk = C.skeleton(C.cross_polytope(3), 1)
        Kf = C.flagification(sk)
        assert C.flagification(Kf).faces == Kf.faces


def test_nu_skeleta_of_simplices():
    # nu(sk_i of the (m-1)-simplex) = m-i-1 for i >= 1; the 0-skeleton is
    # already flag so nu = 0 there
    for m in range(2, 8):
        for i in range(0, m):
            K = C.skeleton(C.simplex(m), i)
            expected = m - i - 1 if 1 <= i < m - 1 else 0
            assert C.nu_direct(K) == expected, (m, i)
            assert C.nu_filtration(K) == expected


def test_nu_disjoint_boundaries():
    K = C.disjoint_union(C.simplex_boundary(3), C.simplex_boundary(6))
    assert K.m == 9
    assert C.nu_direct(K) == 1
    assert C.nu_filtration(K) == 1


def test_nu_flag_is_zero():
    for K in (C.cycle_complex(6), C.cross_polytope(3), C.points(4)):
        assert C.nu_direct(K) == 0
        assert C.nu_filtration(K) == 0


def test_nu_two_algorithms_agree_on_random_complexes():
    rng = random.Random(9)
    count = 0
    for _ in range(60):
        m = rng.randint(3, 7)
        facets = [[v] for v in range(1, m + 1)]
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(2, m)
            facets.append(sorted(rng.sample(range(1, m + 1), size)))
        K = C.from_facets(m, facets)
        assert C.nu_filtration(K) == C.nu_direct(K)
        count += 1
    assert count == 60


def test_nu_skeleton_bound():
    # if sk_i K = sk_i K^f then nu(K) <= dim K^f - i
    rng = random.Random(13)
    for _ in range(30):
        m = rng.randint(3, 7)
        facets = [[v] for v in range(1, m + 1)]
        for _ in range(rng.randint(1, 5)):
            facets.append(sorted(rng.sample(range(1, m + 1), rng.randint(2, m))))
        K = C.from_facets(m, facets)
        Kf = C.flagification(K)
        i = 1
        while i <= Kf.dim and C.skeleton(K, i).faces == C.skeleton(Kf, i).faces:
            i += 1
        i -= 1
        assert C.nu_direct(K) <= max(Kf.dim - i, 0)


def test_euler_characteristic():
    assert C.reduced_euler_char(C.EMPTY_COMPLEX) == -1
    assert C.reduced_euler_char(C.points(1)) == 0
    assert C.reduced_euler_char(C.cycle_complex(4)) == -1
    assert C.reduced_euler_char(C.points(2)) == 1


def test_h_vector_of_cycle():
    # expand (s-1)^2 + 4(s-1) + 4 = s^2 + 2s + 1 by hand
    fv = C.f_vector(C.cycle_complex(4))
    assert fv.f == (1, 4, 4)
    assert fv.h == (1, 2, 1)


def test_h_vector_identity_random():
    # check sum_i h_i s^{n-i} = sum_I (s-1)^{n-|I|} at several integers s
    rng = random.Random(17)
    for _ in range(20):
        m = rng.randint(2, 7)
        facets = [[v] for v in range(1, m + 1)]
        for _ in range(rng.randint(1, 5)):
            facets.append(sorted(rng.sample(range(1, m + 1), rng.randint(2, m))))
        K = C.from_facets(m, facets)
        fv = C.f_vector(K)
        n = K.dim + 1
        for s in range(-3, 4):
            lhs = sum(h * s ** (n - i) for i, h in enumerate(fv.h))
            rhs = sum((s - 1) ** (n - f.bit_count()) for f in K.faces)
            assert lhs == rhs


def test_chi_subcomplexes_matches_direct():
    K = C.cycle_complex(5)
    chi = C.chi_subcomplexes(K)
    for J in range(1 << K.m):
        direct = -sum((-1) ** f.bit_count() for f in K.faces if not f & ~J)
        assert chi[J] == direct


def test_icosahedron_structure():
    K = C.icosahedron()
    fv = C.f_vector(K)
    assert fv.f == (1, 12, 30, 20)
    assert C.is_flag(K)


def test_rp2_structure():
    K = C.real_projective_plane()
    fv = C.f_vector(K)
    assert fv.f == (1, 6, 15, 10)
    assert not C.is_flag(K)


def test_barycentric_subdivision_of_rp2_is_flag():
    K = C.barycentric_subdivision(C.real_projective_plane())
    assert K.m == 31
    fv = C.f_vector(K)
    assert fv.f == (1, 31, 90, 60)
    assert C.is_flag(K)


def test_join_and_union_counts():
    sq = C.join(C.points(2), C.points(2))
    assert faces_as_tuples(sq) == faces_as_tuples(
        C.from_facets(4, [[1, 3], [1, 4], [2, 3], [2, 4]]))
    pair = C.disjoint_union(C.points(1), C.points(1))
    assert pair.m == 2 and len(pair.faces) == 3


def test_cross_polytope_is_sphere_triangulation():
    K = C.cross_polytope(3)
    fv = C.f_vector(K)
    assert fv.f == (1, 6, 12, 8)
    assert C.is_flag(K)
