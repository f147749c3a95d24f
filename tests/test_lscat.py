"""LS-category values, Toomer invariants, bounds, and cup witnesses."""

import pytest
from _fixtures import rp2_flag12

from flagtor import cli
from flagtor import complexes as C
from flagtor import hochster as Ho
from flagtor import homology as H
from flagtor import lscat as L
from flagtor.complexes import NotFlagError


def test_cat_of_cycles():
    for m in range(4, 8):
        assert L.cat_zk(C.cycle_complex(m)) == 2
        assert L.cat_via_links(C.cycle_complex(m)) == 2


def test_cat_of_flag_sphere_triangulations():
    oct_ = C.cross_polytope(3)
    assert L.cat_zk(oct_) == 3
    assert L.cat_via_links(oct_) == 3


def test_cat_of_simplex_is_zero():
    assert L.cat_zk(C.simplex(3)) == 0
    assert L.cat_via_links(C.simplex(3)) == 0


def test_cat_rejects_non_flag():
    with pytest.raises(NotFlagError):
        L.cat_zk(C.simplex_boundary(3))


def test_links_agree_with_subcomplexes_on_non_flag_too():
    for K in (C.simplex_boundary(3), C.real_projective_plane(),
              C.skeleton(C.cross_polytope(3), 1),
              C.skeleton(C.simplex(5), 2)):
        assert 1 + L.max_subcomplex_cdim(K) == L.cat_via_links(K)


def test_toomer_values():
    K = C.cycle_complex(4)
    assert L.toomer(K, H.RATIONALS) == 2
    assert L.toomer_report(K) == {"by_field": {"Q": 2}, "max": 2}
    assert L.toomer(C.points(1), H.RATIONALS) == 0


def test_toomer_sees_torsion_fields():
    # the full subcomplexes of the 12-vertex flag RP^2 carry 2-torsion, so
    # the Toomer invariant over F2 exceeds the one over Q, and it is F2's
    # that equals cat
    K = rp2_flag12()
    assert C.is_flag(K) and Ho.torsion_primes(K) == [2]
    rep = L.toomer_report(K)
    assert rep["by_field"] == {"Q": 2, "F2": 3}
    assert rep["max"] == 3 == L.cat_zk(K)
    # the octahedron has none, so Q alone is swept
    rep = L.toomer_report(C.cross_polytope(3))
    assert rep["by_field"] == {"Q": 3}
    assert rep["max"] == L.cat_zk(C.cross_polytope(3))


def test_cat_lower_bound_examples():
    sk = C.skeleton(C.cross_polytope(3), 1)
    assert L.cat_lower_bound(sk) == 2
    # all full subcomplexes of the flagification (a simplex) are
    # contractible, so the paper's bound degenerates to -1 and the trivial
    # bound 1 holds: cat(S^5) = 1
    assert L.cat_lower_bound(C.simplex_boundary(3)) == 1
    # flag input reduces to the exact value
    assert L.cat_lower_bound(C.cycle_complex(4)) == L.cat_zk(C.cycle_complex(4))


def test_lower_bound_is_flagified_category_minus_nu():
    for K in (C.simplex_boundary(3), C.skeleton(C.cross_polytope(3), 1),
              C.skeleton(C.simplex(5), 2), C.real_projective_plane()):
        Kf = C.flagification(K)
        assert L.cat_lower_bound(K) == max(1, L.cat_zk(Kf) - C.nu_direct(K))
        assert L.cat_lower_bound(K) <= max(1, L.cat_zk(Kf))


def test_cat_lower_bound_is_one_at_least_off_the_full_simplex():
    # Z_K = S^7 for the boundary of the 3-simplex, where the paper's bound
    # is 1 - nu + max cdim = 1 - 1 - 1 = -1
    K = C.simplex_boundary(4)
    assert 1 - C.nu_direct(K) + L.max_subcomplex_cdim(C.flagification(K)) == -1
    assert L.cat_lower_bound(K) == 1
    # a non-flag K whose bound is already above 1 keeps it
    K = C.skeleton(C.cross_polytope(3), 1)
    assert not C.is_flag(K)
    assert L.cat_lower_bound(K) == 1 - C.nu_direct(K) + L.max_subcomplex_cdim(
        C.flagification(K)) == 2
    # a full simplex: Z_K is a polydisc, contractible
    assert L.cat_lower_bound(C.simplex(3)) == L.cat_zk(C.simplex(3)) == 0


def test_supports_walk_the_sorted_and_filtered_subsets():
    for m in range(13):
        ordered = sorted(range(1 << m), key=lambda S: (-S.bit_count(), S))
        for least in range(-1, m + 2):
            assert list(L._supports(m, least)) == \
                [S for S in ordered if S.bit_count() >= least], (m, least)


def test_cup_witness_on_four_cycle():
    w = L.cup_witness_search(C.cycle_complex(4))
    assert w is not None
    assert w["dimension"] == 1
    assert sorted(w["parts"]) == [C.mask_of([1, 3]), C.mask_of([2, 4])]


def test_cup_witness_on_two_points():
    w = L.cup_witness_search(C.points(2))
    assert w is not None and w["dimension"] == 0


def test_cup_witness_on_octahedron():
    w = L.cup_witness_search(C.cross_polytope(3))
    assert w is not None and w["dimension"] == 2
    assert sorted(w["parts"]) == [C.mask_of([1, 2]), C.mask_of([3, 4]),
                                  C.mask_of([5, 6])]


@pytest.mark.parametrize("build, witness", [
    (lambda: C.cross_polytope(4),
     {"support": 255, "parts": [3, 12, 48, 192], "components": [1, 4, 16, 64],
      "field": "Q", "dimension": 3}),
    (lambda: C.join(C.cycle_complex(4), C.cycle_complex(5)),
     {"support": 511, "parts": [5, 10, 176, 320], "components": [1, 2, 48, 64],
      "field": "Q", "dimension": 3}),
    (lambda: C.random_flag(10, 0.4, 1),
     {"support": 1023, "parts": [873, 150], "components": [513, 6],
      "field": "Q", "dimension": 1}),
    # the Toomer invariant over Q is 2, so only F2 can see cup-length 3
    (rp2_flag12,
     {"support": 4095, "parts": [3471, 48, 576], "components": [2447, 16, 64],
      "field": "F2", "dimension": 2}),
], ids=["cross:4", "cycle:4*cycle:5", "random-flag:10:40:1", "rp2_flag12"])
def test_cup_witnesses_are_pinned(build, witness):
    assert L.cup_witness_search(build()) == witness


def test_cup_witness_does_not_depend_on_vertex_labels():
    # full subcomplexes keep their parent's vertex names in ``labels``;
    # the search must give what it gives on the same faces named 1..m
    K = C.random_flag(9, 0.35, 4)
    sub = C.full_subcomplex(K, 27)
    assert sub.labels == (1, 2, 4, 5)
    assert L.cup_witness_search(sub) == {
        "support": 13, "parts": [13], "components": [9], "field": "Q",
        "dimension": 0}
    for J in range(1 << K.m):
        sub = C.full_subcomplex(K, J)
        if sub.m >= 4:
            plain = C.SimplicialComplex(sub.m, sub.faces)
            assert L.cup_witness_search(sub) == L.cup_witness_search(plain), J


def test_cup_witness_search_stops_past_its_budget(monkeypatch, capsys):
    K = C.join(C.cycle_complex(4), C.cycle_complex(5))
    monkeypatch.setattr(L, "MAX_PARTITIONS", 2203)  # the witness is the 2,203rd
    assert L.cup_witness_search(K) is not None
    monkeypatch.setattr(L, "MAX_PARTITIONS", 2202)
    with pytest.raises(C.BudgetExceededError):
        L.cup_witness_search(K)
    assert cli.run(["cup-search", "--named", "cycle:4*cycle:5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "error: lscat.MAX_PARTITIONS = 2202 exceeded: set partitions tried "
        "without finding a witness"]


def test_cup_witness_skipped_for_simplex():
    assert L.cup_witness_search(C.simplex(3)) is None


def test_cat_report_shapes():
    rep = L.cat_report(C.cycle_complex(4))
    assert rep["is_flag"] and rep["cat"] == 2
    assert rep["via_subcomplexes"] == rep["via_links"] == 2
    assert rep["toomer"] == L.toomer_report(C.cycle_complex(4))
    assert "lower_bound" not in rep
    rep = L.cat_report(C.simplex_boundary(3))
    assert sorted(rep) == ["is_flag", "lower_bound", "via_links", "via_subcomplexes"]
    assert not rep["is_flag"]
    assert rep["lower_bound"] == 1
