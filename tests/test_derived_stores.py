"""Prime-field stores read off the integral sweep, and what reads them.

Once K's integral store has been swept, ``hochster.subcomplex_profiles``
reads its store over a prime field off it by universal coefficients
(``HomologyProfile.over``), and the cobar slices are eliminated over Z
once and read the same way.  Each reading is pinned here against a direct
elimination over the field, on complexes whose full subcomplexes carry
torsion.  ``lscat.toomer`` reads only stores of its own sweeps, a
finished sweep is freed by reference counting, and four ``check_all``
calls on one flag complex sweep twice and assemble each table once.
"""

import gc
import weakref

import pytest
from _fixtures import rp2_flag12

from flagtor import checks, cli
from flagtor import complexes as C
from flagtor import hochster as Ho
from flagtor import homology as H
from flagtor import lscat as L
from flagtor import pontryagin as P

# with rp2_flag12: flag and non-flag complexes at m = 11-16, all but the
# 2-skeleton with 2-torsion in their full subcomplexes
TORSION_CORPUS = ["rp2*random-flag:10:50:1", "rp2+rp2+cycle:4",
                  "skeleton:2:random-flag:14:60:1", "rp2*cycle:5"]
PRIMES = (2, 3, 5)


def _complex(name):
    return rp2_flag12() if name == "rp2_flag12" else cli.corpus(name)


def _assert_derived_equals_swept(K):
    integral = Ho.subcomplex_profiles(K, H.INTEGERS)
    for p in PRIMES:
        field = H.GF(p)
        derived = Ho.subcomplex_profiles(K, field)
        assert C.tables(K)[("derived store", field)] is derived
        assert derived.ids.typecode == integral.ids.typecode
        swept = Ho.subcomplex_profiles(K, field, derive=False)
        assert swept is not derived and len(swept) == len(derived) == 1 << K.m
        for J in range(1 << K.m):
            assert derived[J].key() == swept[J].key(), (p, J)
        # equal profiles are interned once
        assert len({p.key() for p in derived.objs}) == len(derived.objs)


@pytest.mark.parametrize("name", ["rp2_flag12"] + TORSION_CORPUS)
def test_a_derived_store_equals_a_direct_sweep_on_every_J(name):
    K = _complex(name)
    Ho.clear_cache()
    _assert_derived_equals_swept(K)
    torsion = any(p.torsion for p in Ho.subcomplex_profiles(K, H.INTEGERS).objs)
    assert torsion == ("rp2" in name)
    Ho.clear_cache()


def test_a_derived_store_of_two_byte_ids_equals_a_direct_sweep(monkeypatch):
    K = cli.corpus("rp2+rp2+cycle:4")  # 25 integral profiles, 13 over F3
    monkeypatch.setattr(Ho._WIDTHS[0], "limit", 4)
    _assert_derived_equals_swept(K)
    assert Ho.subcomplex_profiles(K, H.INTEGERS).ids.typecode == "H"


def test_a_field_store_is_swept_until_the_integral_one_is():
    K = rp2_flag12()
    Ho.clear_cache()
    swept = Ho.subcomplex_profiles(K, H.GF(2))
    assert ("store", H.GF(2)) in C.tables(K)
    Ho.subcomplex_profiles(K, H.INTEGERS)
    # a finished sweep over the field is not read off Z again
    assert Ho.subcomplex_profiles(K, H.GF(2)) is swept
    assert ("derived store", H.GF(2)) not in C.tables(K)
    # nor are Q and Z themselves
    Ho.subcomplex_profiles(K, H.RATIONALS)
    assert {key for key in C.tables(K) if key[0] == "derived store"} == set()
    Ho.clear_cache()


def test_toomer_reads_its_own_sweep_not_the_integral_one(monkeypatch):
    K = rp2_flag12()
    expected = L.toomer(K, H.GF(2))
    Ho.clear_cache()
    Ho.subcomplex_profiles(K, H.INTEGERS)
    wrong = H.HomologyProfile({7: 1})
    monkeypatch.setattr(H.HomologyProfile, "over", lambda self, coeff: wrong)
    assert Ho.subcomplex_profiles(K, H.GF(2)).objs == [wrong]  # the patch bites
    assert L.toomer(K, H.GF(2)) == expected
    assert L.toomer_report(K)["by_field"]["F2"] == expected


@pytest.mark.parametrize("width", [0, 1])
def test_a_finished_sweep_is_freed_by_reference_counting(monkeypatch, width):
    K = C.random_flag(9, 0.4, 1)
    sweeps = []
    run = Ho._Sweep.run

    def recorded(self):
        sweeps.append(weakref.ref(self))
        return run(self)

    monkeypatch.setattr(Ho._Sweep, "run", recorded)
    if width:  # the sweep widens once, so two sweeps run
        monkeypatch.setattr(Ho._WIDTHS[0], "limit", 2)
    gc.disable()
    try:
        store = Ho.subcomplex_profiles(K, H.INTEGERS)
        assert len(sweeps) == 1 + width
        assert all(ref() is None for ref in sweeps)
    finally:
        gc.enable()
    assert store.ids.itemsize == 1 + width


def test_four_check_alls_sweep_twice_and_assemble_each_table_once(monkeypatch):
    K = C.random_flag(8, 0.5, 2)
    runs, assembled = [], []
    run, assemble = Ho._Sweep.run, Ho._assemble
    monkeypatch.setattr(Ho._Sweep, "run",
                        lambda self: runs.append(self.coeff) or run(self))
    monkeypatch.setattr(Ho, "_assemble", lambda store, objs, shift_by_J: assembled.append(
        (store, shift_by_J)) or assemble(store, objs, shift_by_J))
    for key in ("q", "fp:2", "fp:3", "z"):
        assert all(ok for _, ok, _ in checks.check_all(K, H.parse_coefficients(key), 8))
    assert runs == [H.INTEGERS, H.RATIONALS]
    assert len(assembled) == len({(id(s), shift) for s, shift in assembled}) == 3
    derived = {id(C.tables(K)[("derived store", H.GF(p))]) for p in (2, 3)}
    assert derived <= {id(s) for s, _ in assembled}


def test_cobar_ext_over_a_field_equals_a_direct_elimination():
    # the slice of RP^2 at beta = (1, ..., 1) has 2-torsion over Z
    for K, betas in ((rp2_flag12(), [(1,) * 3 + (0,) * 9, (1, 0, 1, 1) + (0,) * 8,
                                     (0, 1) * 2 + (0,) * 8]),
                     (C.real_projective_plane(), [(1,) * 6, (1, 1, 1, 0, 0, 0),
                                                  (1, 0, 1, 0, 1, 1)])):
        Ho.clear_cache()
        for beta in betas:
            words, matrices = P.cobar_slice(K, beta)
            dims = {-s: len(ws) for s, ws in words.items()}
            cols = {-s: c for s, c in matrices.items()}
            for coeff in (H.RATIONALS,) + tuple(map(H.GF, PRIMES)):
                direct = H.chain_homology(dims, cols, coeff)
                assert P.cobar_ext(K, coeff, beta) == \
                    {-n: d for n, d in direct.ranks.items()}, (K.m, beta, coeff)
    Ho.clear_cache()
