"""Each Koszul slice reduced to its integral homology, and the unit-pivot
kernel of the Smith form.

``pontryagin.tor_via_koszul_complex`` keeps, per slice, the profile of one
elimination over Z, and reads it over every ring by universal
coefficients (``HomologyProfile.over``).  What it returns must be what
``chain_homology`` finds on the slice as built, over every ring, and a
warm ``check-all`` must print what a cold one prints.
"""

import random
from itertools import combinations
from math import gcd

import pytest

from flagtor import checks, cli
from flagtor import complexes as C
from flagtor import exact_linalg as E
from flagtor import hochster as Ho
from flagtor import homology as H
from flagtor import pontryagin as P

from _fixtures import RP2_FLAG12, rp2_flag12

RINGS = (H.RATIONALS, H.GF(2), H.GF(3), H.INTEGERS)


def _squarefree(K, rng):
    """Every J for m <= 10, else 256 sampled J plus the full mask."""
    if K.m <= 10:
        masks = range(1 << K.m)
    else:
        masks = sorted(set(rng.sample(range(1 << K.m), 256)) | {K.full_mask})
    return [tuple((J >> i) & 1 for i in range(K.m)) for J in masks]


def _non_squarefree(K, rng, count=60):
    out = []
    for _ in range(count):
        beta = [0] * K.m
        for _ in range(rng.randint(2, 6)):
            beta[rng.randrange(K.m)] += 1
        if max(beta) < 2:
            beta[rng.randrange(K.m)] += 2
        out.append(tuple(beta))
    return out


@pytest.mark.parametrize("name, K", [
    ("flag RP2", rp2_flag12()),
    ("RP2 + flag G(4, .5)",
     C.disjoint_union(C.real_projective_plane(), C.random_flag(4, 0.5, 1))),
    ("RP2 * flag G(4, .5)",
     C.join(C.real_projective_plane(), C.random_flag(4, 0.5, 1))),
    ("C4 * C5", C.join(C.cycle_complex(4), C.cycle_complex(5))),
])
def test_a_reduced_slice_has_the_homology_of_the_slice_over_every_ring(name, K):
    # each slice reduced to its profile over Z, which the slice table holds
    # for flag K (the Tor reader refuses the others)
    rng = random.Random(name)
    Ho.clear_cache()
    flag = C.is_flag(K)
    torsion = False
    for beta in _squarefree(K, rng) + _non_squarefree(K, rng):
        bases, matrices = P.koszul_slice(K, beta)
        dims = {t: len(bs) for t, bs in bases.items()}
        held = H.chain_homology(dims, matrices, H.INTEGERS)
        for ring in RINGS:
            prof = H.chain_homology(dims, matrices, ring)
            assert held.over(ring) == prof, (beta, ring)
            if flag:
                assert P.tor_via_koszul_complex(K, ring, beta) == \
                    {t: (r, tors) for t, r, tors in prof.rows()}, (beta, ring)
        if flag:
            assert C.tables(K)["koszul slices"][beta] == held
        torsion = torsion or bool(held.torsion)
    assert torsion == (name != "C4 * C5")  # the RP2 cases did reach torsion


def _det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * v * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, v in enumerate(rows[0]) if v)


def _unit_factors(dense):
    """How many invariant factors of a small matrix are 1: the largest k
    whose k x k minors have gcd 1 (determinantal divisors)."""
    n_rows, n_cols = len(dense), len(dense[0]) if dense else 0
    k = 0
    while k < min(n_rows, n_cols):
        g = 0
        for rs in combinations(range(n_rows), k + 1):
            for cs in combinations(range(n_cols), k + 1):
                g = gcd(g, _det([[dense[r][c] for c in cs] for r in rs]))
        if g != 1:
            break
        k += 1
    return k


def test_every_unit_pivot_is_a_unit_entry_with_its_own_row_and_column():
    rng = random.Random(5)
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.choice((-3, -2, -1, 0, 0, 1, 1, 2, 3)) for _ in range(n_cols)]
                 for _ in range(n_rows)]
        live = {r: {c: v for c, v in enumerate(row) if v}
                for r, row in enumerate(dense)}
        live = {r: row for r, row in live.items() if row}
        pairs = E._eliminate_units(live)
        assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
        # replay the pivots in order on the dense matrix: each entry is +-1
        # when it is pivoted on, and the Schur complement is what is left
        rows, cols = list(range(n_rows)), list(range(n_cols))
        work = [list(row) for row in dense]
        for r, c in pairs:
            pv = work[r][c]
            assert pv in (1, -1)
            for r2 in rows:
                q = work[r2][c] * pv
                if r2 != r and q:
                    work[r2] = [a - q * b for a, b in zip(work[r2], work[r])]
            rows.remove(r)
            cols.remove(c)
        left = {r: {c: work[r][c] for c in cols if work[r][c]} for r in rows}
        assert live == {r: row for r, row in left.items() if row}
        # the pivots split off as invariant factors 1, the rest is the core's
        core = [[work[r][c] for c in cols] for r in rows]
        assert len(pairs) + _unit_factors(core) == _unit_factors(dense)


@pytest.mark.parametrize("K, torsion", [
    (rp2_flag12(), {1: 1}), (C.real_projective_plane(), {1: 1}),
    (C.join(C.cycle_complex(4), C.cycle_complex(5)), {})])
def test_the_unit_pivots_of_a_boundary_are_the_ones_of_its_smith_form(K, torsion):
    # d_k has rank_Q(d_k) invariant factors, of which one per torsion
    # factor of H_{k-1} exceeds 1; here the kernel finds all the others
    _, matrices = H._restricted_columns(H.geometry(K), K.full_mask)
    for k, cols in matrices.items():
        live = {c: dict(col) for c, col in enumerate(cols) if col}
        pairs = E._eliminate_units(live)
        assert len(pairs) == E.rank_columns(cols) - torsion.get(k - 1, 0)
        assert len(pairs) == E.snf_columns(cols).diagonal.count(1)


def test_a_slice_is_built_and_eliminated_over_z_once(monkeypatch):
    K = C.join(C.cycle_complex(4), C.cycle_complex(5))
    for ring in RINGS[:3]:
        Ho.subcomplex_profiles(K, ring)  # the oracle's sweeps, before counting
    built, eliminated = [], []
    koszul_slice, chain_homology = P.koszul_slice, H.chain_homology
    monkeypatch.setattr(P, "koszul_slice",
                        lambda K, beta: built.append(beta) or koszul_slice(K, beta))
    monkeypatch.setattr(H, "chain_homology",
                        lambda *args: eliminated.append(args[2]) or chain_homology(*args))
    beta = (1,) * K.m
    tor = {ring: P.tor_via_koszul_complex(K, ring, beta) for ring in RINGS}
    assert built == [beta] and eliminated == [H.INTEGERS]
    bases, matrices = koszul_slice(K, beta)
    assert C.tables(K)["koszul slices"][beta] == chain_homology(
        {t: len(bs) for t, bs in bases.items()}, matrices, H.INTEGERS)
    # every later read, over every ring, builds and eliminates nothing
    for ring in RINGS:
        assert P.tor_via_koszul_complex(K, ring, beta) == tor[ring]
    for ring in RINGS[:3]:
        assert checks._tor_matches_koszul_slices(K, {ring: [K.full_mask]})[ring][0]
    assert built == [beta] and eliminated == [H.INTEGERS]


def _check_all(source, coeff, capsys):
    assert cli.run(["check-all", *source, "--coeff", coeff]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("source", [("--input", str(RP2_FLAG12)),
                                    ("--named", "cycle:4*cycle:5"),
                                    ("--named", "boundary:3+boundary:6")])
def test_a_warm_check_all_prints_what_a_cold_one_prints(source, capsys):
    coeffs = ("q", "fp:2", "fp:3", "z")
    Ho.clear_cache()
    cold = {}
    for coeff in coeffs:
        warm = _check_all(source, coeff, capsys)
        Ho.clear_cache()
        cold[coeff] = _check_all(source, coeff, capsys)
        assert warm == cold[coeff], coeff
    # once more with every run's tables kept, so each slice is read again
    for coeff in coeffs:
        assert _check_all(source, coeff, capsys) == cold[coeff], coeff
    # a run at --trunc 6 right after one at the default 8 reads no verdict
    # held for 8
    lower = (*source, "--trunc", "6")
    for coeff in coeffs:
        assert _check_all(source, coeff, capsys) == cold[coeff], coeff
        warm = _check_all(lower, coeff, capsys)
        Ho.clear_cache()
        assert warm == _check_all(lower, coeff, capsys), coeff
