"""Cross-checks of the package's results against each other on one complex.

Each check computes one quantity two ways, or one identity from the
paper, and compares exactly: the collapse of the Milnor-Moore spectral
sequence at E2, the Panov-Ray h-vector identity, cat(Z_K) against the
maximum of the Toomer invariants, squarefree Tor against the Koszul
slices, and more.  ``check_all`` is the library entry point; the
``check-all`` subcommand only renders its result.

The checks that read no coefficient ring and draw no random sample are
closure-and-ghosts, flagification-idempotent, euler-characteristic (over
Q), nu-two-algorithms, link-equals-full-subcomplex, panov-ray-identity,
series-coefficients-nonnegative, series-inverse-roundtrip, pbw-roundtrip,
chi-inequality-matches-ranks and odj-series-vs-normal-words.  Their
verdicts, with the normal-word counts the cobar check reads, are held in
K's memo per (K, trunc), so the ``check-all`` runs over several rings on
one K compute them once; every other ring-dependent check runs on each
call.  The Smith-form self-test tests the kernel, not K or a ring, so its
verdict is held in K's memo once, drawn from its own stream seeded by K.
The tor-vanishing-nonsquarefree sample is drawn once per (K, trunc) from
another stream of its own seeded by K, and held in K's memo as the
distinct slices of its 50 beta; each ring's verdict on it is held too.
So ``--coeff z`` reads one sample for both Q and GF(2), and a call over
another ring on a warm K draws, builds and eliminates nothing for it.

The checks build no slice and no matrix themselves: Koszul slices are
read through ``pontryagin``'s readers of its interned "koszul slices"
table, and the Smith form is tested by ``exact_linalg.snf_spot_checks``.
That table makes one build and one integral elimination per distinct
slice shape: for flag K the slice at 2*beta depends only on the values
of beta on its support S and on the graph K induces on S, renumbered in
order, since K restricted to S is that graph's clique complex.  The
squarefree Tor oracle compares each distinct (slice, sweep profile)
pair of its J once.

Which checks are two routes, and through what:

- tor-oracle-squarefree and, at m <= 10, milnor-moore-collapse: the
  sweep's store over the ring against the Koszul slices, eliminated over
  Z and read over the ring by ``HomologyProfile.over``.  Over Q the
  sweep is a direct sweep over Q.  Over a prime field the store is read
  off the integral sweep once that has run (``check_all`` runs it first
  whenever it runs it at all), so the check compares two integral
  computations, the 2^m sweep and the Koszul slices, each read through
  ``over``; ``over`` itself is pinned against direct field sweeps and
  eliminations in the tests.
- toomer-max-equals-cat: cat(Z_K) from the integral sweep against the
  Toomer invariants, which read sweeps over Q and each torsion prime
  field themselves, never a store read off Z.
- cdim-links-vs-subcomplexes: the integral sweep against the links of
  K, each eliminated over Z.
- hochster-euler-vs-series: the Z_K table of the sweep against the
  denominator of the Poincare series.
- cobar-diagonal-property: the cobar slices, eliminated over Z and read
  over the ring, against the normal-word counts.
"""

from __future__ import annotations

import random
from collections import Counter
from math import gcd

from . import complexes, exact_linalg, hochster, homology, lscat, pontryagin, series


def check_all(K, coeff, trunc):
    """Run every cross-check that applies to K; a list of (name, ok, detail).

    A field ``coeff`` is the one ring of the ring-dependent checks; Z
    stands for Q and GF(2).  ``trunc`` bounds the series checks.  Checks
    that need the 2^m sweep, a flag complex or a small m are left out when
    K does not qualify.  The random samples are seeded by K, so the list
    is the same on every run.

    The checks that read no ring and draw no sample (closure, flagness,
    the Euler characteristic over Q, the two nu algorithms, links, the
    Panov-Ray identity, the series, PBW, chi~ and normal-word checks) are
    held in K's memo per (K, trunc), so the next call on K over another
    ring reads their verdicts.  The non-squarefree Tor check reads one
    sample of 50 beta per (K, trunc), drawn from its own stream seeded by
    K, so Q and GF(2) under Z check the same beta; the sample and each
    ring's verdict on it are held in K's memo.  The other ring-dependent
    checks run on every call.  The last check, the Smith-form self-test,
    reads no ring and draws from its own stream seeded by K, so its
    verdict is held in K's memo once.

    The chi~ table that the series check reads is built before any sweep,
    so its transient meets no store.  When the call sweeps Z anyway
    (``coeff`` Z, or m <= 16) it sweeps Z next, so that every prime field
    is read off it rather than swept.
    At m <= 10 the Milnor-Moore check takes E2 from the Koszul slices of
    the Tor oracle, which read nothing of the sweep, and E-infinity from
    the sweep.  At m > 10 the oracle samples J, so E2 is the Tor table's
    total and the check is one route: both totals fold the same sweep.
    """
    head, tail, counts = _ring_free_checks(K, trunc)
    checks = list(head)

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    rng = _rng(K)
    flag = complexes.is_flag(K)
    fields = [coeff] if coeff.is_field else [homology.RATIONALS, homology.GF(2)]

    if K.m <= complexes.SWEEP_CAP:
        # chi~ of every K_J, which the series reads, is the largest
        # transient of a large call: it is built before any store is held
        expected = sum(c * (-1) ** d
                       for d, c in enumerate(series.euler_denominator_t(K)))
        sweeps_z = coeff.kind == "z" or K.m <= 16
        if sweeps_z:
            hochster.subcomplex_profiles(K, homology.INTEGERS)
        if flag:
            oracle = {}
            if K.m <= 10:
                oracle = _tor_matches_koszul_slices(
                    K, dict.fromkeys(fields, range(1 << K.m)))
            for ring in fields:
                e2 = oracle[ring][1] if ring in oracle else None
                mm = pontryagin.milnor_moore_check(K, ring, e2_total=e2)
                record(f"milnor-moore-collapse-{ring}", mm["collapse"],
                       f"E2 {mm['e2_total']} vs Einf {mm['einf_total']}")
            for ring in fields:
                if ring not in oracle:
                    masks = sorted(rng.sample(range(1 << K.m), 128))
                    oracle.update(_tor_matches_koszul_slices(K, {ring: masks}))
                record(f"tor-oracle-squarefree-{ring}", oracle[ring][0])
                record(f"tor-vanishing-nonsquarefree-{ring}",
                       _tor_vanishes_off_squarefree(K, ring, trunc))

        table = hochster.zk_homology(K, fields[0])
        euler_zk = sum((-1) ** p * r for p, r in table.totals_rank.items())
        record("hochster-euler-vs-series", euler_zk == expected,
               f"{euler_zk} vs {expected}")

        if sweeps_z:
            via_sub = 1 + lscat.max_subcomplex_cdim(K)
            via_links = lscat.cat_via_links(K)
            record("cdim-links-vs-subcomplexes", via_sub == via_links,
                   f"{via_sub} vs {via_links}")
            if flag:
                rep = lscat.toomer_report(K)
                cat = lscat.cat_zk(K)
                record("toomer-max-equals-cat", rep["max"] == cat,
                       f"toomer {rep['max']} vs cat {cat}")

    checks += tail

    if flag and K.m <= 10:
        bound = min(4, trunc)
        ok = True
        for _ in range(10):
            beta = tuple(rng.randint(0, 1) for _ in range(K.m))
            if sum(beta) == 0 or sum(beta) > 3:
                continue
            dims = pontryagin.cobar_ext(K, fields[0], beta)
            if any(s != sum(beta) for s in dims):
                ok = False
            if sum(beta) <= bound and dims.get(sum(beta), 0) != counts.get(beta, 0):
                ok = False
        record("cobar-diagonal-property", ok)
    elif not flag and K.m <= 10:
        mf = [f for f in complexes.missing_faces(K) if f.bit_count() >= 3]
        if mf:
            ok = True
            for f in mf[:3]:
                beta = tuple((f >> i) & 1 for i in range(K.m))
                if pontryagin.cobar_ext(K, fields[0], beta).get(2, 0) < 1:
                    ok = False
            record("missing-face-ext2-classes", ok)

    record("snf-spot-checks", complexes.memo(
        K, "snf self-test", lambda K: exact_linalg.snf_spot_checks(_rng(K))))
    return checks


def _rng(K):
    """A random stream seeded by K, the same on every run."""
    return random.Random(repr((K.m, tuple(sorted(K.faces)))))


def _ring_free_checks(K, trunc):
    """The ring-free checks at ``trunc``, held in K's memo."""
    return complexes.memo(K, ("ring-free checks", trunc),
                          lambda K: _run_ring_free_checks(K, trunc))


def _run_ring_free_checks(K, trunc):
    """The checks of ``check_all`` that read no ring and draw no sample.

    Returns (head, tail, counts): the verdicts ``check_all`` lists before
    the ring-dependent checks, those it lists after them, and the
    normal-word counts up to length min(4, trunc) that the cobar check
    reads (None unless K is flag with m <= 10).
    """
    head, tail, counts = [], [], None

    def record(out, name, ok, detail=""):
        out.append((name, bool(ok), detail))

    flag = complexes.is_flag(K)
    try:
        complexes.validate(K)
        record(head, "closure-and-ghosts", True)
    except Exception as exc:  # noqa: BLE001 - report, do not crash
        record(head, "closure-and-ghosts", False, str(exc))

    Kf = complexes.flagification(K)
    ok = complexes.flagification(Kf).faces == Kf.faces
    if flag:
        ok = ok and Kf.faces == K.faces
    record(head, "flagification-idempotent", ok)

    chi = complexes.reduced_euler_char(K)
    prof = homology.reduced_homology(K, homology.RATIONALS)
    homological = sum((-1) ** n * prof.rank(n) for n in prof.degrees())
    record(head, "euler-characteristic", homological == chi,
           f"combinatorial {chi} vs homological {homological}")

    nu_f = complexes.nu_filtration(K)
    nu_d = complexes.nu_direct(K)
    i = 1
    while i <= Kf.dim and complexes.skeleton(K, i).faces == \
            complexes.skeleton(Kf, i).faces:
        i += 1
    record(head, "nu-two-algorithms",
           nu_f == nu_d and nu_d <= max(Kf.dim - (i - 1), 0),
           f"filtration {nu_f}, direct {nu_d}")

    if flag:
        record(head, "link-equals-full-subcomplex",
               _links_are_full_subcomplexes(K))

    if flag and K.m <= 20:
        ok, _, _ = series.panov_ray_check(K)
        record(tail, "panov-ray-identity", ok)
        Ft = series.poincare_ozk_t(K, trunc)
        record(tail, "series-coefficients-nonnegative", all(c >= 0 for c in Ft))
        prod = series.poly_mul(series.euler_denominator_t(K), Ft, trunc)
        record(tail, "series-inverse-roundtrip",
               prod[0] == 1 and not any(prod[1:]))

    if flag and K.m <= 10:
        N = min(trunc, 8)
        F = series.poincare_ozk(K, N)
        ranks = series.homotopy_ranks(K, N)
        record(tail, "pbw-roundtrip", series.pbw_reconstruct(ranks, K.m, N) == F)
        ok = True
        for alpha in [a for a in ranks if gcd(*a) == 1][:8]:
            val, nonneg = series.chi_inequality(K, alpha)
            if not nonneg or val != ranks.get(alpha, 0):
                ok = False
        record(tail, "chi-inequality-matches-ranks", ok)
        bound = min(4, N)
        counts = pontryagin.normal_word_counts(K, bound)
        odj = series.poincare_odj(K, bound)
        ok = all(odj.coefficient(a) == c for a, c in counts.items())
        ok = ok and all(counts.get(a, 0) == v for a, v in odj.terms.items())
        record(tail, "odj-series-vs-normal-words", ok)
    return tuple(head), tuple(tail), counts


def _links_are_full_subcomplexes(K):
    """For flag K, the link of every face I is the full subcomplex on its star."""
    for I in sorted(K.faces):
        lk = complexes.link(K, I)
        sup = [v for v in range(1, K.m + 1)
               if not (I >> (v - 1)) & 1 and (I | (1 << (v - 1))) in K.faces]
        sub = complexes.full_subcomplex(K, complexes.mask_of(sup))
        if complexes.original_faces(lk) != complexes.original_faces(sub):
            return False
    return True


def _tor_matches_koszul_slices(K, masks_by_ring):
    """Squarefree Tor from the sweep against the Koszul slice homology.

    Tor_n at J is reduced H_{n-1}(K_J), read off the sweep's profiles.
    ``masks_by_ring`` maps each field to the J it checks (every J for
    m <= 10, else 128 sampled ones).  Each field takes the slice index of
    its J from ``pontryagin.squarefree_slice_ids``, which builds and
    eliminates over Z one slice per distinct shape of J, and interns equal
    slice homology: the field kernels of the sweep are not on this route.
    The J are counted per (slice index, sweep id) pair, and each pair is
    compared once, the slice read over the field by universal
    coefficients.  Returns {field: (ok, total)} with ok true when every J
    matched, and total the sum of the slice ranks over the field's J.
    """
    out = {}
    for ring, masks in masks_by_ring.items():
        store = hochster.subcomplex_profiles(K, ring)
        ids, slices = pontryagin.squarefree_slice_ids(K, masks)
        ok, total = True, 0
        for (i, s), count in Counter(zip(ids, map(store.ids.__getitem__, masks))).items():
            slice_h = {n: r for n, (r, _) in slices.tor(i, ring).items()}
            total += count * sum(slice_h.values())
            if slice_h != {d + 1: r for d, r, _ in store.objs[s].rows()}:
                ok = False
        out[ring] = ok, total
    return out


def _tor_vanishes_off_squarefree(K, coeff, trunc):
    """The Koszul slices of the non-squarefree sample at ``trunc`` have no
    homology over coeff.  Each distinct slice of the sample is read over
    coeff once, and the verdict is held in K's memo per (trunc, coeff)."""
    def vanishes(K):
        ids, slices = _nonsquarefree_sample(K, trunc)
        return not any(r for i in ids for r, _ in slices.tor(i, coeff).values())
    return complexes.memo(K, ("tor vanishing", trunc, coeff), vanishes)


def _nonsquarefree_sample(K, trunc):
    """The slices of 50 non-squarefree beta, drawn from a stream of their
    own seeded by K: (the sorted distinct indices of their slices, K's
    table "koszul slices").  Held in K's memo per trunc, since trunc
    bounds |beta|."""
    def draw(K):
        rng, betas = _rng(K), []
        for _ in range(50):
            beta = [0] * K.m
            for _ in range(rng.randint(2, max(2, min(6, trunc)))):
                beta[rng.randrange(K.m)] += 1
            if max(beta) < 2:
                beta[rng.randrange(K.m)] += 2
            betas.append(beta)
        ids, slices = pontryagin.slice_ids(K, betas)
        return sorted(set(ids)), slices
    return complexes.memo(K, ("non-squarefree sample", trunc), draw)
