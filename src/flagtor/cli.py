"""Command-line front end.

Subcommands cover every computation in the library; input is either a
JSON file {"m": <int>, "facets": [[1-based vertices], ...]} or a named
corpus expression.  Output is deterministic JSON (or a plain table):
byte-identical across runs.  Every sweep runs in this one process;
``--cache`` and ``--threads`` are accepted for old scripts and ignored.
Exit codes: 0 success, 1 a verified property failed, 2 bad input, a
passed cap or no memory left, 3 a precondition such as flagness was
violated, 4 an internal consistency assertion failed.  ``run`` reads the
ring, the truncation and the complex, runs the command and writes the
report under one set of handlers, so an error at any of these steps,
a ``MemoryError`` while the complex is built included, ends in one line
on stderr and its exit code, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, reduce
from itertools import chain
from math import gcd

from . import checks, complexes, hochster, homology, lscat, pontryagin, rows, series
from .complexes import NotFlagError


class UnknownNameError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the named corpus
# ---------------------------------------------------------------------------

def corpus(name):
    """Build a named complex.

    Grammar: '+' joins summands disjointly, '*' forms joins, and the
    atoms are
        cycle:m      simplex:m        boundary:m      points:m
        cross:d      skeleton:i:ATOM  barycentric:ATOM
        random-flag:m:p100:seed       icosahedron     octahedron
        rp2          rp2-flag
    e.g. 'boundary:3+boundary:6' or 'skeleton:1:simplex:4'.
    A name nested past the interpreter's recursion limit is a bad name.
    """
    try:
        return _parse(name)
    except RecursionError:
        raise UnknownNameError(f"bad arguments in corpus name {name!r}: "
                               "nested too deeply") from None


def _parse(name):
    name = name.strip()
    for sep, combine in (("+", complexes.disjoint_union), ("*", complexes.join)):
        if sep in name:
            return reduce(combine, [_parse(p) for p in name.split(sep)])
    return _atom(name)


def _atom(name):
    head, _, rest = name.partition(":")
    try:
        if head == "cycle":
            return complexes.cycle_complex(int(rest))
        if head == "simplex":
            return complexes.simplex(int(rest))
        if head == "boundary":
            return complexes.simplex_boundary(int(rest))
        if head == "points":
            return complexes.points(int(rest))
        if head == "cross":
            return complexes.cross_polytope(int(rest))
        if head == "skeleton":
            i, _, inner = rest.partition(":")
            return complexes.skeleton(_parse(inner), int(i))
        if head == "barycentric":
            return complexes.barycentric_subdivision(_parse(rest))
        if head == "random-flag":
            m, p100, seed = rest.split(":")
            return complexes.random_flag(int(m), int(p100) / 100, int(seed))
        if head == "icosahedron" and not rest:
            return complexes.icosahedron()
        if head == "octahedron" and not rest:
            return complexes.cross_polytope(3)
        if head == "rp2" and not rest:
            return complexes.real_projective_plane()
        if head == "rp2-flag" and not rest:
            return complexes.barycentric_subdivision(
                complexes.real_projective_plane())
    except (ValueError, TypeError, ArithmeticError) as exc:
        if isinstance(exc, (UnknownNameError, complexes.BudgetExceededError)):
            raise
        raise UnknownNameError(f"bad arguments in corpus name {name!r}: {exc}")
    raise UnknownNameError(f"unknown corpus name {name!r}")


# ---------------------------------------------------------------------------
# loading and serialization
# ---------------------------------------------------------------------------

def _load_complex(args):
    if args.named:
        return corpus(args.named)
    if args.input:
        with open(args.input) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.input}: expected a JSON object "
                             "with 'm' and 'facets'")
        for key in ("m", "facets"):
            if key not in data:
                raise ValueError(f"{args.input}: missing key {key!r}")
        m, facets = data["m"], data["facets"]
        if not _is_int(m):
            raise ValueError(f"{args.input}: 'm' must be an integer")
        if not (isinstance(facets, list)
                and all(isinstance(f, list) and all(map(_is_int, f))
                        for f in facets)):
            raise ValueError(f"{args.input}: 'facets' must be a list of "
                             "lists of integers")
        try:
            return complexes.from_facets(m, facets)
        except ValueError as exc:
            raise ValueError(f"{args.input}: {exc}") from exc
    raise ValueError("one of --named or --input is required")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _complex_json(K):
    return {"m": K.m, "facets": [list(t) for t in K.facet_lists()]}


def _subset_json(Jmask):
    return list(complexes.verts_of(Jmask))


def _write_json(obj, write, depth=0):
    """Write the text of json.dumps(obj, sort_keys=True, indent=2) at
    ``depth`` through ``write``.

    A row source (``rows.Rows``) is streamed a batch of rows at a time,
    each row from its shape's one template.  A dict is walked in sorted
    key order, each key rendered as json.dumps renders it, since reports
    put their row sources under dict keys.  Every other value is the
    text of json.dumps itself, with each newline indented to its depth;
    the walk does not look inside lists.  So the text held whole is at
    most the non-row part of a report.
    """
    if isinstance(obj, rows.Rows):
        for text in obj.texts(depth):
            write(text)
    elif isinstance(obj, dict) and obj:
        inner, sep, close = rows.layout(depth)
        opening = "{" + inner
        for k in sorted(obj):
            write(opening + json.dumps({k: 0})[1:-2])  # '"k": '
            _write_json(obj[k], write, depth + 1)
            opening = sep
        write(close + "}")
    else:
        write(json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth))


def emit(payload, out):
    """Write the report to stdout: for ``out`` "json" the text of
    json.dumps(payload, sort_keys=True, indent=2) and a newline, for
    "table" a plain table."""
    write = sys.stdout.write
    if out == "json":
        _write_json(payload, write)
        write("\n")
        return

    def walk(prefix, obj):  # one line per leaf, written as it is reached
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        else:
            write(f"{prefix[:-1]}: ")
            # a row source as the reprs of its rows' dicts
            for text in obj.reprs() if isinstance(obj, rows.Rows) else [str(obj)]:
                write(text)
            write("\n")

    walk("", payload)


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (K, coeff, args) and returns a JSON-able dict
# ---------------------------------------------------------------------------

def _cmd_info(K, coeff, args):
    fv = complexes.f_vector(K)
    mf = complexes.missing_faces(K)
    return {
        "dim": K.dim,
        "f_vector": list(fv.f),
        "h_vector": list(fv.h),
        "reduced_euler_characteristic": complexes.reduced_euler_char(K),
        "is_flag": complexes.is_flag(K),
        "missing_faces": [list(complexes.verts_of(f)) for f in mf],
        "nu": complexes.nu_direct(K),
    }


def _profile_json(prof):
    nonzero = list(prof.rows())
    return {"ranks": {str(n): r for n, r, _ in nonzero if r},
            "torsion": {str(n): list(t) for n, _, t in nonzero if t}}


def _cmd_homology(K, coeff, args):
    prof = homology.reduced_homology(K, coeff)
    integral = (homology.reduced_homology(K, homology.INTEGERS)
                if coeff.is_field else prof)
    return {"coefficients": str(coeff),
            "homology": _profile_json(prof),
            "cohomology": _profile_json(prof.cohomology()),
            "cdim_Z": integral.cdim()}


def _cmd_table(K, coeff, args, homology_fn, cohomology_fn):
    """zk-homology and rk-homology, which differ only in the two functions."""
    fn = cohomology_fn if args.dual else homology_fn
    table = fn(K, coeff)
    out = {"coefficients": str(coeff),
           "variant": "cohomology" if args.dual else "homology",
           "betti": {str(p): r for p, r in sorted(table.totals_rank.items())},
           "torsion": {str(p): list(t) for p, t in sorted(table.totals_torsion.items())}}
    if args.detail:
        out["summands"] = rows.Rows(rows.SUMMAND, table.entries.items, K.m)
    return out


def _parse_subset(text, m):
    if text == "all":
        return (1 << m) - 1
    verts = [int(v) for v in text.split(",") if v]
    if any(not 1 <= v <= m for v in verts):
        raise ValueError(f"subset vertices must lie in 1..{m}")
    return complexes.mask_of(verts)


def _parse_alpha(text, m):
    alpha = tuple(int(x) for x in text.split(","))
    if len(alpha) != m:
        raise ValueError(f"alpha must have {m} entries")
    if min(alpha) < 0:
        raise ValueError("alpha entries must be >= 0")
    return alpha


def _cmd_tor(K, coeff, args):
    m = K.m
    if args.subset is not None:
        # one multidegree column; works beyond the 2^m sweep cap
        J = _parse_subset(args.subset, m)
        slice_ = pontryagin.tor_for_subset(K, J, coeff)
        return {"coefficients": str(coeff),
                "entries": [rows.TOR.row(((J, n), rt), m) for n, rt in sorted(slice_.items())]}
    table = pontryagin.tor_via_subcomplexes(K, coeff)
    # every entry is nonzero, so its degree has a total; a degree that
    # holds only torsion has rank 0
    degrees = sorted(table.totals_rank.keys() | table.totals_torsion.keys())
    return {"coefficients": str(coeff), "exact": coeff.is_field,
            "entries": rows.Rows(rows.TOR, lambda: chain.from_iterable(  # by n, then J
                map(table.entries.in_degree, degrees)), m),
            "by_degree": {str(n): table.totals_rank.get(n, 0) for n in degrees}}


def _cmd_gens_rels(K, coeff, args):
    if args.subset is not None:
        J = _parse_subset(args.subset, K.m)
        g, r = pontryagin.gens_rels_for_subset(K, J, coeff)
        return {"coefficients": str(coeff), "J": _subset_json(J),
                "generators": g, "relations": r,
                "exact": coeff.is_field}
    table = pontryagin.tor_via_subcomplexes(K, coeff)

    def counts(n):  # Tor_n, streamed off the table
        return {"total": pontryagin.minimal_total(table, n),
                "by_subset": rows.Rows(rows.SUBSET_COUNT,
                                       lambda: pontryagin.minimal_counts(table, n), K.m)}
    return {"coefficients": str(coeff), "exact": coeff.is_field,
            "generators": counts(1), "relations": counts(2)}


def _cmd_koszul_dual(K, coeff, args):
    words, counts = pontryagin.koszul_dual_basis(K, args.length)
    return {
        "length": args.length,
        "total": len(words),
        # an empty list needs no row template, which grows with the length
        "words": rows.Rows(rows.WORD, words.__iter__, args.length if words else 0),
        "counts": rows.Rows(rows.COUNT, sorted(counts.items()).__iter__, K.m),
    }


def _cmd_cobar_ext(K, coeff, args):
    beta = _parse_alpha(args.alpha, K.m)
    dims = pontryagin.cobar_ext(K, coeff, beta, bound=args.trunc)
    return {"coefficients": str(coeff), "beta": list(beta),
            "ext_dims": {str(s): d for s, d in sorted(dims.items())}}


def _cmd_mm_check(K, coeff, args):
    field = coeff if coeff.is_field else homology.RATIONALS
    return {"coefficients": str(field),
            **pontryagin.milnor_moore_check(K, field)}


def _cmd_series(K, coeff, args):
    F = series.poincare_ozk(K, args.trunc)
    ok, lhs, rhs = series.panov_ray_check(K)
    terms = sorted(F.terms.items())
    return {"poincare_loop_zk": {"trunc": F.trunc,
                                 "terms": rows.Rows(rows.TERM, terms.__iter__, K.m)},
            "z_graded": [int(c) for c in F.z_graded()],
            "panov_ray_identity": {"ok": ok, "lhs": lhs, "rhs": rhs}}


def _cmd_ranks(K, coeff, args):
    ranks = series.homotopy_ranks(K, args.trunc)  # in ascending alpha
    return {"ranks": rows.Rows(rows.RANK, ranks.items, K.m)}


def _cmd_chi_check(K, coeff, args):
    alpha = _parse_alpha(args.alpha, K.m)
    # the compositional formula applies when gcd(alpha) = 1; otherwise
    # the value is the homotopy rank itself
    if gcd(*alpha) == 1:
        val, ok = series.chi_inequality(K, alpha)
        route = "compositional"
    else:
        ranks = series.homotopy_ranks(K, max(args.trunc, sum(alpha)))
        val = ranks.get(tuple(alpha), 0)
        ok = val >= 0
        route = "homotopy-rank"
    return {"alpha": list(alpha), "value": str(val),
            "nonnegative": bool(ok), "route": route}


def _cmd_toomer(K, coeff, args):
    if coeff.is_field:
        return {"coefficients": str(coeff),
                "toomer": lscat.toomer(K, coeff)}
    return lscat.toomer_report(K)


def _cmd_cat_bound(K, coeff, args):
    return {"nu": complexes.nu_direct(K),
            "lower_bound": lscat.cat_lower_bound(K)}


def _cmd_cup_search(K, coeff, args):
    witness = lscat.cup_witness_search(K)
    if witness is None:
        return {"witness": None}
    return {"witness": {
        "dimension": witness["dimension"],
        "support": _subset_json(witness["support"]),
        "parts": [_subset_json(p) for p in witness["parts"]],
        "components": [_subset_json(c) for c in witness["components"]],
        "field": witness["field"],
    }}


def _cmd_check_all(K, coeff, args):
    results = checks.check_all(K, coeff, args.trunc)
    return {"checks": [{"name": name, "status": "PASS" if ok else "FAIL",
                        "detail": detail} for name, ok, detail in results],
            "ok": all(ok for _, ok, _ in results)}


# the subcommands, in the order that --help lists them
COMMANDS = {
    "info": _cmd_info,
    "homology": _cmd_homology,
    "zk-homology": lambda K, coeff, args: _cmd_table(
        K, coeff, args, hochster.zk_homology, hochster.zk_cohomology),
    "rk-homology": lambda K, coeff, args: _cmd_table(
        K, coeff, args, hochster.rk_homology, hochster.rk_cohomology),
    "tor": _cmd_tor,
    "gens-rels": _cmd_gens_rels,
    "koszul-dual": _cmd_koszul_dual,
    "cobar-ext": _cmd_cobar_ext,
    "mm-check": _cmd_mm_check,
    "series": _cmd_series,
    "ranks": _cmd_ranks,
    "chi-check": _cmd_chi_check,
    "cat": lambda K, coeff, args: lscat.cat_report(K),
    "toomer": _cmd_toomer,
    "cat-bound": _cmd_cat_bound,
    "cup-search": _cmd_cup_search,
    "check-all": _cmd_check_all,
    "corpus": lambda K, coeff, args: _complex_json(K),
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_parser():
    """The one parser of the process: ``run`` only reads it."""
    parser = argparse.ArgumentParser(
        prog="flagtor",
        description="Exact homotopy invariants of moment-angle complexes")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="path to a complex JSON file")
    common.add_argument("--named", help="named corpus expression")
    common.add_argument("--coeff", default="q",
                        help="coefficients: q | fp:<p> | z")
    common.add_argument("--trunc", type=int, default=8,
                        help="total-degree truncation bound")
    common.add_argument("--out", choices=("json", "table"), default="json")
    common.add_argument("--cache", metavar="DIR",
                        help="accepted and ignored: every call recomputes")
    common.add_argument("--threads", type=int,
                        help="accepted and ignored: sweeps run in one process")

    for n in COMMANDS:
        p = sub.add_parser(n, parents=[common])
        if n in ("zk-homology", "rk-homology"):
            p.add_argument("--detail", action="store_true",
                           help="include the per-subset breakdown")
            p.add_argument("--dual", action="store_true",
                           help="report cohomology instead of homology")
        if n in ("tor", "gens-rels"):
            p.add_argument("--subset",
                           help="restrict to one vertex subset "
                                "(comma-separated, or 'all'); skips the "
                                "2^m sweep, so it works for large m")
        if n == "koszul-dual":
            p.add_argument("--length", type=int, required=True)
        if n in ("cobar-ext", "chi-check"):
            p.add_argument("--alpha", required=True,
                           help="comma-separated exponent vector")
    return parser


# options kept so that existing scripts still run; each given one prints
# a warning and changes nothing
IGNORED_OPTIONS = {"cache": "profiles are recomputed on every call",
                   "threads": "subset sweeps run in one process"}


def run(argv=None):
    """Parse arguments, then read the ring, the truncation and the complex,
    run the command and print the report under one set of handlers;
    returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    for option, reason in IGNORED_OPTIONS.items():
        if getattr(args, option) is not None:
            print(f"warning: --{option} is ignored; {reason}", file=sys.stderr)
    try:
        coeff = homology.parse_coefficients(args.coeff)
        if args.trunc < 1:
            raise ValueError("truncation must be >= 1")
        K = _load_complex(args)
        payload = COMMANDS[args.command](K, coeff, args)
        emit({**_complex_json(K), "command": args.command, "result": payload}, args.out)
    except BrokenPipeError:  # the reader closed stdout: the rest goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except MemoryError:  # the last resort, where no cap foresaw the call
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 2
    except NotFlagError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except series.IntegralityViolationError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # every bad input and every cap of the package
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {str(exc) or 'assertion failed'}", file=sys.stderr)
        return 4

    if args.command != "check-all":
        return 0
    for c in payload["checks"]:
        print(f"{c['status']} {c['name']}" + (f" ({c['detail']})" if c["detail"] else ""),
              file=sys.stderr)
    return 0 if payload["ok"] else 1


def main():
    sys.exit(run())
