"""The three workloads: seeded inputs, the jobs run on them, and the output gate.

A workload cycles through a fixed list of input classes; unit ``u`` of a
run is one complex of class ``CLASSES[u % len(CLASSES)]``, generated from
its own RNG seeded by (workload, seed, u).  So every seed runs the same
mix of classes in the same order, and only the random graphs differ.
The program gets facets only: a ``SimplicialComplex`` built with
``from_facets`` for library calls, or an ``--input`` JSON file for the CLI.

Each unit yields its jobs (one user-visible call each).  The caller times
the jobs; everything else here (generation, input descriptors, checks,
cache clearing) runs between jobs, outside the timed spans.  The checks
need no stored answer, except that for DIGEST_SEED the SHA-256 of every
job's output is also compared with ``digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

from flagtor import cli, hochster, homology
from flagtor import complexes as C

DIGEST_SEED = 0
CLI_ENTRY = "import sys; from flagtor.cli import main; main()"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def graph_complex(m, density, rng):
    """Flagification of a random graph on m vertices with round(density * C(m,2)) edges."""
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    edges = rng.sample(pairs, round(density * len(pairs)))
    return C.flagification(C.from_facets(m, [[v] for v in range(1, m + 1)]
                                         + [list(e) for e in edges]))


def build(spec, rng):
    """The complex for one input class; only "graph" parts use the RNG."""
    kind, *args = spec
    if kind == "graph":
        return graph_complex(*args, rng)
    if kind == "cycle":
        return C.cycle_complex(*args)
    if kind == "circulant":
        m, steps = args
        edges = [[i + 1, (i + s) % m + 1] for i in range(m) for s in steps]
        return C.flagification(C.from_facets(m, [[v] for v in range(1, m + 1)] + edges))
    if kind == "octahedron":
        return C.cross_polytope(3)
    if kind == "rp2":
        return C.real_projective_plane()
    if kind == "rp2+graph":
        return C.disjoint_union(C.real_projective_plane(), graph_complex(*args, rng))
    if kind == "rp2*graph":
        return C.join(C.real_projective_plane(), graph_complex(*args, rng))
    if kind == "cycle*cycle":
        return C.join(C.cycle_complex(args[0]), C.cycle_complex(args[1]))
    if kind in ("boundaries+", "boundaries*"):
        combine = C.disjoint_union if kind == "boundaries+" else C.join
        K = C.simplex_boundary(args[0])
        for k in args[1:]:
            K = combine(K, C.simplex_boundary(k))
        return K
    raise ValueError(f"unknown input class {spec!r}")


def describe(K):
    """m, face count and the shares of subsets J with K_J a cone / disconnected."""
    adj = C.adjacency(K)
    size = 1 << K.m
    cone = bytearray(size)
    for v in range(K.m):
        bit = 1 << v
        # K_J has apex v iff v is in J, J lies in v's closed neighbourhood
        # and J holds no face F with F + v not a face
        bad = [f for f in K.faces if not f & ~adj[v] and f | bit not in K.faces]
        S = adj[v]
        while True:
            J = S | bit
            if not any(not f & ~J for f in bad):
                cone[J] = 1
            if not S:
                break
            S = (S - 1) & adj[v]
    disconnected = 0
    for J in range(3, size):
        if J & (J - 1) == 0:
            continue
        reach = frontier = J & -J
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            new = adj[b.bit_length() - 1] & J & ~reach
            reach |= new
            frontier |= new
        disconnected += reach != J
    return {"m": K.m, "faces": len(K.faces), "cone": sum(cone) / size,
            "disconnected": disconnected / size}


def facets_json(K):
    return {"m": K.m, "facets": [list(t) for t in K.facet_lists()]}


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def zk_euler(K):
    """Euler characteristic of Z_K from the reduced Euler characteristics of the K_J."""
    chi = C.chi_subcomplexes(K)
    return -sum(c * (-1) ** J.bit_count() for J, c in enumerate(chi))


def clear_memory_caches():
    hochster.clear_cache()
    geometry_cache_clear = getattr(homology.geometry, "cache_clear", None)
    if geometry_cache_clear is not None:
        geometry_cache_clear()


# ---------------------------------------------------------------------------
# jobs and units
# ---------------------------------------------------------------------------

class Job:
    """One user-visible call: ``run()`` is timed, ``check(output)`` is not.

    ``check`` returns a list of problems; an empty list means the output
    passed.  ``output`` is whatever ``run`` returned: (exit code, stdout)
    for CLI calls.
    """

    def __init__(self, label, run, check, serialize=lambda output: output[1]):
        self.label = label
        self.run = run
        self.check = check
        self.serialize = serialize  # output -> the bytes or text its digest covers


class Unit:
    """One complex and its jobs.

    ``finish()`` runs after the unit's last job; it returns extra problems
    as {job index within the unit: [problem, ...]}.
    """

    def __init__(self, K, jobs, finish):
        self.K = K
        self.jobs = jobs
        self.finish = finish
        self.torsion = None  # set by checks or finish: does the input carry torsion?


class Workload:
    name = None
    CLASSES = []
    # Nominal seconds of one input cycle at the yardstick's nominal speed; a
    # run of S seconds does round(S / CYCLE_S) cycles.
    CYCLE_S = None

    def __init__(self, seed, env):
        """env: a RunEnv (paths, child environment, tracer)."""
        self.seed = seed
        self.env = env

    def complex(self, u):
        spec = self.CLASSES[u % len(self.CLASSES)]
        rng = random.Random(f"{self.name}:{self.seed}:{u}")
        K = build(spec, rng)
        return C.from_facets(K.m, [list(t) for t in K.facet_lists()]), spec

    def warm_up(self):
        """One small untimed call through the same path as the jobs."""
        raise NotImplementedError


class SweepZ(Workload):
    """Serial integral Hochster sweeps, one per complex not seen before."""

    name = "sweep-z"
    # The median job falls between four cheaper and four dearer classes, in
    # (13, .3) or in the fixed circulant graph on 13 vertices with steps 1
    # and 3 (density 1/3, about as dear).  Draws of (13, .3) alone varied
    # by +-20%, which moved the median of 8 of them by 16% between seeds;
    # the fixed class holds it still.
    CLASSES = [("graph", 12, 0.3), ("graph", 12, 0.5), ("graph", 12, 0.7),
               ("graph", 13, 0.3), ("graph", 13, 0.5), ("graph", 14, 0.3),
               ("rp2+graph", 6, 0.5), ("rp2*graph", 4, 0.5), ("rp2*graph", 5, 0.5),
               ("circulant", 13, (1, 3))]
    CYCLE_S = 9

    def unit(self, u):
        K, spec = self.complex(u)
        unit = Unit(K, [], lambda: clear_memory_caches() or {})

        def check(table):
            problems = []
            chi = C.chi_subcomplexes(K)
            by_J = {}
            for (J, p), (r, _) in table.entries.items():
                by_J[J] = by_J.get(J, 0) + (-1) ** (p - J.bit_count() - 1) * r
            bad = sum(1 for J, c in enumerate(chi) if by_J.get(J, 0) != c)
            if bad:
                problems.append(f"{bad} subsets J with Euler characteristic != chi(K_J)")
            euler = sum((-1) ** p * r for p, r in table.totals_rank.items())
            if euler != zk_euler(K):
                problems.append("Euler characteristic of Z_K != chi formula")
            unit.torsion = bool(table.totals_torsion)
            if spec[0].startswith("rp2") and 2 not in {
                    q for t in table.totals_torsion.values() for q in t}:
                problems.append("RP^2 is a full subcomplex but no 2-torsion")
            return problems

        def serialize(table):
            return json.dumps({
                "entries": sorted([J, p, r, list(t)] for (J, p), (r, t)
                                  in table.entries.items()),
                "betti": sorted(table.totals_rank.items()),
                "torsion": sorted((p, list(t)) for p, t
                                  in table.totals_torsion.items())})

        unit.jobs.append(Job("zk-homology:z",
                             lambda: hochster.zk_homology(K, homology.INTEGERS),
                             check, serialize))
        return unit

    def warm_up(self):
        hochster.zk_homology(C.from_facets(6, [[1, 2], [2, 3], [3, 4], [4, 5],
                                               [5, 6], [1, 6]]), homology.INTEGERS)
        clear_memory_caches()


def _cli_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


class CheckAllSmall(Workload):
    """In-process ``cli.run`` of check-all (q, fp:2, fp:3, z), cup-search and ranks."""

    name = "check-all-small"
    # No class costs more than about 2 s: one m = 9 or 10 flag complex
    # (C4 * C6 took 4-6 s, a random G(9, .5) 3-6 s) would fill a third of a
    # cycle, and a run's rate would follow a few of those draws.
    CLASSES = [("cycle", 5), ("cycle", 7), ("octahedron",), ("rp2",), ("rp2+graph", 4, 0.5),
               ("boundaries*", 3, 4), ("boundaries+", 3, 4, 3), ("cycle*cycle", 4, 5),
               ("graph", 7, 0.5), ("graph", 8, 0.5)]
    CYCLE_S = 5.5
    COMMANDS = [["check-all", "--coeff", "q"], ["check-all", "--coeff", "fp:2"],
                ["check-all", "--coeff", "fp:3"], ["check-all", "--coeff", "z"]]
    FLAG_ONLY = [["cup-search"], ["ranks"]]

    def unit(self, u):
        K, _ = self.complex(u)
        path = self.env.input_path(u, facets_json(K))
        commands = self.COMMANDS + (self.FLAG_ONLY if C.is_flag(K) else [])
        unit = Unit(K, [], None)
        for cmd in commands:
            argv = cmd[:1] + ["--input", path] + cmd[1:]
            unit.jobs.append(Job(" ".join(cmd), lambda argv=argv: _cli_in_process(argv),
                                 lambda out, cmd=cmd: self.check(cmd[0], out)))

        def finish():
            snap = hochster.cache_snapshot(K, homology.INTEGERS)
            if snap:
                unit.torsion = any(p.torsion for p in snap.values())
            clear_memory_caches()
            return {}
        unit.finish = finish
        return unit

    @staticmethod
    def check(command, output):
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        try:
            result = json.loads(text)["result"]
        except (ValueError, KeyError):
            return ["stdout is not a JSON report"]
        if command == "check-all" and result.get("ok") is not True:
            return ["check-all did not report ok"]
        if command == "cup-search" and "witness" not in result:
            return ["no witness field"]
        if command == "ranks" and not all(
                isinstance(r["rank"], int) and r["rank"] > 0 for r in result["ranks"]):
            return ["a homotopy rank is not a positive integer"]
        return []

    def warm_up(self):
        path = self.env.input_path("warm-up", facets_json(C.cycle_complex(5)))
        _cli_in_process(["check-all", "--input", path])
        clear_memory_caches()


class CliCache(Workload):
    """A CLI session per complex: one cold F2 sweep, then warm calls on its cache."""

    name = "cli-cache"
    # One session per cycle, at m = 15 and density .8: about 5 s cold and
    # 0.6-0.8 s per warm call at full speed.  The warm calls are most of the
    # jobs, and the median job falls among them.
    # Dense graphs keep the peak RSS at the cold sweep's (32768 profiles),
    # which varies little between seeds; on sparser graphs the warm output
    # (up to 9 MB at m = 16, density .6) sets it and varies with the seed.
    # An m = 16 session took 20-30 s, too long for more than one in a run.
    CLASSES = [("graph", 15, 0.8)]
    CYCLE_S = 11
    COLD = ["zk-homology"]
    # Each session makes WARM_ROUNDS rounds of the warm calls.
    WARM = [["zk-homology", "--dual"], ["tor"], ["gens-rels"], ["rk-homology", "--detail"]]
    WARM_ROUNDS = 2

    def unit(self, u):
        K, _ = self.complex(u)
        path = self.env.input_path(u, facets_json(K))
        cache = self.env.scratch(f"cache-{u}")
        common = ["--input", path, "--coeff", "fp:2", "--threads", "2", "--cache", cache]
        cold = {}

        def check_cold(output):
            problems = self.check_exit(output)
            if not problems:
                cold["stdout"] = output[1]
                cold["betti"] = json.loads(output[1])["result"]["betti"]
                euler = sum((-1) ** int(p) * r for p, r in cold["betti"].items())
                if euler != zk_euler(K):
                    problems.append("Euler characteristic of Z_K != chi formula")
            return problems

        def check_dual(output):
            problems = self.check_exit(output)
            if not problems and "betti" in cold and \
                    json.loads(output[1])["result"]["betti"] != cold["betti"]:
                problems.append("cohomology Betti numbers differ from homology")
            return problems

        jobs = [Job("zk-homology", lambda: self.env.cli(self.COLD + common), check_cold)]
        for cmd in self.WARM * self.WARM_ROUNDS:
            check = check_dual if cmd[-1] == "--dual" else self.check_exit
            jobs.append(Job(" ".join(cmd), lambda cmd=cmd: self.env.cli(cmd[:1] + common + cmd[1:]),
                            check))

        def finish():
            problems = {}
            if "stdout" in cold:
                code, again = self.env.cli(self.COLD + common, trace=False)
                if code != 0 or again != cold["stdout"]:
                    problems[0] = ["warm repeat of the cold call is not byte-identical"]
            shutil.rmtree(cache, ignore_errors=True)
            return problems
        return Unit(K, jobs, finish)

    @staticmethod
    def check_exit(output):
        code, _ = output
        return [] if code == 0 else [f"exit code {code}"]

    def warm_up(self):
        path = self.env.input_path("warm-up", facets_json(C.cycle_complex(6)))
        cache = self.env.scratch("cache-warm-up")
        for extra in ([], ["--dual"]):
            self.env.cli(["zk-homology", "--input", path, "--coeff", "fp:2",
                          "--cache", cache] + extra, trace=False)
        shutil.rmtree(cache, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SweepZ, CheckAllSmall, CliCache)}
# Runnable by hand but left out of BENCHMARK.json: on a shared 2-vCPU host its
# spread between runs exceeded the bounds (see README.md).
UNLISTED = ("cli-cache",)


class RunEnv:
    """Paths and the child-process environment for one benchmark run."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.tracer = None  # set, with traced = True, for the traced pass
        self.traced = False
        self.child_env = child_env(root)

    def scratch(self, name):
        return os.path.join(self.work, name)

    def input_path(self, u, data):
        path = self.scratch(f"input-{u}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def cli(self, args, trace=True):
        """Run the tree's CLI in a fresh interpreter; returns (exit code, stdout)."""
        if self.traced and trace:
            spans = self.scratch("spans.json")
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "traced_cli.py"),
                   spans, *args]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        proc = subprocess.run(cmd, cwd=self.root, env=self.child_env,
                              capture_output=True, timeout=170)
        return proc.returncode, proc.stdout

    def collect_spans(self, job):
        """Merge the spans a traced CLI process wrote, as part of job."""
        spans = self.scratch("spans.json")
        if os.path.exists(spans):
            with open(spans) as fh:
                self.tracer.merge(json.load(fh), job)
            os.remove(spans)


def child_env(root):
    """The tree's src first on PYTHONPATH, and never -O."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    paths = [os.path.join(root, "src"), root]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
