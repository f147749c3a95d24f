"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (sweep-z, check-all-small or cli-cache, see
workloads.py) from the root of a source tree, as a closed loop with one
client: each job starts when the previous one has ended.  It runs whole
cycles of the workload's input classes for about S seconds of summed job
time at the yardstick's nominal speed (see yardstick and run_pass); the
output checks between jobs are not timed.  Every end-to-end time is scaled
to that speed by the yardstick rounds timed around it (see scales), and
the unscaled figures are printed too.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it (each starting with '#') describe the environment,
the inputs and the run.  With --trace 1 the run measures the per-layer
metrics instead: it runs whole input cycles untraced for about S/2
seconds, then the same inputs again with spans recorded, and reports
per-cycle layer totals (unscaled) and the tracing overhead.

Exits 2 without a result when the tree's src/flagtor is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
SETUP_ROUNDS = 9
# The yardstick: rounds of a fixed pure-Python kernel, run between units
# for REF_SHARE of the job time; REF_S is the nominal time of one round.
# A unit's job times are scaled by the mean of the REF_NEAR rounds before
# it and the REF_NEAR rounds after it.
REF_SHARE = 0.05
REF_S = 0.01
REF_NEAR = 3
# A run starts no cycle that would take its job wall time past RAW_CAP * S.
RAW_CAP = 1.8
PROBE = "import flagtor, flagtor.cli; print(flagtor.__file__)"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def in_tree(path):
    return os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep)


def load_tree():
    """Import the tree's flagtor (never an installed one); returns the import time."""
    if not os.path.isfile(os.path.join(SRC, "flagtor", "__init__.py")):
        fail(f"no flagtor source tree under {SRC}")
    if sys.flags.optimize:
        fail("run without -O: it drops flagtor's __debug__ checks")
    sys.path[:0] = [SRC, ROOT]
    t0 = perf_counter()
    import flagtor.cli  # noqa: F401
    import_s = perf_counter() - t0
    import flagtor
    if not in_tree(flagtor.__file__):
        fail(f"imported flagtor from {flagtor.__file__}, not from {SRC}")
    return import_s


def environment(seed):
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": None, "ram_mb": None, "python": platform.python_version(),
            "commit": None, "seed": seed}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
        with open("/proc/meminfo") as fh:
            info["ram_mb"] = next(int(line.split()[1]) // 1024 for line in fh
                                  if line.startswith("MemTotal"))
    except (OSError, StopIteration):
        pass
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            info["commit"] = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return info


def setup(wl, env):
    """Median over SETUP_ROUNDS of: a fresh interpreter importing the tree's
    flagtor.cli, generating one cycle of inputs, and one warm-up call."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = perf_counter()
        probe = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env.child_env,
                               capture_output=True, text=True, timeout=120)
        if probe.returncode != 0 or not in_tree(probe.stdout.strip()):
            fail(f"a child interpreter does not import the tree's flagtor: "
                 f"{probe.stdout.strip() or probe.stderr.strip()}")
        for u in range(len(wl.CLASSES)):
            wl.complex(u)
        wl.warm_up()
        rounds.append(perf_counter() - t0)
    return statistics.median(rounds)


def yardstick():
    """Time one round of a fixed kernel in the mix flagtor runs on: dicts
    keyed by small tuples, integer arithmetic, Python-level calls, a sort.
    Nothing in it depends on flagtor."""
    t0 = perf_counter()
    rng = random.Random(1)
    d = {}
    for i in range(5000):
        k = (rng.randrange(1 << 20), i & 255)
        d[k] = d.get(k, 0) + i
    sorted(d.items())
    return perf_counter() - t0


def run_pass(wl, seconds=None, units=None, tracer=None, describe=False, refs=None):
    """Run exactly `units` units of wl if given, else round(seconds /
    wl.CYCLE_S) whole input cycles, at least one: about `seconds` of job time
    at the yardstick's nominal speed.  A cycle after the first starts only
    while the time so far plus a mean cycle stays within RAW_CAP * seconds.
    Whole cycles keep the class mix the same for every seed, and a cycle
    count that does not follow the machine's speed keeps the jobs behind
    each percentile the same from run to run.
    If `refs` is a list, yardstick rounds run between units, outside the job
    timing, for REF_SHARE of the job time (and at least one after the last
    unit); each is appended to it as (units run before it, its time).
    Returns (jobs, summed job time, units run, input descriptors)."""
    from perfbench import workloads as W
    env = wl.env
    cycle = len(wl.CLASSES)
    by_time = units is None
    if by_time:
        units = cycle * max(1, round(seconds / wl.CYCLE_S))
    jobs, inputs = [], []
    busy, u = 0.0, 0
    ref_due = 10 * REF_S

    def more():
        if not by_time:
            return u < units
        if u % cycle:
            return True
        return u < units and (u == 0 or busy * (u + cycle) / u <= RAW_CAP * seconds)

    def measure_yardstick():
        nonlocal ref_due
        while refs is not None and ref_due > 0:
            refs.append((u, yardstick()))
            ref_due -= refs[-1][1]

    while more():
        measure_yardstick()
        unit = wl.unit(u)
        if describe:
            inputs.append(W.describe(unit.K))
        first = len(jobs)
        for job in unit.jobs:
            if tracer is not None:
                tracer.current_job = len(jobs)
                tracer.active = True
            t0 = perf_counter()
            try:
                output, error = job.run(), None
            except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
                output, error = None, traceback.format_exc(limit=3)
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                env.collect_spans(len(jobs))
            busy += elapsed
            ref_due += REF_SHARE * elapsed
            jobs.append({"unit": u, "job": job.label, "s": elapsed,
                         "peak_rss_mb": peak_rss_mb(), **gate(job, output, error)})
        if tracer is not None:
            tracer.measure_stores()
        for i, problems in unit.finish().items():
            jobs[first + i]["problems"] += problems
        for rec in jobs[first:]:
            rec["torsion"] = unit.torsion
        u += 1
    ref_due = max(ref_due, REF_NEAR * REF_S)
    measure_yardstick()
    return jobs, busy, u, inputs


def gate(job, output, error):
    """Untimed check of one job's output: its problems and its output digest."""
    from perfbench import workloads as W
    if error is not None:
        return {"problems": [error], "digest": None}
    try:
        return {"problems": job.check(output), "digest": W.digest(job.serialize(output))}
    except Exception:  # noqa: BLE001 - a check that cannot read the output fails the job
        return {"problems": [traceback.format_exc(limit=3)], "digest": None}


def check_digests(wl, jobs, pin):
    from perfbench import workloads as W
    if wl.seed != W.DIGEST_SEED:
        return
    pinned = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            pinned = json.load(fh)
    if pin:
        pinned[wl.name] = [j["digest"] for j in jobs]
        with open(DIGESTS, "w") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    for job, want in zip(jobs, pinned.get(wl.name, [])):
        if job["digest"] != want:
            job["problems"].append("output digest differs from the pinned one")


def summarize_inputs(inputs, jobs):
    size = sum(1 << d["m"] for d in inputs)
    return {
        "complexes": len(inputs),
        "m": sorted({d["m"] for d in inputs}),
        "faces": [min(d["faces"] for d in inputs), statistics.median(d["faces"] for d in inputs),
                  max(d["faces"] for d in inputs)],
        "cone_share": sum(d["cone"] * (1 << d["m"]) for d in inputs) / size,
        "disconnected_share": sum(d["disconnected"] * (1 << d["m"]) for d in inputs) / size,
        "torsion_jobs": sum(1 for j in jobs if j["torsion"]),
        "torsion_unknown_jobs": sum(1 for j in jobs if j["torsion"] is None),
    }


def tail(times):
    """Highest percentile with at least 10 jobs beyond it: (value, percentile)."""
    ordered = sorted(times)
    i = len(ordered) - 11
    if i < 0:  # fewer than 11 jobs: no such percentile, report the maximum
        return ordered[-1], 100.0
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def peak_rss_mb():
    """Peak RSS in MB of this process, and of the largest child (with its own
    children) that it waited for."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)


def scales(refs, units):
    """Per unit, REF_S / the mean of the REF_NEAR yardstick rounds before the
    unit and the REF_NEAR rounds after it; refs as run_pass records them."""
    out = []
    for u in range(units):
        before = [t for done, t in refs if done <= u][-REF_NEAR:]
        after = [t for done, t in refs if done > u][:REF_NEAR]
        out.append(REF_S / statistics.fmean(before + after))
    return out


def scaled_busy(jobs, refs, units):
    unit_scale = scales(refs, units)
    return sum(j["s"] * unit_scale[j["unit"]] for j in jobs)


def end_to_end(jobs, busy, setup_s, refs):
    """The end-to-end metrics, with every job time scaled to the yardstick's
    nominal speed by its unit's scale (see scales).  The set-up time is not
    scaled: it is mostly the start of fresh interpreters, which the
    yardstick, run in this process, does not track."""
    rounds = [t for _, t in refs]
    quartiles = statistics.quantiles(rounds, n=4) if len(rounds) > 1 else rounds * 3
    times = [j["s"] for j in jobs]
    tail_s, pct = tail(times)
    p50_s = statistics.median(times)
    unit_scale = scales(refs, max(j["unit"] for j in jobs) + 1)
    scaled = [j["s"] * unit_scale[j["unit"]] for j in jobs]
    scaled_tail_s, _ = tail(scaled)
    own, child = peak_rss_mb()
    metrics = {
        "jobs_per_s": (len(jobs) / sum(scaled), "1/s"),
        "job_p50_s": (statistics.median(scaled), "s"),
        "job_tail_s": (scaled_tail_s, "s"),
        "peak_rss_mb": (max(own, child), "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [f"job_tail_s is p{pct:.1f} of {len(times)} jobs",
             f"peak RSS {own:.1f} MB in this process, {child:.1f} MB in the largest child",
             f"yardstick: mean {statistics.fmean(rounds):.6f} s over {len(rounds)} rounds "
             f"(quartiles {' '.join(f'{q:.6f}' for q in quartiles)}), unit scales "
             f"{min(unit_scale):.4f} to {max(unit_scale):.4f}",
             f"unscaled: jobs_per_s {len(jobs) / busy:.6g} 1/s, job_p50_s {p50_s:.6g} s, "
             f"job_tail_s {tail_s:.6g} s"]
    return metrics, notes


# per-layer metric -> (span or counter, what to read, unit)
LAYER = [
    ("exact_linalg.snf.calls", "exact_linalg.snf", "calls", "count"),
    ("exact_linalg.snf.s", "exact_linalg.snf", "s", "s"),
    ("exact_linalg.snf.nnz", "exact_linalg.snf.nnz", "count", "count"),
    ("exact_linalg.gf2.calls", "exact_linalg.gf2", "calls", "count"),
    ("exact_linalg.gf2.s", "exact_linalg.gf2", "s", "s"),
    ("exact_linalg.fp.s", "exact_linalg.fp", "s", "s"),
    ("exact_linalg.q.calls", "exact_linalg.q", "calls", "count"),
    ("exact_linalg.q.s", "exact_linalg.q", "s", "s"),
    ("homology.subsets.calls", "homology.subsets", "calls", "count"),
    ("homology.subsets.self_s", "homology.subsets", "self_s", "s"),
    ("homology.geometry.s", "homology.geometry", "s", "s"),
    ("hochster.sweep.calls", "hochster.sweep", "calls", "count"),
    ("hochster.sweep.s", "hochster.sweep", "s", "s"),
    ("hochster.sweep.self_s", "hochster.sweep", "self_s", "s"),
    ("hochster.subsets_requested", "hochster.subsets_requested", "count", "count"),
    ("hochster.assemble.s", "hochster.assemble", "s", "s"),
    ("pontryagin.koszul_slice.calls", "pontryagin.koszul_slice", "calls", "count"),
    ("pontryagin.koszul_slice.s", "pontryagin.koszul_slice", "s", "s"),
    ("pontryagin.koszul_slice.basis", "pontryagin.koszul_slice.basis", "count", "count"),
    ("pontryagin.slice_homology.self_s", "pontryagin.slice_homology", "self_s", "s"),
    ("pontryagin.tor_table.s", "pontryagin.tor_table", "s", "s"),
    ("pontryagin.normal_words.s", "pontryagin.normal_words", "s", "s"),
    ("pontryagin.cobar_ext.s", "pontryagin.cobar_ext", "s", "s"),
    ("series.mul.calls", "series.mul", "calls", "count"),
    ("series.mul.s", "series.mul", "s", "s"),
    ("series.inverse.s", "series.inverse", "s", "s"),
    ("series.neg_log.s", "series.neg_log", "s", "s"),
    ("series.homotopy_ranks.self_s", "series.homotopy_ranks", "self_s", "s"),
    ("series.pbw_reconstruct.self_s", "series.pbw_reconstruct", "self_s", "s"),
    ("lscat.links.s", "lscat.links", "s", "s"),
    ("lscat.toomer.s", "lscat.toomer", "s", "s"),
    ("lscat.cup_search.s", "lscat.cup_search", "s", "s"),
    ("complexes.is_flag.calls", "complexes.is_flag", "calls", "count"),
    ("complexes.is_flag.s", "complexes.is_flag", "s", "s"),
    ("complexes.chi_subcomplexes.s", "complexes.chi_subcomplexes", "s", "s"),
    ("cli.cache_load.s", "cli.cache_load", "s", "s"),
    ("cli.cache_save.s", "cli.cache_save", "s", "s"),
    ("cli.cache_bytes", "cli.cache_bytes", "count", "B"),
    ("cli.emit.s", "cli.emit", "s", "s"),
]


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, cycles, import_s, untraced_s, traced_s):
    """Per-cycle layer totals from the traced pass, plus ratios and the overhead."""
    totals, counts = tracer.totals(), tracer.counts
    metrics = {}
    for name, key, field, unit in LAYER:
        value = counts.get(key, 0.0) if field == "count" else totals.get(key, {}).get(field, 0)
        metrics[name] = (value / cycles, unit)
    metrics["hochster.memo_hit_ratio"] = (
        ratio(counts["hochster.memo_hits"], counts["hochster.subsets_requested"]), "ratio")
    metrics["hochster.rss_per_subset_b"] = (
        ratio(counts["hochster.store_bytes"], counts["hochster.store_subsets"]), "B")
    if counts["cli.processes"]:
        import_s = counts["cli.import_s"] / counts["cli.processes"]
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / cycles, "s")
    metrics["trace.overhead_ratio"] = (ratio(traced_s - untraced_s, untraced_s), "ratio")
    return metrics


def measure(args, work, import_s):
    from perfbench import workloads as W
    from perfbench.spans import Tracer
    os.makedirs(work)
    env = W.RunEnv(ROOT, work)
    wl = W.WORKLOADS[args.workload](args.seed, env)
    setup_s = setup(wl, env)
    notes = []
    if not args.trace:
        units = 2 * len(wl.CLASSES) if args.pin else None
        refs = []
        jobs, busy, _, inputs = run_pass(wl, args.seconds, units, describe=True, refs=refs)
        check_digests(wl, jobs, args.pin)
        metrics, notes = end_to_end(jobs, busy, setup_s, refs)
        trace_file = None
    else:
        cycle = len(wl.CLASSES)
        refs, traced_refs = [], []
        jobs, _, units, inputs = run_pass(wl, args.seconds / 2, describe=True, refs=refs)
        tracer = Tracer()
        tracer.install()
        env.tracer, env.traced = tracer, True
        try:
            traced, _, _, _ = run_pass(wl, units=units, tracer=tracer, refs=traced_refs)
        finally:
            tracer.uninstall()
            env.traced = False
        check_digests(wl, jobs, False)
        check_digests(wl, traced, False)
        # the overhead compares job times scaled to the yardstick, so that a
        # change in the machine's speed between the passes does not show as one
        busy, traced_busy = scaled_busy(jobs, refs, units), scaled_busy(traced, traced_refs, units)
        metrics = per_layer(tracer, units // cycle, import_s, busy, traced_busy)
        notes.append(f"untraced {busy:.3f} s, traced {traced_busy:.3f} s (scaled) over "
                     f"{units // cycle} input cycle(s) of {len(jobs)} jobs")
        if tracer.missing:
            notes.append(f"boundaries not found, their metrics read 0: {tracer.missing}")
        if wl.name == "cli-cache":
            notes.append("sweep work runs in --threads 2 worker processes, whose spans are "
                         "not visible: below hochster.sweep.s, zeros mean 'not seen', "
                         "not 'no work'")
        jobs = jobs + traced
        os.makedirs(OUT, exist_ok=True)
        trace_file = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json.gz")
        tracer.write(trace_file)
    return wl, jobs, inputs, metrics, notes, trace_file


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-z", "check-all-small", "cli-cache"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output digests in digests.json "
                             "(seed 0; runs two whole input cycles)")
    args = parser.parse_args(argv)
    import_s = load_tree()
    work = os.path.join(WORK, str(os.getpid()))
    try:
        wl, jobs, inputs, metrics, notes, trace_file = measure(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    failed = [j for j in jobs if j["problems"]]
    record = {
        "workload": wl.name, "trace": args.trace, "environment": environment(args.seed),
        "inputs": summarize_inputs(inputs, jobs),
        "failed_ratio": len(failed) / len(jobs),
        "notes": notes, "trace_file": trace_file,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "jobs": jobs,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# inputs {json.dumps(record['inputs'])}")
    print(f"# failed_ratio {record['failed_ratio']:.4f} ({len(failed)} of {len(jobs)} jobs)")
    for j in failed[:5]:
        print(f"# failed: unit {j['unit']} {j['job']}: {'; '.join(j['problems'])[:300]}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not failed, "attempted": len(jobs), "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
