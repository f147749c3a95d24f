"""Tests of the benchmark itself, on tiny inputs so they run in seconds.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run

run.load_tree()
from perfbench import workloads as W  # noqa: E402

TINY = {
    "sweep-z": [("graph", 6, 0.5), ("rp2+graph", 3, 0.5)],
    "check-all-small": [("cycle", 5), ("rp2",)],
    "cli-cache": [("graph", 7, 0.5)],
}

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, classes in TINY.items():
        monkeypatch.setattr(W.WORKLOADS[name], "CLASSES", classes)
    monkeypatch.setattr(run, "SETUP_ROUNDS", 1)
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    monkeypatch.setattr(run, "DIGESTS", str(tmp_path / "digests.json"))
    return tmp_path


def bench(*argv):
    """Run the benchmark in this process; returns (result line, '#' lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_workloads_match_benchmark_json():
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(W.WORKLOADS) == sorted(listed + list(W.UNLISTED))


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(tiny, workload, trace):
    result, notes = bench("--workload", workload, "--seed", "1", "--seconds", "0.1",
                          "--trace", str(trace))
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("# environment ") for line in notes)
    assert any(line.startswith("# inputs ") for line in notes)


def test_end_to_end_times_are_scaled_to_the_yardstick():
    # half the nominal speed up to unit 1, full speed after it
    refs = [(0, 2 * run.REF_S)] * 3 + [(1, 2 * run.REF_S)] * 3 + [(2, run.REF_S)] * 3
    assert run.scales(refs, 2) == pytest.approx([0.5, 2 / 3])
    jobs = [{"unit": 0, "s": 2.0}, {"unit": 0, "s": 4.0}, {"unit": 1, "s": 3.0}]
    metrics, notes = run.end_to_end(jobs, 9.0, 0.5, refs)
    assert metrics["job_p50_s"][0] == pytest.approx(2.0)
    assert metrics["job_tail_s"][0] == pytest.approx(2.0)
    assert metrics["jobs_per_s"][0] == pytest.approx(3 / 5)
    assert metrics["setup_s"][0] == pytest.approx(0.5)
    assert any(n.startswith("unscaled: jobs_per_s 0.333333 1/s, job_p50_s 3 s") for n in notes)


def test_gate_trips_on_one_altered_digest(tiny):
    args = ["--workload", "sweep-z", "--seed", str(W.DIGEST_SEED), "--seconds", "0.1",
            "--trace", "0"]
    bench(*args, "--pin")
    result, _ = bench(*args)
    assert result["correct"] and result["failed"] == 0
    with open(run.DIGESTS) as fh:
        pinned = json.load(fh)
    pinned["sweep-z"][1] = "0" * 64
    with open(run.DIGESTS, "w") as fh:
        json.dump(pinned, fh)
    result, notes = bench(*args)
    assert not result["correct"] and result["failed"] == 1
    ratio = next(line.split()[2] for line in notes if line.startswith("# failed_ratio "))
    assert float(ratio) > 0


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-z",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
