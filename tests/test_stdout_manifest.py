"""Stdout, stderr and exit code of each call in the committed manifest.

``tests/data/stdout_manifest.json`` lists argv lists, each with the
sha256 of the call's stdout and of its stderr and its exit code.  Each
call runs in process through ``cli.run`` on an empty memo (cold), then
once more on the memo it left (warm), and both runs must give the pinned
bytes.  A change that alters output on purpose re-pins with

    PYTHONPATH=src python tests/test_stdout_manifest.py

and says in CHANGES.md which entries changed and why.  A new call is
pinned from this tree with

    PYTHONPATH=src python tests/test_stdout_manifest.py --add <argv...>

which appends its one entry and leaves every other entry as it is; pin it
on the commit before a change that should not alter its output.  An
argument that starts with ``tests/data/`` names a file of this tree.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from flagtor import cli, hochster

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "stdout_manifest.json"
SWEEPS = {"zk-homology", "rk-homology", "tor", "gens-rels", "check-all"}
RINGS = {"q", "fp:2", "fp:3", "z"}


def _call(argv):
    """(stdout sha256, stderr sha256, exit code) of cli.run(argv)."""
    argv = [str(ROOT / a) if a.startswith("tests/data/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return (hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest(), code)


def _pinned(entry):
    return entry["stdout"], entry["stderr"], entry["exit"]


def _manifest():
    return json.loads(MANIFEST.read_text())


def test_the_manifest_covers_every_command_ring_format_and_exit_path():
    calls = [entry["argv"] for entry in _manifest()]
    assert {argv[0] for argv in calls} == set(cli.COMMANDS)
    for command in SWEEPS:
        rings = {argv[argv.index("--coeff") + 1] for argv in calls
                 if argv[0] == command and "--coeff" in argv}
        assert RINGS <= rings, command
    for option in ("--out", "--detail", "--dual", "--subset", "--input"):
        assert any(option in argv for argv in calls), option
    assert {entry["exit"] for entry in _manifest()} == {0, 2, 3}


def test_every_call_prints_the_pinned_bytes_cold_and_warm():
    wrong = []
    for entry in _manifest():
        hochster.clear_cache()
        for run in ("cold", "warm"):
            got = _call(entry["argv"])
            if got != _pinned(entry):
                wrong.append((run, " ".join(entry["argv"]), got[2]))
    hochster.clear_cache()
    assert not wrong, wrong


def _entry(argv):
    """The manifest entry of argv, pinned from a cold call."""
    hochster.clear_cache()
    stdout, stderr, code = _call(argv)
    return {"argv": argv, "stdout": stdout, "stderr": stderr, "exit": code}


if __name__ == "__main__":  # re-pin every entry, or --add one new call
    if sys.argv[1:2] == ["--add"]:
        argv = sys.argv[2:]
        if not argv or argv in (entry["argv"] for entry in _manifest()):
            sys.exit(f"--add needs a call the manifest does not list: {argv}")
        entries = _manifest() + [_entry(argv)]
    else:
        entries = [_entry(entry["argv"]) for entry in _manifest()]
    MANIFEST.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"pinned {len(entries)} calls in {MANIFEST}", file=sys.stderr)
