"""Command-line behaviour: exit codes, formats, determinism, options."""

import hashlib
import json
import random
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import pytest
from _cli import flagtor, python, spawn_flagtor
from _fixtures import FACET21, RP2_FLAG12

from flagtor import cli, complexes, hochster, lscat, pontryagin, rows, series


def test_cat_on_named_cycle():
    r = flagtor("cat", "--named", "cycle:4")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["result"]["cat"] == 2


def test_a_reader_that_closes_stdout_ends_the_call_quietly():
    # ranks on cycle:7 prints 869 KB; the reader takes 100 bytes and goes
    child = spawn_flagtor("ranks", "--named", "cycle:7")
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    with child.stderr:
        assert child.stderr.read() == b""
    assert child.wait() == 0


def test_non_flag_input_exits_three():
    r = flagtor("tor", "--named", "boundary:3", "--coeff", "fp:2")
    assert r.returncode == 3
    assert "flag" in r.stderr


def test_bad_input_exits_two():
    r = flagtor("info", "--named", "no-such-thing")
    assert r.returncode == 2
    r = flagtor("homology", "--named", "cycle:4", "--coeff", "fp:6")
    assert r.returncode == 2
    # the ring is read before the complex, so its error comes first
    r = flagtor("info", "--named", "no-such-thing", "--coeff", "fp:6")
    assert (r.returncode, r.stderr) == (2, "error: 6 is not prime\n")


# names nested past the recursion limit, and a probability past a float
DEEP_OR_HUGE_NAMES = {"skeleton:1:x3000": "skeleton:1:" * 3000 + "cycle:4",
                      "barycentric:x1200": "barycentric:" * 1200 + "points:1",
                      "random-flag:5:9x400:1": f"random-flag:5:{'9' * 400}:1"}


@pytest.mark.parametrize("name", ["cross:0", "random-flag:0:50:1", "random-flag:5:150:1",
                                  "cycle:2", "skeleton:-1:cycle:4",
                                  *(pytest.param(name, id=short)
                                    for short, name in DEEP_OR_HUGE_NAMES.items())])
def test_bad_corpus_arguments_exit_two(name, capsys):
    assert cli.run(["info", "--named", name]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: bad arguments in corpus name {name!r}: ")


def test_check_all_passes_and_is_quiet_on_success(tmp_path):
    r = flagtor("check-all", "--named", "cycle:4", "--trunc", "8")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["result"]["ok"]
    assert all(c["status"] == "PASS" for c in payload["result"]["checks"])
    assert "PASS" in r.stderr


def test_check_all_reports_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(series, "panov_ray_check", lambda *a: (False, [], []))
    assert cli.run(["check-all", "--named", "cycle:4"]) == 1
    out, err = capsys.readouterr()
    result = json.loads(out)["result"]
    assert result["ok"] is False
    status = {c["name"]: c["status"] for c in result["checks"]}
    assert status["panov-ray-identity"] == "FAIL"
    assert [s for s in status.values() if s == "FAIL"] == ["FAIL"]
    assert "FAIL panov-ray-identity\n" in err


def test_one_parser_serves_successive_runs(capsys):
    # run reuses the process's one parser: an option given to one call
    # must not leak into the next, and --help must not break it
    assert cli.build_parser() is cli.build_parser()
    assert cli.run(["tor", "--named", "cycle:4", "--subset", "1,2"]) == 0
    sliced = json.loads(capsys.readouterr().out)["result"]
    assert "by_degree" not in sliced
    assert cli.run(["tor", "--named", "cycle:4"]) == 0
    full = json.loads(capsys.readouterr().out)["result"]
    assert full["by_degree"] == {"0": 1, "1": 2, "2": 1}
    assert len(full["entries"]) == 4
    assert cli.run(["--help"]) == 0
    assert "check-all" in capsys.readouterr().out
    code = cli.run(["check-all", "--named", "cycle:4"])
    out, err = capsys.readouterr()
    fresh = flagtor("check-all", "--named", "cycle:4")
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_series_sweeps_chi_once(capsys, monkeypatch):
    # the series and the h-vector identity read one memoized chi~ table
    hochster.clear_cache()
    builds = []
    build = complexes._chi_subcomplexes
    monkeypatch.setattr(complexes, "_chi_subcomplexes",
                        lambda K: builds.append(K) or build(K))
    assert cli.run(["series", "--named", "cycle:5"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["panov_ray_identity"]["ok"]
    assert len(builds) == 1


def test_corpus_roundtrip(tmp_path):
    r = flagtor("corpus", "--named", "skeleton:1:simplex:4")
    assert r.returncode == 0
    data = json.loads(r.stdout)["result"]
    assert data["m"] == 4
    path = tmp_path / "k.json"
    path.write_text(json.dumps(data))
    r2 = flagtor("info", "--input", str(path))
    assert r2.returncode == 0
    info = json.loads(r2.stdout)["result"]
    assert info["nu"] == 2  # one-skeleton of the tetrahedron


def test_corpus_compound_names():
    r = flagtor("info", "--named", "boundary:3+boundary:6")
    assert json.loads(r.stdout)["result"]["nu"] == 1
    r = flagtor("info", "--named", "points:2*points:2*points:2")
    assert json.loads(r.stdout)["result"]["is_flag"] is True
    r = flagtor("corpus", "--named", "cycle:5")
    assert json.loads(r.stdout)["result"]["m"] == 5


def test_output_is_byte_identical_across_runs_and_threads():
    a = flagtor("zk-homology", "--named", "random-flag:12:40:3",
                "--coeff", "fp:2", "--threads", "1", "--detail")
    b = flagtor("zk-homology", "--named", "random-flag:12:40:3",
                "--coeff", "fp:2", "--threads", "2", "--detail")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_ignored_options_are_accepted_and_change_nothing(tmp_path):
    # --cache and --threads still parse, print one warning and do nothing
    args = ("zk-homology", "--named", "random-flag:8:40:1", "--coeff", "z")
    plain = flagtor(*args)
    assert plain.returncode == 0 and plain.stderr == ""
    cache = tmp_path / "cache"
    for option, value in (("--cache", str(cache)), ("--threads", "2")):
        given = flagtor(*args, option, value)
        assert given.returncode == 0
        assert given.stdout == plain.stdout
        lines = given.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"warning: {option} is ignored; ")
    assert not cache.exists()


@pytest.mark.parametrize("text", [
    '{"m": "x", "facets": [[1]]}',
    '{"m": 3, "facets": [1,2]}',
    '[1,2]',
    '{"m": 3, "facets": [["a"]]}',
    '{"m": 3, "facets": [[1.5]]}',
    '{"m": 3}',
    '{"m": 4, "facets": [[1, 3]]}',
])
def test_malformed_input_json_exits_two(tmp_path, text):
    path = tmp_path / "k.json"
    path.write_text(text)
    r = flagtor("info", "--input", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(path) in lines[0]
    assert "Traceback" not in r.stderr


def test_huge_vertex_count_exits_two_naming_a_few_ghosts(tmp_path):
    # no mask of m bits may be built: the child runs under a 2 GB cap
    path = tmp_path / "k.json"
    path.write_text('{"m": 1000000000000, "facets": [[1]]}')
    r = python("-c", "import resource; "
               "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
               "from flagtor.cli import main; main()",
               "info", "--input", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        f"error: {path}: ghost vertices [2, 3, 4, 5, 6] and 999999999994 more"]


@pytest.mark.parametrize("argv", [
    ("koszul-dual", "--named", "cycle:5", "--length", "-1"),
    ("chi-check", "--named", "cycle:4", "--alpha", "1,-1,1,1"),
    ("cobar-ext", "--named", "cycle:4", "--alpha", "1,1,-1,0"),
])
def test_negative_length_or_exponent_exits_two(argv):
    r = flagtor(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["zk-homology", "tor", "series"])
def test_sweep_cap_exits_two_with_one_error_line(command):
    r = flagtor(command, "--named", "cycle:25")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        "error: complexes.SWEEP_CAP = 24 exceeded: a full subcomplex sweep "
        "over m = 25 vertices"]


def test_multidegree_serialization_doubles_lambda():
    r = flagtor("tor", "--named", "cycle:4", "--coeff", "q")
    entries = json.loads(r.stdout)["result"]["entries"]
    by_J = {tuple(e["J"]): e for e in entries}
    assert by_J[(1, 3)]["t"] == -2
    assert by_J[(1, 3)]["lambda"] == [2, 0, 2, 0]
    assert by_J[(1, 2, 3, 4)]["n"] == 2


def test_table_output():
    r = flagtor("cat", "--named", "cycle:4", "--out", "table")
    assert r.returncode == 0
    assert "result.cat: 2" in r.stdout


def test_koszul_dual_cli():
    r = flagtor("koszul-dual", "--named", "cycle:4", "--length", "2")
    data = json.loads(r.stdout)["result"]
    assert data["total"] == 8
    # length 0 is the one empty word
    r = flagtor("koszul-dual", "--named", "cycle:5", "--length", "0")
    data = json.loads(r.stdout)["result"]
    assert data["words"] == [[]] and data["total"] == 1


def test_koszul_dual_long_words_do_not_hit_the_recursion_limit():
    # two points: no letters commute, so the words alternate 1 and 2
    r = flagtor("koszul-dual", "--named", "points:2", "--length", "1500")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)["result"]
    assert data["total"] == 2
    assert data["words"] == [[1, 2] * 750, [2, 1] * 750]


def test_koszul_dual_builds_no_level_past_an_empty_one():
    # every two letters of simplex:3 anticommute, so its words are ascending
    # runs of distinct letters and every level past 3 is empty
    start = time.monotonic()
    r = flagtor("koszul-dual", "--named", "simplex:3", "--length", str(10 ** 10))
    assert time.monotonic() - start < 10
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)["result"]
    assert data["total"] == 0 and data["words"] == [] and data["counts"] == []


def test_koszul_dual_over_the_word_budget_exits_two():
    # cycle:5 has 231,840 normal words of length 12 and more than
    # MAX_WORDS of length 13, so no level past 13 is built
    start = time.monotonic()
    r = flagtor("koszul-dual", "--named", "cycle:5", "--length", "40")
    assert time.monotonic() - start < 10
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        f"error: pontryagin.MAX_WORDS = {pontryagin.MAX_WORDS} exceeded: "
        "normal words of length 13"]


def test_cobar_ext_cli():
    r = flagtor("cobar-ext", "--named", "boundary:3", "--alpha", "1,1,1")
    data = json.loads(r.stdout)["result"]
    assert data["ext_dims"]["2"] == 1


def test_cobar_ext_over_the_degree_cap_exits_two():
    # words of 1200 letters would recurse past the interpreter's limit
    r = flagtor("cobar-ext", "--named", "points:2", "--alpha", "600,600",
                "--trunc", "1200")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        "error: pontryagin.MAX_DEGREE_BOUND = 31 exceeded: |beta| = 1200 in cobar Ext"]


def test_tor_subset_slice_on_large_complex():
    # the m = 31 flag projective plane: no sweep, just the top slice
    r = flagtor("tor", "--named", "rp2-flag", "--coeff", "z",
                "--subset", "all")
    assert r.returncode == 0
    entries = json.loads(r.stdout)["result"]["entries"]
    assert entries == [{"n": 2, "t": -31, "lambda": [2] * 31,
                        "J": list(range(1, 32)), "rank": 0, "torsion": [2]}]
    r = flagtor("gens-rels", "--named", "rp2-flag", "--coeff", "fp:2",
                "--subset", "all")
    assert json.loads(r.stdout)["result"]["relations"] == 1


# sha256 of stdout over Z on the 12-vertex flag RP^2, and a few of its values
RP2_FLAG12_STDOUT = {
    "tor": ("88cbb771cf0186de02ac2e677de55323691420e12cb29943e92b8c47961ef51f",
            lambda result: len(result["entries"]) == 2715 and not result["exact"]
            and result["by_degree"] == {"0": 1, "1": 669, "2": 2716}),
    "gens-rels": ("654a99734488b16242bcf1b95d7dde0a23971f0c4f50a340c95d06cb7a3b5dae",
                  lambda result: result["generators"]["total"] == 669
                  and result["relations"]["total"] == 2717),
    "check-all": ("971809aeae0dd11108dd2cb37dd5069d936283e3e84cac594d2bb1ed02d90d3d",
                  lambda result: result["ok"] and len(result["checks"]) == 18),
}


@pytest.mark.parametrize("command", sorted(RP2_FLAG12_STDOUT))
def test_flag_rp2_stdout_is_pinned(command):
    # a sweepable flag complex whose Tor over Z has 2-torsion
    digest, holds = RP2_FLAG12_STDOUT[command]
    r = flagtor(command, "--input", str(RP2_FLAG12), "--coeff", "z")
    assert r.returncode == 0
    assert holds(json.loads(r.stdout)["result"])
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


# sha256 of stdout on small named complexes, for the commands that render
# multidegrees, words, slices, series, ranks and the category report
SMALL_STDOUT = {
    ("cat", "--named", "octahedron"):
        ("1d97544681ef1beb19809f20c7064e03285ad1b14e40bb9cf429afb09d46ad6a",
         lambda result: result["cat"] == 3 and result["toomer"]["max"] == 3),
    ("cat", "--named", "boundary:4"):
        ("a1f5bfe76a9f037ccca7e41b5c4426045e7fdaa1d28f76fabc9aa9538620e448",
         lambda result: not result["is_flag"] and "cat" not in result
         and result["via_links"] == 3 and result["lower_bound"] == 1),
    ("koszul-dual", "--named", "cycle:5", "--length", "3"):
        ("4d808bf5d090265f1b6ec5218ed241f2b73f659e4e5a2e8cbd90a1522bcf1e5c",
         lambda result: result["total"] == 40
         and result["words"][0] == [1, 2, 3]),
    ("cobar-ext", "--named", "cycle:4", "--alpha", "2,1,1,0"):
        ("95076334fdaa5602ccdb899e68f996dd42b6046fa3a327305aea10b2f47bac21",
         lambda result: result["ext_dims"] == {"4": 1}),
    ("cobar-ext", "--named", "boundary:3", "--alpha", "1,1,1"):
        ("76ef6d797c6b9b5f0af4e274ea3f0e8f3d11420ac350216173d9ff56e296d950",
         lambda result: result["ext_dims"]["2"] == 1),
    ("ranks", "--named", "cycle:5", "--trunc", "6"):
        ("cac392440d4fdfc08cdb08d273314c909df8df4e679d9fb231f572879bbc6cf6",
         lambda result: len(result["ranks"]) == 76
         and sum(e["rank"] for e in result["ranks"]) == 99),
    ("series", "--named", "cycle:5", "--trunc", "6"):
        ("ebc8ccd027c478d76258f579c5a9d0571088823a3b305b40600cb0e83c2fe0bb",
         lambda result: result["z_graded"] == [1, 0, 5, 5, 25, 49, 150]),
}


@pytest.mark.parametrize("argv", sorted(SMALL_STDOUT), ids=" ".join)
def test_small_stdout_is_pinned(argv):
    digest, holds = SMALL_STDOUT[argv]
    r = flagtor(*argv)
    assert r.returncode == 0, r.stderr
    assert holds(json.loads(r.stdout)["result"])
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


# every subcommand, with the options that change the payload's shape
EVERY_COMMAND = [
    ("info", "--named", "boundary:3+boundary:6"),
    ("homology", "--named", "rp2", "--coeff", "z"),
    ("zk-homology", "--named", "rp2+cycle:4", "--coeff", "z", "--detail", "--dual"),
    ("rk-homology", "--named", "cycle:5", "--detail"),
    ("tor", "--input", str(RP2_FLAG12), "--coeff", "z"),
    ("tor", "--named", "cycle:6", "--subset", "1,3,5"),
    ("gens-rels", "--named", "random-flag:7:40:1", "--coeff", "fp:2"),
    ("gens-rels", "--named", "cycle:5", "--subset", "all"),
    ("koszul-dual", "--named", "cycle:5", "--length", "2"),
    ("koszul-dual", "--named", "cycle:5", "--length", "0"),
    ("cobar-ext", "--named", "cycle:4", "--alpha", "2,1,1,0"),
    ("mm-check", "--named", "cycle:5"),
    ("series", "--named", "cycle:5", "--trunc", "4"),
    ("ranks", "--named", "random-flag:7:50:1", "--trunc", "6"),
    ("chi-check", "--named", "cycle:4", "--alpha", "1,0,1,0"),
    ("chi-check", "--named", "points:2", "--alpha", "2,2"),
    ("cat", "--named", "octahedron"),
    ("cat", "--named", "boundary:4"),
    ("toomer", "--input", str(RP2_FLAG12), "--coeff", "fp:2"),
    ("toomer", "--named", "cycle:5", "--coeff", "z"),
    ("cat-bound", "--named", "cycle:5"),
    ("cup-search", "--named", "cycle:4"),
    ("cup-search", "--named", "points:3"),
    ("check-all", "--named", "cycle:5", "--coeff", "z"),
    ("corpus", "--named", "skeleton:1:simplex:4"),
]


def test_every_command_is_compared_with_json_dumps():
    assert {argv[0] for argv in EVERY_COMMAND} == set(cli.COMMANDS)


def _argv_id(argv):
    return " ".join(Path(a).name if a.endswith(".json") else a for a in argv)


def _dict_rows(obj):
    """A row source as the list of its rows as dicts; nothing else."""
    assert isinstance(obj, rows.Rows), type(obj)
    return list(obj)


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=_argv_id)
def test_emit_prints_what_json_dumps_prints(monkeypatch, capsys, argv):
    payloads = []
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda payload, cfg:
                        payloads.append(payload) or emit(payload, cfg))
    assert cli.run(list(argv)) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(payloads[0], sort_keys=True, indent=2,
                             default=_dict_rows) + "\n"


# sha256 of the --out table stdout, which prints the rows of a row source
# as the reprs of their dicts
TABLE_STDOUT = {
    ("ranks", "--named", "cycle:5", "--trunc", "6"):
        "3dc3e6911c343bc0f2698c929df356142bf8c25cc13dda32c0209caca4b0df68",
    ("ranks", "--named", "random-flag:7:50:1", "--trunc", "6"):
        "49dd3be8a828bdec44ccacf58e6a1dfe41d88547efdb92a4171dc05f451e1e3e",
    ("tor", "--named", "cycle:5"):
        "c9d1038fbc8e59492931c681aab04a248928c35bc7f3bc102d17ece270e7e468",
    ("tor", "--input", str(RP2_FLAG12), "--coeff", "z"):
        "1b650e2bcb493b6f28d6ceabe88eda09f7a7029c1a121229a168b312891957bc",
    ("tor", "--named", "cycle:6", "--subset", "1,3,5"):
        "fbbc1dcd4aff1b7eaa2ac1fd5b6b6868aa336b1f72875df60384e4affbfd9d3b",
}


@pytest.mark.parametrize("argv", sorted(TABLE_STDOUT), ids=_argv_id)
def test_table_stdout_is_pinned(capsys, argv):
    assert cli.run([*argv, "--out", "table"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_STDOUT[argv]


class _CountingSink:
    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)


@pytest.mark.parametrize("argv", [
    ["tor", "--named", "random-flag:15:40:1", "--coeff", "fp:2"],
    ["gens-rels", "--named", "random-flag:16:40:1", "--coeff", "fp:2"],
    ["tor", "--named", "random-flag:17:40:1", "--coeff", "fp:2", "--out", "table"],
], ids=_argv_id)
def test_per_subset_rows_are_written_without_holding_them(monkeypatch, argv):
    # once the sweep is in K's memo, writing a row per J holds one batch
    # of rows at a time, not every row's dict or count
    monkeypatch.setattr(sys, "stdout", _CountingSink())
    assert cli.run(argv) == 0
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert cli.run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written > 10_000_000
    assert peak < sink.written / 10


@pytest.mark.parametrize("argv, m, trunc, terms", [
    (("series", "--named", "random-flag:18:40:1"), 18, 8, 1562275),
    (("ranks", "--named", "random-flag:18:40:1"), 18, 8, 1562275),
    # the homotopy-rank route raises its truncation to |alpha| = 20
    (("chi-check", "--named", "cycle:10", "--alpha", "2,2,2,2,2,2,2,2,2,2"),
     10, 20, 30045015),
], ids=["series", "ranks", "chi-check"])
def test_series_over_the_budget_exits_two(argv, m, trunc, terms):
    r = flagtor(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        f"error: series.SERIES_BUDGET = {series.SERIES_BUDGET} exceeded: a series "
        f"in {m} variables to total degree {trunc} can hold {terms} terms"]


def _out_of_memory(*args):
    raise MemoryError


# one call past each cap, and one that runs out of memory
OVER_CAP = {
    "SWEEP_CAP": (("zk-homology", "--named", "points:25"), None,
                  "complexes.SWEEP_CAP = 24 exceeded: a full subcomplex sweep "
                  "over m = 25 vertices"),
    "SERIES_BUDGET": (("series", "--named", "random-flag:18:40:1"), None,
                      "series.SERIES_BUDGET = 1500000 exceeded: a series in 18 "
                      "variables to total degree 8 can hold 1562275 terms"),
    "bound": (("cobar-ext", "--named", "points:9", "--alpha", ",".join("1" * 9)), None,
              "bound = 8 exceeded: |beta| = 9 in cobar Ext"),
    "MAX_WORDS": (("koszul-dual", "--named", "cycle:5", "--length", "40"), None,
                  "pontryagin.MAX_WORDS = 500000 exceeded: normal words of length 13"),
    # cycle:4 has 4n words of length n, so no one level meets MAX_WORDS
    "MAX_LETTERS": (("koszul-dual", "--named", "cycle:4", "--length", "1000"), None,
                    "pontryagin.MAX_LETTERS = 16000000 exceeded: letters of the "
                    "normal words up to length 229"),
    "CHI_BUDGET": (("chi-check", "--named", "random-flag:16:40:1",
                    "--alpha", ",".join("1" * 16)), None,
                   "series.CHI_BUDGET = 100000000 exceeded: |alpha| = 16 takes up "
                   "to 688747536 box steps"),
    "MAX_PARTITIONS": (("cup-search", "--named", "cycle:4*cycle:5"),
                       lambda mp: mp.setattr(lscat, "MAX_PARTITIONS", 10),
                       "lscat.MAX_PARTITIONS = 10 exceeded: set partitions tried "
                       "without finding a witness"),
    "MAX_FACET_VERTICES": (("info", "--input", str(FACET21)), None,
                           f"{FACET21}: complexes.MAX_FACET_VERTICES = 20 exceeded: "
                           "a facet of 21 vertices"),
    "MemoryError": (("tor", "--named", "cycle:4"),
                    lambda mp: mp.setitem(cli.COMMANDS, "tor", _out_of_memory),
                    "tor ran out of memory"),
    # building cross:20 ran out of memory after 22 s under a 3 GB limit
    "MemoryError while building": (("info", "--named", "cross:20"),
                                   lambda mp: mp.setattr(complexes, "cross_polytope",
                                                         _out_of_memory),
                                   "info ran out of memory"),
}


@pytest.mark.parametrize("cap", OVER_CAP)
def test_each_cap_exits_two_at_once_with_one_error_line(monkeypatch, capsys, cap):
    argv, patch, message = OVER_CAP[cap]
    if patch:
        patch(monkeypatch)
    start = time.monotonic()
    assert cli.run(list(argv)) == 2
    assert time.monotonic() - start < 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def _not_flag(argv, what):
    """A flag-only call on boundary:3, the empty triangle and the smallest
    non-flag complex, with its exit code and the stderr that names the
    function refusing it."""
    return ((argv[0], "--named", "boundary:3", *argv[1:]), 3,
            f"precondition failed: {what} needs a flag complex")


PRECONDITION = {
    "tor": _not_flag(("tor",), "pontryagin.tor_via_subcomplexes"),
    "gens-rels": _not_flag(("gens-rels",), "pontryagin.tor_via_subcomplexes"),
    "tor --subset": _not_flag(("tor", "--subset", "1,2"), "pontryagin.tor_for_subset"),
    "gens-rels --subset": _not_flag(("gens-rels", "--subset", "1,2"),
                                    "pontryagin.tor_for_subset"),
    "mm-check": _not_flag(("mm-check",), "pontryagin.milnor_moore_check"),
    "series": _not_flag(("series",), "series.poincare_ozk"),
    "ranks": _not_flag(("ranks",), "series.homotopy_ranks"),
    "chi-check 2,2,0": _not_flag(("chi-check", "--alpha", "2,2,0"), "series.homotopy_ranks"),
    "chi-check 1,1,1": _not_flag(("chi-check", "--alpha", "1,1,1"), "series.chi_inequality"),
    "toomer": _not_flag(("toomer",), "lscat.toomer"),
    "toomer --coeff z": _not_flag(("toomer", "--coeff", "z"), "lscat.toomer"),
    "cup-search": _not_flag(("cup-search",), "lscat.cup_witness_search"),
    "cobar-ext --coeff z": (("cobar-ext", "--named", "cycle:4", "--alpha", "1,1,0,0",
                             "--coeff", "z"), 2,
                            "error: pontryagin.cobar_ext needs field coefficients"),
}


@pytest.mark.parametrize("call", PRECONDITION)
def test_each_precondition_exits_with_one_line_naming_it(capsys, call):
    argv, code, message = PRECONDITION[call]
    assert cli.run(list(argv)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


def test_the_series_budget_admits_what_the_package_runs():
    # m = 17 and m = 16 at the default truncation (1,081,575 and 735,471
    # terms), and check-all's series at m <= 10
    for m in (17, 16, 10):
        series._check_series_budget(complexes.cycle_complex(m), 8)


def test_tor_by_degree_keeps_a_degree_with_only_torsion(monkeypatch, capsys):
    # entries (0, 0): (1, ()) and (7, 3): (0, (2,)) over the ids of the
    # 8 subsets of 3 vertices, whose groups are [count, degrees, summands]
    store = hochster._Store()
    store.ids = array("B", [0, 1, 1, 1, 1, 1, 1, 2])
    groups = {0: [1, [0], [(1, ())]], 1: [6, [], []], 2: [1, [3], [(0, (2,))]]}
    table = hochster.HochsterTable(hochster._Entries(store, False, groups),
                                   {0: 1}, {3: (2,)})
    assert dict(table.entries.items()) == {(0, 0): (1, ()), (7, 3): (0, (2,))}
    monkeypatch.setattr(pontryagin, "tor_via_subcomplexes", lambda K, coeff: table)
    assert cli.run(["tor", "--named", "cycle:3", "--coeff", "z"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["by_degree"] == {"0": 1, "3": 0}
    assert [(e["n"], e["J"], e["torsion"]) for e in result["entries"]] == \
        [(0, [], []), (3, [1, 2, 3], [2])]


def test_chi_check_routes_by_gcd():
    r = flagtor("chi-check", "--named", "points:2", "--alpha", "2,2")
    data = json.loads(r.stdout)["result"]
    assert data["route"] == "homotopy-rank" and data["value"] == "0"
    r = flagtor("chi-check", "--named", "cycle:4", "--alpha", "1,0,1,0")
    data = json.loads(r.stdout)["result"]
    assert data["route"] == "compositional" and data["value"] == "1"


@pytest.mark.parametrize("argv, target, stub, message", [
    (["cup-search", "--named", "cycle:4"], lscat, ("_is_cocycle", lambda *a: False),
     "product cochain failed the cocycle check"),
    # a flagification with an extra edge that no round of the filtration adds
    (["check-all", "--named", "points:4"], complexes,
     ("flagification", lambda K: complexes.cycle_complex(K.m)),
     "filtration stalled before flagification"),
])
def test_internal_assertion_exits_four(monkeypatch, capsys, argv, target, stub,
                                       message):
    monkeypatch.setattr(target, *stub)
    assert cli.run(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal error: {message}\n"


CAPS = [(complexes, "SWEEP_CAP"), (complexes, "MAX_FACET_VERTICES"),
        (series, "SERIES_BUDGET"), (lscat, "MAX_PARTITIONS"),
        (pontryagin, "MAX_WORDS"), (pontryagin, "MAX_LETTERS"), (series, "CHI_BUDGET"),
        (pontryagin, "MAX_DEGREE_BOUND"), (hochster, "MAX_PROFILES")]


@pytest.mark.parametrize("module, cap", CAPS, ids=[cap for _, cap in CAPS])
def test_readme_states_each_cap_with_its_value(module, cap):
    # one row of the README's table of caps: name, then value
    name = f"`{module.__name__.rpartition('.')[2]}.{cap}`"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith(f"| {name} |")]
    assert len(rows) == 1
    assert rows[0].startswith(f"| {name} | {getattr(module, cap):,} |")


# inputs of the fuzz of cli.run, each a list of good values and a list of
# bad ones: complexes with m <= 8, malformed names, rings, options, and the
# texts of --input files
FUZZ_NAMES = (["cycle:4", "cycle:5", "points:3", "boundary:3", "octahedron", "rp2",
               "cross:4", "skeleton:1:simplex:4", "cycle:4*points:2", "boundary:3+cycle:4",
               "barycentric:points:2", "random-flag:7:50:1", "random-flag:8:30:2"],
              ["no-such-thing", "cycle:", "cycle:x", "cycle:2", "cross:0", "skeleton:x:cycle:4",
               "random-flag:5:150:1", "random-flag:5", "rp2:3", "cycle:4+", "*", "",
               *DEEP_OR_HUGE_NAMES.values()])
FUZZ_FILES = ([b'{"m": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}',
               b'{"m": 3, "facets": [[1, 2], [2, 3], [1, 3]]}'],
              [b'{"m": "x", "facets": [[1]]}', b'{"m": 1, "facets": [[true]]}', b"[1, 2]",
               b"null", b'{"m": NaN, "facets": [[1]]}', b'{"m": 4, "facets": [[1, 2], [3,',
               bytes(range(256)), b"", b'{"m": 6, "facets": [[1, 2], [2, 3]]}',
               b'{"m": 2, "facets": [[1, 3]]}', b'{"m": 1, "facets": [[1], []]}',
               FACET21.read_bytes()])
FUZZ_RINGS = (["q", "z", "fp:2", "fp:3"], ["fp:6", "fp:0", "fp:", "fp:x", "r"])
FUZZ_TRUNCS = (["1", "3", "6"], ["0", "-2", "x"])
FUZZ_SUBSETS = (["all", "1,2", "1,3"], ["", "0", "1,99", "x"])
FUZZ_LENGTHS = (["0", "1", "3", "6", "12"], ["-1", "x"])


def _pick(rng, values):
    """One of the good values, or one time in five a bad one."""
    good, bad = values
    return rng.choice(bad if rng.random() < 0.2 else good)


def _fuzz_argv(rng, files):
    """One argv of a command of cli.COMMANDS over a drawn input and options."""
    command = rng.choice(list(cli.COMMANDS))
    argv = [command]
    source = rng.random()
    if source < 0.6:
        argv += ["--named", _pick(rng, FUZZ_NAMES)]
    elif source < 0.95:
        argv += ["--input", str(_pick(rng, files))]
    if rng.random() < 0.5:
        argv += ["--coeff", _pick(rng, FUZZ_RINGS)]
    if rng.random() < 0.4:
        argv.append(f"--trunc={_pick(rng, FUZZ_TRUNCS)}")
    if rng.random() < 0.2:
        argv += ["--out", "table"]
    if command in ("zk-homology", "rk-homology"):
        argv += rng.sample(["--detail", "--dual"], rng.randint(0, 2))
    if command in ("tor", "gens-rels") and rng.random() < 0.5:
        argv.append(f"--subset={_pick(rng, FUZZ_SUBSETS)}")
    if command == "koszul-dual":
        argv.append(f"--length={_pick(rng, FUZZ_LENGTHS)}")
    if command in ("cobar-ext", "chi-check"):
        alpha = ",".join(str(rng.choice([0, 1, 1, 2])) for _ in range(rng.randint(3, 8)))
        argv.append(f"--alpha={_pick(rng, ([alpha], ['1,-1,1', 'a,b', '']))}")
    return argv


def test_a_seeded_fuzz_of_run_ends_each_call_in_an_exit_code(tmp_path, capsys):
    # 200 argv over every command: no exception escapes run, no call exits 4,
    # and a call that fails says why on stderr
    files = ([], [tmp_path / "missing.json"])
    for i, text in enumerate(FUZZ_FILES[0] + FUZZ_FILES[1]):
        path = tmp_path / f"k{i}.json"
        path.write_bytes(text)
        files[i >= len(FUZZ_FILES[0])].append(path)
    rng = random.Random(0)
    calls = [_fuzz_argv(rng, files) for _ in range(200)]
    assert {argv[0] for argv in calls} == set(cli.COMMANDS)
    for argv in calls:
        code = cli.run(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert out if code == 0 else err
