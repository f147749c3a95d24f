"""The names that ``perfbench`` wraps and calls still resolve in flagtor.

perfbench reaches into the package from outside, by module and
attribute name.  A boundary it cannot find is skipped and its metrics
read 0, so a rename breaks nothing loudly: this test does.  perfbench
itself is read, not edited, here.
"""

import ast
import importlib
from pathlib import Path

from flagtor import cli, complexes, hochster, homology

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# boundaries whose functions flagtor no longer has; perfbench renames them
# in its own next change, and until then their metrics read 0
GONE = {("pontryagin", "_slice_homology"), ("series", "MultiSeries.neg_log"),
        ("cli", "_load_disk_cache"), ("cli", "_save_disk_cache")}


def _boundaries():
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["BOUNDARIES"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py assigns no BOUNDARIES")


def _resolves(modname, attr):
    """As ``spans.Tracer.install`` looks it up: a method on its own class."""
    owner = importlib.import_module(f"flagtor.{modname}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name, None)
        return isinstance(owner, type) and callable(vars(owner).get(name))
    return callable(getattr(owner, name, None))


def test_every_boundary_resolves_but_the_known_gone_ones():
    boundaries = _boundaries()
    assert ("lscat.cup_search", "lscat", "cup_witness_search") in boundaries
    missing = {(mod, attr) for _, mod, attr in boundaries if not _resolves(mod, attr)}
    assert missing == GONE


def test_the_names_perfbench_calls_resolve():
    for fn in (hochster.cache_snapshot, hochster.clear_cache, hochster.zk_homology,
               hochster._cache_for, complexes.chi_subcomplexes, cli.run, cli.main):
        assert callable(fn)


def test_the_store_has_a_length_before_the_sweep():
    K = complexes.cycle_complex(5)
    hochster.clear_cache()
    assert len(hochster._cache_for(K, homology.INTEGERS)) == 0
    hochster.zk_homology(K, homology.INTEGERS)
    assert len(hochster._cache_for(K, homology.INTEGERS)) == 1 << K.m
    hochster.clear_cache()
