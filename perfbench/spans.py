"""Spans recorded around calls into flagtor's modules, from outside the package.

Each boundary function is wrapped where its callers look it up: every
flagtor module attribute bound to the function is rebound to the wrapper
(``hochster`` calls ``homology._profile_restricted`` through the module,
``homology`` calls its own imported ``snf_columns``), and methods are
wrapped on their class.  Spans are kept in flat arrays in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct child spans.

A boundary that a later version of flagtor no longer has is skipped and
listed in ``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (span name, flagtor module, attribute); "Class.method" wraps a method.
BOUNDARIES = [
    ("exact_linalg.snf", "exact_linalg", "snf_columns"),
    ("exact_linalg.gf2", "exact_linalg", "rank_gf2_columns"),
    ("exact_linalg.fp", "exact_linalg", "rank_mod_p_columns"),
    ("exact_linalg.q", "exact_linalg", "rank_rational_columns"),
    ("homology.subsets", "homology", "_profile_restricted"),
    ("homology.geometry", "homology", "ComplexGeometry.__init__"),
    ("hochster.sweep", "hochster", "subcomplex_profiles"),
    ("hochster.assemble", "hochster", "_assemble"),
    ("pontryagin.koszul_slice", "pontryagin", "koszul_slice"),
    ("pontryagin.slice_homology", "pontryagin", "_slice_homology"),
    ("pontryagin.tor_table", "pontryagin", "tor_via_subcomplexes"),
    ("pontryagin.normal_words", "pontryagin", "normal_word_counts"),
    ("pontryagin.cobar_ext", "pontryagin", "cobar_ext"),
    ("series.mul", "series", "MultiSeries.mul"),
    ("series.inverse", "series", "MultiSeries.inverse"),
    ("series.neg_log", "series", "MultiSeries.neg_log"),
    ("series.homotopy_ranks", "series", "homotopy_ranks"),
    ("series.pbw_reconstruct", "series", "pbw_reconstruct"),
    ("lscat.links", "lscat", "cat_via_links"),
    ("lscat.toomer", "lscat", "toomer_report"),
    ("lscat.cup_search", "lscat", "cup_witness_search"),
    ("complexes.is_flag", "complexes", "is_flag"),
    ("complexes.chi_subcomplexes", "complexes", "chi_subcomplexes"),
    ("cli.cache_load", "cli", "_load_disk_cache"),
    ("cli.cache_save", "cli", "_save_disk_cache"),
    ("cli.emit", "cli", "emit"),
]


def _snf_nnz(tr, args, kwargs):
    columns = args[0] if args else kwargs.get("columns")
    if isinstance(columns, list):
        tr.counts["exact_linalg.snf.nnz"] += sum(len(c) for c in columns)


def _sweep_requested(tr, args, kwargs):
    """Subsets a sweep asks for, and how many its memory cache already holds."""
    hochster = sys.modules["flagtor.hochster"]
    K, coeff = args[0], args[1] if len(args) > 1 else kwargs["coeff"]
    tr.counts["hochster.subsets_requested"] += 1 << K.m
    cache_for = getattr(hochster, "_cache_for", None)
    if cache_for is not None:
        tr.counts["hochster.memo_hits"] += len(cache_for(K, coeff))


def _koszul_basis(tr, args, kwargs, result):
    tr.counts["pontryagin.koszul_slice.basis"] += sum(len(b) for b in result[0].values())


def _cache_bytes(tr, args, kwargs, result):
    cli = sys.modules["flagtor.cli"]
    path = cli._cache_path(*args)
    if os.path.exists(path):
        tr.counts["cli.cache_bytes"] += os.path.getsize(path)


STORE_SAMPLE = 1024

BEFORE = {"exact_linalg.snf": _snf_nnz, "hochster.sweep": _sweep_requested}
AFTER = {"pontryagin.koszul_slice": _koszul_basis, "cli.cache_save": _cache_bytes}


def deep_size(obj, seen):
    """Bytes of obj and everything it holds, each object counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for k, v in obj.items():
            size += deep_size(k, seen) + deep_size(v, seen)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for x in obj:
            size += deep_size(x, seen)
    elif hasattr(obj, "__dict__"):
        size += deep_size(vars(obj), seen)
    return size


class Tracer:
    """Span recorder; spans are recorded only while ``active`` is true."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = defaultdict(float)
        self.current_job = -1
        self.active = False
        self.missing = []
        self._stack = []
        self._undo = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrapper(self, fn, name):
        nid = self._name_id(name)
        before, after = BEFORE.get(name), AFTER.get(name)
        stack, names, parents, jobs = self._stack, self.name, self.parent, self.job
        t0s, t1s = self.t0, self.t1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args, kwargs)
            i = len(t0s)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            t1s.append(0.0)
            stack.append(i)
            t0s.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every boundary in BOUNDARIES; flagtor must be imported."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "flagtor" or k.startswith("flagtor."))]
        for name, modname, attr in BOUNDARIES:
            mod = sys.modules.get(f"flagtor.{modname}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = (owner.__dict__.get(meth) if isinstance(owner, type)
                  else getattr(owner, meth, None))
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrapper(fn, name)
            if isinstance(owner, type):
                self._undo.append((owner, meth, fn))
                setattr(owner, meth, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def measure_stores(self):
        """Add the bytes and subsets held by flagtor's profile stores.

        Bytes per entry are estimated from up to STORE_SAMPLE evenly spaced
        entries of each store, so the cost stays small at m = 15."""
        hochster = sys.modules.get("flagtor.hochster")
        stores = getattr(hochster, "_CACHE", None)
        if not isinstance(stores, dict):
            return
        for store in stores.values():
            if not store:
                continue
            items = list(store.items())
            sample = items[::max(1, len(items) // STORE_SAMPLE)]
            seen = set()
            per_entry = sum(deep_size(k, seen) + deep_size(v, seen)
                            for k, v in sample) / len(sample)
            self.counts["hochster.store_bytes"] += sys.getsizeof(store) + per_entry * len(items)
            self.counts["hochster.store_subsets"] += len(items)

    def dump(self):
        return {"names": self.names, "name": self.name.tolist(),
                "parent": self.parent.tolist(), "job": self.job.tolist(),
                "t0": self.t0.tolist(), "t1": self.t1.tolist(),
                "counts": dict(self.counts), "missing": self.missing}

    def merge(self, data, job):
        """Append spans dumped by another process, as part of one job."""
        offset = len(self.t0)
        ids = [self._name_id(n) for n in data["names"]]
        self.name.extend(ids[i] for i in data["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.job.extend(job for _ in data["job"])
        self.t0.extend(data["t0"])
        self.t1.extend(data["t1"])
        for k, v in data["counts"].items():
            self.counts[k] += v
        for n in data["missing"]:
            if n not in self.missing:
                self.missing.append(n)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump(self.dump(), fh)

    def totals(self):
        """name -> {"calls", "s", "self_s"} over every recorded span."""
        n = len(self.t0)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.t1[i] - self.t0[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            d = self.t1[i] - self.t0[i]
            agg["calls"] += 1
            agg["s"] += d
            agg["self_s"] += d - child[i]
        return out
