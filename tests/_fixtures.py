"""Complexes shared by several test modules, stored under ``tests/data``."""

import json
from pathlib import Path

from flagtor import complexes

DATA = Path(__file__).resolve().parent / "data"

# a 12-vertex flag triangulation of RP^2: small enough to sweep, and its
# full subcomplexes carry 2-torsion
RP2_FLAG12 = DATA / "rp2_flag12.json"

# one facet of 21 vertices: one past complexes.MAX_FACET_VERTICES
FACET21 = DATA / "facet21.json"


def rp2_flag12():
    data = json.loads(RP2_FLAG12.read_text())
    return complexes.from_facets(data["m"], data["facets"])
