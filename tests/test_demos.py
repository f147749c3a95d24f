"""Every narrative script in ``demos/`` runs to the end on this tree."""

from pathlib import Path

import pytest
from _cli import python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    r = python(str(demo))
    assert r.returncode == 0, r.stderr
