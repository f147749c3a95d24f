"""Shared test setup.

K's memo (``complexes.tables``) outlives a test, and so do the verdicts
it holds: a value built while a test had a library function patched
would be read back by the next test on an equal complex.  Every test
that patches through ``monkeypatch`` therefore starts and ends with an
empty memo.
"""

import pytest

from flagtor import hochster


@pytest.fixture(autouse=True)
def _empty_memo_around_monkeypatch(request):
    patches = "monkeypatch" in request.fixturenames
    if patches:
        hochster.clear_cache()
    yield
    if patches:
        hochster.clear_cache()
