"""The report writer of the CLI prints exactly what json.dumps prints.

``cli.emit`` writes ``json.dumps(payload, sort_keys=True, indent=2)``
and a newline, but through its own walk, which hands lists of leaves to
the C encoder and writes in batches; these tests hold it to the text of
``json.dumps`` byte for byte.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from flagtor import cli

LEAVES = st.integers() | st.text() | st.booleans() | st.none()
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)
                      | st.lists(st.integers() | st.booleans())),
    max_leaves=60)


def _written(obj):
    writes = []
    cli._write_json(obj, writes.append)
    return writes


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
def test_writer_matches_json_dumps(obj):
    assert "".join(_written(obj)) == json.dumps(obj, sort_keys=True, indent=2)


def test_writer_corner_cases():
    for obj in [
        True, None, "é\x00\n\"", [], {}, [[]], {"a": {}}, [True, 1, False, 0],
        {"b": [], "a": [[], {}]}, {2: "x", 10: True}, {True: 1, False: 2}, {None: 0},
        [1.5, 2], {"x": 1.5}, (1, (2, "3")), {"☃": ["☃", None]},
    ]:
        assert "".join(_written(obj)) == json.dumps(obj, sort_keys=True, indent=2)


def test_long_lists_are_written_in_bounded_batches():
    rows = [{"J": [1, 2], "n": n, "ok": n % 2 == 0} for n in range(5000)]
    obj = {"rows": rows, "total": len(rows)}
    writes = _written(obj)
    assert "".join(writes) == json.dumps(obj, sort_keys=True, indent=2)
    assert len(writes) > 3
    # each write holds at most one batch of chunks, a few per row
    assert max(map(len, writes)) < len("".join(writes)) / 3


def test_a_list_of_many_leaves_is_written_whole():
    # the C encoder returns a long list's text in several strings
    leaves = [n if n % 3 else n % 2 == 0 for n in range(120_000)]
    for obj in [leaves, {"alpha": leaves, "n": 1}, [leaves, {"x": leaves}]]:
        assert "".join(_written(obj)) == json.dumps(obj, sort_keys=True, indent=2)
