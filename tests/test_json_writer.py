"""The report writer of the CLI prints exactly what json.dumps prints.

``cli.emit`` writes ``json.dumps(payload, sort_keys=True, indent=2)``
and a newline.  Its writer streams each row source (``rows.Rows``) 256
rows per write, each row from one template per shape, walks dicts in
sorted key order, and hands every other value to json.dumps itself;
these tests hold it to the text of ``json.dumps`` byte for byte, with
each row source read as its dict rows.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from flagtor import cli, rows

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


def test_a_list_of_many_leaves_is_written_whole():
    # a long list of leaves, as json.dumps writes it, at any depth
    leaves = [n if n % 3 else n % 2 == 0 for n in range(120_000)]
    for obj in [leaves, {"alpha": leaves, "n": 1}, [leaves, {"x": leaves}]]:
        assert "".join(_written(obj)) == json.dumps(obj, sort_keys=True, indent=2)


# the items of each row shape, given its fixed list length n: ints of any
# size and sign, vertex subsets from the empty one to all n vertices,
# empty and nonempty torsion, and coefficients rendered as strings
BIG = st.integers(min_value=-(1 << 70), max_value=1 << 70)


def _items(n):
    alpha = st.lists(st.integers(0, 40), min_size=n, max_size=n).map(tuple)
    subset = st.integers(0, (1 << n) - 1)
    torsion = st.lists(BIG, max_size=4).map(tuple)
    return {
        rows.RANK: st.tuples(alpha, BIG),
        rows.TERM: st.tuples(alpha, BIG | st.fractions().map(str) | st.text()),
        rows.TOR: st.tuples(st.tuples(subset, BIG), st.tuples(BIG, torsion)),
        rows.SUMMAND: st.tuples(st.tuples(subset, BIG), st.tuples(BIG, torsion)),
        rows.SUBSET_COUNT: st.tuples(subset, BIG),
        rows.WORD: st.lists(st.integers(1, n + 1), min_size=n, max_size=n).map(tuple),
        rows.COUNT: st.tuples(alpha, BIG),
    }


SHAPES = list(_items(0))


@st.composite
def _rows(draw):
    shape = draw(st.sampled_from(SHAPES))
    # m = 25 is past the sweep cap, where subsets are rendered without tables
    n = draw(st.sampled_from([1, 24, 25] if shape is not rows.WORD else [0, 1, 3, 24]))
    items = draw(st.lists(_items(n)[shape], max_size=3))
    return shape, n, items, draw(st.integers(0, 5))


@settings(max_examples=300, deadline=None)
@given(_rows())
def test_each_row_template_prints_what_json_dumps_prints(case):
    shape, n, items, depth = case
    text = shape.text(depth, n)
    for item in items:
        row = json.dumps(shape.row(item, n), sort_keys=True, indent=2)
        assert text(item) == row.replace("\n", "\n" + "  " * depth)
    # the whole list, through the writer, at the depth the reports put it
    source = rows.Rows(shape, items.__iter__, n)
    report = {"result": {"rows": source}}
    expected = json.dumps({"result": {"rows": list(source)}}, sort_keys=True, indent=2)
    assert "".join(_written(report)) == expected


def test_an_empty_row_source_is_an_empty_list():
    for shape in SHAPES:
        report = {"rows": rows.Rows(shape, [].__iter__, 3), "n": 0}
        assert "".join(_written(report)) == '{\n  "n": 0,\n  "rows": []\n}'


def test_rows_are_written_in_bounded_batches():
    items = [((J, 1), (J, (2,) * (J % 3))) for J in range(1 << 12)]
    writes = _written({"entries": rows.Rows(rows.TOR, items.__iter__, 12)})
    dicts = [rows.TOR.row(item, 12) for item in items]
    assert "".join(writes) == json.dumps({"entries": dicts}, sort_keys=True, indent=2)
    assert len(writes) > 4
    assert max(map(len, writes)) < len("".join(writes)) / 4
