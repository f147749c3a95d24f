"""Row sources: the long per-multidegree lists of a CLI report.

The paper's results are tables with one row per multidegree: the
homotopy ranks and the series terms per alpha, Tor and the generator and
relation counts per vertex subset J.  A report holds each such list as a
``Rows``: the library's items in output order and the ``Shape`` of their
rows.  A row source gives its text 256 rows at a time, each row from one
``%`` template per shape, built once per report for the row's depth and
its fixed list length, so that no list is held whole, as text or as
dicts.  The text is that of ``json.dumps(rows, sort_keys=True,
indent=2)`` at the list's depth.
"""

from __future__ import annotations

import json
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add

from .complexes import verts_of

_ROWS_PER_TEXT = 1 << 8  # rows of a row source per piece of its text


def layout(depth):
    """The layout of a container at ``depth`` as json.dumps(indent=2)
    prints it: the newline and indent before an item, the separator
    between items, and the text before the closing bracket."""
    inner = "\n" + "  " * (depth + 1)
    return inner, "," + inner, inner[:-2]


class Shape:
    """The one place that knows the keys of one kind of report row.

    ``fields`` lists the row's keys, each with its kind, in the order of
    the row's dict form, which ``--out table`` prints; ``raw(item)`` gives
    the raw values of one library item in that order (by default the
    item, a tuple, is its values).  A shape with no fields is a row that
    is itself a list of n ints, given as the item, a tuple.

    The kinds, by raw value: "int", an int, one %d slot; "str", a str,
    JSON-encoded into one %s slot; "ints", a tuple of n ints, n fixed per
    report (m, or a word length); "list", a tuple of ints of any length;
    "J", a vertex subset as a bitmask, its vertex list in the row; "2J",
    a vertex subset J, the lambda of the multidegree (-|J|, 2J) in the
    row.  An "ints" tuple fills n %d slots, and each of the other kinds
    but "int" one %s slot with its text.
    """

    def __init__(self, fields, raw=tuple):
        self.fields, self.raw = fields, raw

    def text(self, depth, n):
        """item -> the text of its row at ``depth``: one template, built
        here with its slots in sorted key order, % one tuple of the item's
        values, made by one function that is also built here.  An "int"
        goes straight to its %d slot and an "ints" tuple to its n %d
        slots; only the other kinds call their text function."""
        if not self.fields:
            return _ints_template(n, depth).__mod__
        inner, sep, close = layout(depth)
        slots, args, scope = [], [], {"raw": self.raw}
        for i, (key, kind) in sorted(enumerate(self.fields), key=lambda f: f[1][0]):
            if kind == "int":
                slot, arg = "%d", f"v[{i}]"
            elif kind == "ints":
                slot, arg = _ints_template(n, depth + 1), f"*v[{i}]"
            else:
                scope[f"text{i}"] = _TEXTS[kind](n, depth + 1)
                slot, arg = "%s", f"text{i}(v[{i}])"
            slots.append(json.dumps(key) + ": " + slot)
            args.append(arg)
        scope["template"] = "{" + inner + sep.join(slots) + close + "}"
        # built from source, so that a row costs this call and raw's, not
        # one call per field
        exec("def text(item):\n    v = raw(item)\n"
             f"    return template % ({', '.join(args)},)", scope)
        return scope["text"]

    def row(self, item, n):
        """The row of an item as a dict."""
        if not self.fields:
            return list(item)
        return {key: _VALUES[kind](v, n)
                for (key, kind), v in zip(self.fields, self.raw(item))}


class Rows:
    """A row source: a long list of a report, as the library's items in
    output order and the shape of their rows.

    ``items`` is a function of no arguments that returns the items, so a
    source can be walked more than once; ``n`` is the length of the
    shape's "ints" lists and the number of vertices of its subsets.
    ``texts`` gives the list's text a batch of rows at a time; iterating
    gives the rows as dicts.

    A row source only formats.  Each handler finishes its sweep and checks
    its series and word budgets before it returns, so every error comes
    before the first byte of stdout.
    """

    def __init__(self, shape, items, n=0):
        self.shape, self.items, self.n = shape, items, n

    def __iter__(self):
        return map(self.shape.row, self.items(), repeat(self.n))

    def texts(self, depth):
        """The text of the list at ``depth``, in pieces of up to
        ``_ROWS_PER_TEXT`` rows."""
        inner, sep, close = layout(depth)
        return _pieces(self.shape.text(depth + 1, self.n), self.items(),
                       "[" + inner, sep, close + "]")

    def reprs(self):
        """The repr of the list of its rows' dicts, in pieces of up to
        ``_ROWS_PER_TEXT`` rows."""
        return _pieces(repr, self, "[", ", ", "]")


def _pieces(text, items, opening, sep, close):
    """The text of a list, ``text(item)`` per item, in pieces of up to
    ``_ROWS_PER_TEXT`` items; an empty list is "[]"."""
    items = iter(items)
    # an item's text is never empty: an empty batch is the end
    while batch := sep.join(map(text, islice(items, _ROWS_PER_TEXT))):
        yield opening + batch
        opening = sep
    yield close if opening is sep else "[]"


def _doubled(alpha):
    """The lambda of the multidegree (-|alpha|, 2 alpha): the one place
    where exponents are doubled."""
    return tuple(map(add, alpha, alpha))


def _bits(x, width):
    """The indicator vector of the low ``width`` bits of x."""
    return [x >> k & 1 for k in range(width)]


def _ints_template(n, depth):
    """The template of a tuple of n ints at ``depth``: one %d slot per int."""
    if not n:
        return "[]"
    inner, sep, close = layout(depth)
    return "[" + inner + sep.join(["%d"] * n) + close + "]"


def _list_text(n, depth):
    """A tuple of ints of any length -> its text at ``depth``."""
    inner, sep, close = layout(depth)
    return lambda o: "[" + inner + sep.join(map(str, o)) + close + "]" if o else "[]"


def _subset_list_text(m, depth, labels):
    """A vertex subset J < 2^m -> the text at ``depth`` of the list
    labels(J, 0, m), where labels(x, offset, width) gives the labels of
    the ``width`` bits of x that stand for the vertices offset + 1, ...

    Only the reports of a 2^m sweep hold a row per J, so m is at most the
    sweep cap, and the text is read off two tables: the labels of the low
    h = m // 2 bits of J, and those of its high bits, each label followed
    by the separator.  At m = 20 that writes ``tor`` and ``gens-rels``
    2.2-3.5 times as fast as rendering each J on its own."""
    inner, sep, close = layout(depth)
    cut = -len(sep)

    def items(x, offset, width):
        return "".join(label + sep for label in labels(x, offset, width))

    def text(body):
        return "[" + inner + body[:cut] + close + "]" if body else "[]"
    h = m // 2
    low = [items(x, 0, h) for x in range(1 << h)]
    high = [items(x, h, m - h) for x in range(1 << (m - h))]
    mask = (1 << h) - 1
    return lambda J: text(low[J & mask] + high[J >> h])


def _subset_text(m, depth):
    """A vertex subset J < 2^m -> the text of its vertex list at ``depth``."""
    return _subset_list_text(m, depth, lambda x, offset, width: map(
        str, verts_of(x << offset)))


def _lambda_text(m, depth):
    """A vertex subset J < 2^m -> the text at ``depth`` of the lambda of
    the multidegree (-|J|, 2J)."""
    return _subset_list_text(m, depth, lambda x, offset, width: map(
        str, _doubled(_bits(x, width))))


# kind -> its dict form: (raw value, n) -> value
_VALUES = {
    "int": lambda v, n: v,
    "str": lambda v, n: v,
    "ints": lambda v, n: list(v),
    "list": lambda v, n: list(v),
    "J": lambda J, n: list(verts_of(J)),
    "2J": lambda J, n: list(_doubled(_bits(J, n))),
}
# kind of a %s slot -> its text: (n, depth) -> raw value -> text
_TEXTS = {"str": lambda n, depth: encode_basestring_ascii, "list": _list_text,
          "J": _subset_text, "2J": _lambda_text}


def _rank_fields(item):
    alpha, rank = item
    return -sum(alpha), _doubled(alpha), alpha, rank


def _term_fields(item):
    alpha, coefficient = item
    return -sum(alpha), _doubled(alpha), str(coefficient)


def _tor_fields(item):
    (J, n), (rank, torsion) = item
    return n, -J.bit_count(), J, J, rank, torsion


def _summand_fields(item):
    (J, p), (rank, torsion) = item
    return J, p, rank, torsion


# the shapes of the rows of long report lists, by their items:
# ranks: (alpha, rank); series terms: (alpha, coefficient); tor entries:
# ((J, n), (rank, torsion)); zk- and rk-homology summands: ((J, p), (rank,
# torsion)); gens-rels: (J, count); koszul-dual words: a word, and counts:
# (alpha, count)
RANK = Shape((("t", "int"), ("lambda", "ints"), ("alpha", "ints"), ("rank", "int")),
             _rank_fields)
TERM = Shape((("t", "int"), ("lambda", "ints"), ("coefficient", "str")), _term_fields)
TOR = Shape((("n", "int"), ("t", "int"), ("lambda", "2J"), ("J", "J"), ("rank", "int"),
             ("torsion", "list")), _tor_fields)
SUMMAND = Shape((("J", "J"), ("p", "int"), ("rank", "int"), ("torsion", "list")),
                _summand_fields)
SUBSET_COUNT = Shape((("J", "J"), ("count", "int")))
WORD = Shape(())
COUNT = Shape((("alpha", "ints"), ("count", "int")))
