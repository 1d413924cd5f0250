"""Hypothesis helpers shared by the document fuzz tests: JSON values to put
in a document, and a document mutated by a few drops and replacements and
possibly cut short."""

from __future__ import annotations

import json

from hypothesis import strategies as st

# JSON values a field may be replaced with, integers beyond every float and
# machine-integer range included.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.sampled_from([2**63, 2**64, -(2**63) - 1, 10**400])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """The key or index path of every value inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, op, value):
    """A copy of doc with the value at path dropped or replaced."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if op == "drop":
        del parent[last]
    else:
        parent[last] = value
    return doc


def mutated_text(data, doc) -> str:
    """doc as JSON text after 1-3 drawn edits, possibly cut short."""
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        paths = [(), *_paths(doc)]
        path = data.draw(st.sampled_from(paths), label="path")
        op = data.draw(st.sampled_from(["drop", "replace"]) if path else st.just("replace"), label="op")
        doc = _mutate(doc, path, op, data.draw(VALUES, label="value") if op == "replace" else None)
    text = json.dumps(doc)
    cut = data.draw(st.none() | st.integers(0, len(text)), label="cut")
    return text if cut is None else text[:cut]
