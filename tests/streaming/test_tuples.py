"""Addressed entries: masks, owners and migration's book split.

``split_entries`` is what a live migration does to a worker's journal
and sticky history when some of its tasks move: the property below holds
it to the per-task meaning — cutting mask entries by a key set and then
expanding both halves per owner gives exactly the per-task deliveries
one gets by expanding first and filtering, in the same order.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.streaming.tuples import (
    StreamTuple,
    lowest_owner,
    owners_of,
    split_entries,
)

TASKS = 6
COMPONENTS = ("joiner", "other")

MASKS = st.integers(1, (1 << TASKS) - 1)
ENTRIES = st.lists(
    st.tuples(st.sampled_from(COMPONENTS), MASKS, st.integers(0, 3)).map(
        lambda item: (
            item[0],
            lowest_owner(item[1]),
            StreamTuple("s", (item[2],), "src", 0),
            item[1],
        )
    ),
    max_size=30,
)
MOVING = st.dictionaries(
    st.sampled_from(COMPONENTS), st.integers(0, (1 << TASKS) - 1)
)


def expand(entries):
    """One ``(component, task, tuple)`` delivery per addressed task."""
    return [
        (component, owner, tup)
        for component, _lowest, tup, mask in entries
        for owner in owners_of(mask)
    ]


@given(mask=MASKS)
def test_owners_are_the_set_bits_ascending(mask):
    owners = owners_of(mask)
    assert owners == sorted(owners) == [i for i in range(TASKS) if mask >> i & 1]
    assert lowest_owner(mask) == owners[0]
    assert sum(1 << owner for owner in owners) == mask


@given(entries=ENTRIES, moving=MOVING)
def test_split_then_expand_equals_expand_then_filter(entries, moving):
    kept, moved = split_entries(entries, moving)

    def moves(component, owner):
        return bool(moving.get(component, 0) >> owner & 1)

    deliveries = expand(entries)
    assert expand(moved) == [d for d in deliveries if moves(d[0], d[1])]
    assert expand(kept) == [d for d in deliveries if not moves(d[0], d[1])]
    for component, lowest, _tup, mask in kept + moved:
        assert mask and lowest == lowest_owner(mask)
    # assignments are conserved: what the byte share is divided by
    assert sum(e[3].bit_count() for e in kept + moved) == sum(
        e[3].bit_count() for e in entries
    )


def test_unsplit_entries_keep_their_identity():
    """Entries wholly on one side are passed through, not rebuilt."""
    tup = StreamTuple("s", (1,), "src", 0)
    stays, goes, both = ("c", 0, tup, 0b01), ("c", 1, tup, 0b10), ("c", 0, tup, 0b11)
    kept, moved = split_entries([stays, goes, both], {"c": 0b10})
    assert kept[0] is stays and moved[0] is goes
    assert kept[1] == ("c", 0, tup, 0b01) and moved[1] == ("c", 1, tup, 0b10)


def test_the_split_does_not_import_the_runtime():
    import ast
    import inspect

    import repro.streaming.tuples as module

    tree = ast.parse(inspect.getsource(module))
    imported = [
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ] + [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert not [name for name in imported if name.startswith("repro")]
