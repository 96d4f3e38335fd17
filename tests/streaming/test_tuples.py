"""Addressed entries: masks and their owners."""

from hypothesis import given
from hypothesis import strategies as st

from repro.streaming.tuples import lowest_owner, owners_of, task_masks

TASKS = 6
MASKS = st.integers(1, (1 << TASKS) - 1)


@given(mask=MASKS)
def test_owners_are_the_set_bits_ascending(mask):
    owners = owners_of(mask)
    assert owners == sorted(owners) == [i for i in range(TASKS) if mask >> i & 1]
    assert lowest_owner(mask) == owners[0]
    assert sum(1 << owner for owner in owners) == mask


def test_task_masks_collect_keys_per_component():
    keys = [("joiner", 2), ("other", 0), ("joiner", 0)]
    assert task_masks(keys) == {"joiner": 0b101, "other": 0b1}
    assert task_masks([]) == {}


def test_the_split_does_not_import_the_runtime():
    import ast
    import inspect

    import repro.streaming.tuples as module

    tree = ast.parse(inspect.getsource(module))
    imported = [
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ] + [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert not [name for name in imported if name.startswith("repro")]
