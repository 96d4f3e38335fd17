"""The unit of data exchanged between topology components."""

from __future__ import annotations

from typing import Any, NamedTuple, Optional


class StreamTuple(NamedTuple):
    """One tuple flowing on a named stream.

    Storm tuples are lists of named values; here ``values`` is an
    arbitrary payload tuple and the stream name identifies its schema.
    ``direct_task`` is set by the producer when the subscriber uses
    direct grouping.
    """

    stream: str
    values: tuple[Any, ...]
    source: str
    source_task: int
    direct_task: Optional[int] = None


# Addressed deliveries -------------------------------------------------
#
# Executors queue, buffer and journal *entries*: ``(component,
# task_index, tup, mask)``.  ``mask`` is the bitmask of the component's
# task indices the tuple is addressed to — a fan-out travels as one
# entry per executor, not one per task — and ``task_index`` is its
# lowest set bit.  A per-task delivery is the one-bit mask.


def lowest_owner(mask: int) -> int:
    """Index of the lowest set bit of a non-zero ``mask``."""
    return (mask & -mask).bit_length() - 1


def owners_of(mask: int) -> list[int]:
    """The task indices ``mask`` names, ascending."""
    owners = []
    while mask:
        low = mask & -mask
        owners.append(low.bit_length() - 1)
        mask ^= low
    return owners


def task_masks(keys) -> dict[str, int]:
    """``(component, task_index)`` keys as component -> task bitmask."""
    masks: dict[str, int] = {}
    for component, task_index in keys:
        masks[component] = masks.get(component, 0) | 1 << task_index
    return masks
