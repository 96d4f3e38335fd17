"""Output checks: a brute-force join oracle and per-window digests.

Nothing here calls the join, routing or partitioning code under test.
The oracle works on plain dicts (``Document.to_dict()``) and restates
the paper's join predicate directly: two documents join iff they share
at least one attribute and agree on every attribute they share.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence

#: what one window must reproduce: (documents, assignments, join_pairs)
Digest = tuple


def brute_force_pairs(records: Sequence[tuple[int, dict]]) -> set[tuple[int, int]]:
    """All joinable id pairs of one window, by comparing every pair."""
    pairs = set()
    for i, (left_id, left) in enumerate(records):
        for right_id, right in records[i + 1:]:
            shares = False
            for attribute, value in left.items():
                if attribute not in right:
                    continue
                if right[attribute] != value:
                    shares = False
                    break
                shares = True
            if shares:
                pairs.add((min(left_id, right_id), max(left_id, right_id)))
    return pairs


def sample_windows(seed: int, n_windows: int, k: int) -> list[int]:
    """The ``k`` window indices the oracle re-joins, fixed by the seed."""
    return sorted(random.Random(seed).sample(range(n_windows), min(k, n_windows)))


def pair_mismatches(
    windows: Sequence[Sequence], reported: Iterable, sampled: Sequence[int]
) -> list[tuple[int, str]]:
    """Compare the session's collected pairs with the oracle's.

    ``windows`` are the pushed windows (documents with global ids),
    ``reported`` the session's ``join_pairs``.  Tumbling windows never
    join across a boundary, so each sampled window is checked against
    the reported pairs whose ids both fall in it.
    """
    reported = {(min(a, b), max(a, b)) for a, b in reported}
    problems = []
    for index in sampled:
        ids = {doc.doc_id for doc in windows[index]}
        got = {pair for pair in reported if pair[0] in ids and pair[1] in ids}
        expected = brute_force_pairs(
            [(doc.doc_id, doc.to_dict()) for doc in windows[index]]
        )
        if got != expected:
            problems.append(
                (
                    index,
                    f"window {index}: {len(got)} pairs reported, "
                    f"{len(expected)} by brute force "
                    f"({len(expected - got)} missing, {len(got - expected)} extra)",
                )
            )
    return problems


def window_digests(per_window) -> list[Digest]:
    """(documents, assignments, join_pairs) per finalized window."""
    return [
        (w.documents, round(w.replication * w.documents), w.join_pairs)
        for w in per_window
    ]


def digest_mismatches(a: Sequence[Digest], b: Sequence[Digest]) -> list[int]:
    """Indices, over the windows both runs pushed, whose digests differ."""
    return [i for i, (x, y) in enumerate(zip(a, b)) if tuple(x) != tuple(y)]


def digest_hash(digests: Sequence[Digest]) -> str:
    """One line to compare runs by eye or across result files."""
    text = ";".join(",".join(str(v) for v in digest) for digest in digests)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
