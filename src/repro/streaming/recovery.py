"""Recovery primitives: restart policies and dead-letter quarantine.

The executors' failure story has three levels (see
``docs/fault_tolerance.md``):

* **Retry** — ``max_retries`` redeliveries of a failing tuple to the
  same task (Storm-style at-least-once, in both backends).
* **Quarantine** — with a :class:`DeadLetterQueue` configured, a tuple
  that exhausts its retry budget is recorded and *skipped* instead of
  aborting the run.
* **Restart** — the parallel backend replaces a dead worker process
  under a :class:`RestartPolicy` and replays the current window's
  journaled batches into the replacement; on budget exhaustion it
  either aborts (:class:`~repro.exceptions.WorkerCrashError`) or
  degrades: respawns the dead worker onto an in-process link.
"""

from __future__ import annotations

import random
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

#: how many quarantined tuples a queue retains by default (the *count*
#: keeps growing past this; only the entries themselves are bounded)
DEFAULT_DEAD_LETTER_LIMIT = 1000

#: truncation bound for the stored tuple repr of a dead letter
_VALUES_REPR_LIMIT = 200


@dataclass(frozen=True)
class RestartPolicy:
    """Governs worker replacement in the parallel backend.

    ``max_restarts_per_window`` bounds how often one worker may be
    replaced within a single window (the budget resets at every flush
    barrier, i.e. window end).  Backoff before the ``k``-th restart is
    ``min(backoff_base_s * backoff_factor**k, backoff_max_s)``, inflated
    by up to ``jitter`` (a fraction, drawn from a ``seed``-ed RNG so runs
    stay reproducible).  On budget exhaustion, ``degrade=True`` respawns
    the dead worker into the parent process instead of aborting.
    """

    max_restarts_per_window: int = 2
    backoff_base_s: float = 0.01
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    jitter: float = 0.1
    seed: int = 0
    degrade: bool = False

    def __post_init__(self) -> None:
        if self.max_restarts_per_window < 0:
            raise ValueError(
                f"max_restarts_per_window must be >= 0, "
                f"got {self.max_restarts_per_window}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before restart number ``attempt`` (0-based)."""
        base = min(
            self.backoff_base_s * self.backoff_factor**attempt,
            self.backoff_max_s,
        )
        if self.jitter:
            base *= 1.0 + rng.random() * self.jitter
        return base


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined tuple: where it failed and why.

    All fields are plain strings/ints so a dead letter produced inside a
    worker process crosses the reply link without pickling surprises.
    """

    component: str
    task_index: int
    stream: str
    attempts: int
    cause: str
    traceback: str = ""
    values_repr: str = ""
    worker: Optional[int] = None
    batch_seq: Optional[int] = None


class DeadLetterQueue:
    """Bounded store of quarantined tuples.

    ``total`` counts every quarantined tuple for the whole run (this is
    what ``stats()["dead_letters"]`` reports); ``entries`` retains only
    the newest ``limit`` records to keep memory bounded under a
    pathological poison stream.  ``limit=None`` retains everything.
    """

    def __init__(self, limit: Optional[int] = DEFAULT_DEAD_LETTER_LIMIT):
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1 or None, got {limit}")
        self.limit = limit
        self.total = 0
        self._entries: deque[DeadLetter] = deque(maxlen=limit)

    def record(self, letter: DeadLetter) -> None:
        self.total += 1
        self._entries.append(letter)

    @property
    def entries(self) -> tuple[DeadLetter, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(self._entries)

    def __bool__(self) -> bool:  # an empty queue is still "configured"
        return True


def format_dead_letter_cause(exc: Exception) -> tuple[str, str]:
    """``(repr, formatted traceback)`` of a quarantined tuple's cause,
    as caught."""
    return repr(exc), "".join(traceback.format_exception(exc))


def truncated_repr(values: object, limit: int = _VALUES_REPR_LIMIT) -> str:
    """A bounded repr of tuple values for dead-letter records."""
    text = repr(values)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text
