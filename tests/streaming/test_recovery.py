"""Unit tests for the recovery primitives and the fault-injection DSL.

Pure in-process tests (no forking) — these run in tier-1; the forked
end-to-end scenarios live in ``test_chaos.py``.
"""

import random

import pytest

from repro.faults import FaultPlan, InjectedFault
from repro.streaming.recovery import (
    DeadLetter,
    DeadLetterQueue,
    RestartPolicy,
    truncated_repr,
)


class TestRestartPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RestartPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3, jitter=0.0
        )
        rng = random.Random(0)
        assert policy.delay(0, rng) == pytest.approx(0.1)
        assert policy.delay(1, rng) == pytest.approx(0.2)
        assert policy.delay(2, rng) == pytest.approx(0.3)  # capped
        assert policy.delay(5, rng) == pytest.approx(0.3)

    def test_jitter_inflates_within_bound_and_is_seeded(self):
        policy = RestartPolicy(backoff_base_s=1.0, backoff_max_s=1.0, jitter=0.5)
        delays = [policy.delay(0, random.Random(42)) for _ in range(3)]
        assert delays[0] == delays[1] == delays[2]  # same seed, same delay
        assert 1.0 <= delays[0] <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts_per_window=-1)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            RestartPolicy(jitter=-1.0)


class TestDeadLetterQueue:
    def _letter(self, i: int) -> DeadLetter:
        return DeadLetter(
            component="joiner", task_index=i, stream="assigned",
            attempts=1, cause="RuntimeError('boom')",
        )

    def test_total_outlives_the_retention_limit(self):
        queue = DeadLetterQueue(limit=3)
        for i in range(10):
            queue.record(self._letter(i))
        assert queue.total == 10
        assert len(queue) == 3
        assert [letter.task_index for letter in queue] == [7, 8, 9]

    def test_unbounded_retention(self):
        queue = DeadLetterQueue(limit=None)
        for i in range(5):
            queue.record(self._letter(i))
        assert len(queue.entries) == 5

    def test_configured_empty_queue_is_truthy(self):
        # executors test ``dead_letters is not None`` semantics via bool
        assert bool(DeadLetterQueue())

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            DeadLetterQueue(limit=0)

    def test_truncated_repr_bounds_payloads(self):
        text = truncated_repr(("x" * 1000,), limit=50)
        assert len(text) == 50
        assert text.endswith("...")


class TestFaultPlan:
    def test_empty_plan_is_inert(self):
        assert FaultPlan().empty
        assert not FaultPlan().kill_worker(0, after_batches=1).empty

    def test_builders_are_pure(self):
        base = FaultPlan()
        derived = base.raise_in("joiner", nth=1)
        assert base.empty and not derived.empty

    def test_nth_is_one_based(self):
        with pytest.raises(ValueError):
            FaultPlan().raise_in("joiner", nth=0)

    def test_kill_rule_scoped_to_worker_and_incarnation(self):
        plan = FaultPlan().kill_worker(1, after_batches=2, exit_code=7)
        runtime = plan.runtime(worker_index=1, incarnation=0)
        assert runtime.kill_on_batch() is None  # batch 1
        assert runtime.kill_on_batch() is None  # batch 2
        assert runtime.kill_on_batch() == 7  # batch 3: boom
        # other workers and later incarnations are untouched
        assert plan.runtime(worker_index=0).kill_on_batch() is None
        replacement = plan.runtime(worker_index=1, incarnation=1)
        for _ in range(5):
            assert replacement.kill_on_batch() is None

    def test_raise_rule_counts_first_attempts_only(self):
        plan = FaultPlan().raise_in("joiner", nth=2, sticky=False)
        runtime = plan.runtime()
        runtime.check_raise("joiner", "assigned", first_attempt=True)
        # a retry of delivery 1 does not advance the count
        runtime.check_raise("joiner", "assigned", first_attempt=False)
        with pytest.raises(InjectedFault):
            runtime.check_raise("joiner", "assigned", first_attempt=True)
        # non-sticky: the same delivery passes on retry
        runtime.check_raise("joiner", "assigned", first_attempt=False)

    def test_sticky_rule_refires_on_the_poison_key_only(self):
        plan = FaultPlan().raise_in("joiner", nth=1)
        runtime = plan.runtime()
        with pytest.raises(InjectedFault):
            runtime.check_raise("joiner", "assigned", first_attempt=True)
        with pytest.raises(InjectedFault):  # retry of the poison delivery
            runtime.check_raise("joiner", "assigned", first_attempt=False)
        # other deliveries pass; the rule fired already
        runtime.check_raise("joiner", "assigned", first_attempt=True)

    def test_stream_filter(self):
        plan = FaultPlan().raise_in("joiner", nth=1, stream="assigned")
        runtime = plan.runtime()
        runtime.check_raise("joiner", "partitions", first_attempt=True)
        with pytest.raises(InjectedFault):
            runtime.check_raise("joiner", "assigned", first_attempt=True)

    def test_ack_delays_accumulate_per_matching_rule(self):
        plan = FaultPlan().delay_acks(0, seconds=0.5, every=2)
        runtime = plan.runtime(worker_index=0)
        assert runtime.ack_delay() == 0.0  # ack 1
        assert runtime.ack_delay() == 0.5  # ack 2
        assert runtime.ack_delay() == 0.0  # ack 3
        other = plan.runtime(worker_index=1)
        assert other.ack_delay() == 0.0
        assert other.ack_delay() == 0.0
