"""Unit tests for the pure elastic decision logic.

The controller is consulted once per completed window barrier with one
:class:`WorkerLoad` per live worker; everything here runs on synthetic
loads — no worker processes, no transport.
"""

import pytest

from repro.exceptions import TopologyError
from repro.streaming.elastic import (
    Decision,
    ElasticController,
    ElasticPolicy,
    WorkerLoad,
)


def _load(worker, tasks, task_docs):
    return WorkerLoad(
        worker=worker,
        tasks=tuple(tasks),
        task_docs=tuple(task_docs),
        docs=sum(docs for _key, docs in task_docs),
    )


def _even_pair():
    """Two workers with two tasks each, evenly loaded."""
    return [
        _load(0, [("J", 0), ("J", 2)], [(("J", 0), 50), (("J", 2), 50)]),
        _load(1, [("J", 1), ("J", 3)], [(("J", 1), 50), (("J", 3), 50)]),
    ]


def _skewed_pair(hot_docs=900, cold_docs=50):
    """Worker 0 drowning on task ("J", 0), worker 1 nearly idle."""
    return [
        _load(0, [("J", 0), ("J", 2)], [(("J", 0), hot_docs), (("J", 2), 10)]),
        _load(1, [("J", 1), ("J", 3)], [(("J", 1), cold_docs), (("J", 3), 0)]),
    ]


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = ElasticPolicy()
        assert policy.min_workers == 1
        assert policy.max_workers == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_workers": 0},
            {"min_workers": 4, "max_workers": 2},
            {"hot_share": 0.0},
            {"hot_share": 1.5},
            {"cold_share": -0.1},
            {"cold_share": 0.7, "hot_share": 0.6},
            {"cooldown_windows": -1},
            {"force": ((1,),)},
            {"force": (("1", "up"),)},
            {"force": ((1, "sideways"),)},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(TopologyError):
            ElasticPolicy(**kwargs)

    def test_policy_is_hashable(self):
        """Frozen policies key experiment caches."""
        a = ElasticPolicy(min_workers=2, max_workers=4, force=((0, "up"),))
        b = ElasticPolicy(min_workers=2, max_workers=4, force=((0, "up"),))
        assert hash(a) == hash(b)


class TestOrganicScaleUp:
    def test_hot_worker_sheds_its_hottest_task(self):
        controller = ElasticController(ElasticPolicy(max_workers=4))
        decision = controller.decide(0, _skewed_pair())
        assert decision is not None
        assert decision.kind == "up"
        assert decision.source == 0
        assert decision.keys == (("J", 0),)
        assert decision.target is None

    def test_even_load_stays_put(self):
        controller = ElasticController(ElasticPolicy(max_workers=4))
        assert controller.decide(0, _even_pair()) is None

    def test_max_workers_caps_the_pool(self):
        controller = ElasticController(ElasticPolicy(max_workers=2))
        assert controller.decide(0, _skewed_pair()) is None

    def test_single_task_worker_cannot_split(self):
        loads = [
            _load(0, [("J", 0)], [(("J", 0), 900)]),
            _load(1, [("J", 1)], [(("J", 1), 10)]),
        ]
        controller = ElasticController(
            ElasticPolicy(min_workers=2, max_workers=4)
        )
        assert controller.decide(0, loads) is None

    def test_hot_share_threshold_respected(self):
        # worker 0 holds 60% exactly with hot_share=0.7: below threshold
        loads = [
            _load(0, [("J", 0), ("J", 2)], [(("J", 0), 50), (("J", 2), 10)]),
            _load(1, [("J", 1), ("J", 3)], [(("J", 1), 40), (("J", 3), 0)]),
        ]
        controller = ElasticController(ElasticPolicy(max_workers=4, hot_share=0.7))
        assert controller.decide(0, loads) is None
        lenient = ElasticController(ElasticPolicy(max_workers=4, hot_share=0.5))
        decision = lenient.decide(0, loads)
        assert decision is not None and decision.kind == "up"

    def test_idle_window_never_scales(self):
        loads = [
            _load(0, [("J", 0), ("J", 2)], [(("J", 0), 0), (("J", 2), 0)]),
            _load(1, [("J", 1)], [(("J", 1), 0)]),
        ]
        controller = ElasticController(ElasticPolicy(max_workers=4))
        assert controller.decide(0, loads) is None


class TestOrganicScaleDown:
    def test_cold_worker_retires_into_least_loaded_survivor(self):
        loads = [
            _load(0, [("J", 0)], [(("J", 0), 500)]),
            _load(1, [("J", 1)], [(("J", 1), 2)]),
            _load(2, [("J", 2)], [(("J", 2), 480)]),
        ]
        controller = ElasticController(
            ElasticPolicy(min_workers=1, max_workers=3, hot_share=0.95)
        )
        decision = controller.decide(0, loads)
        assert decision is not None
        assert decision.kind == "down"
        assert decision.source == 1
        assert decision.keys == (("J", 1),)
        assert decision.target == 2  # 480 docs < 500

    def test_min_workers_floor_respected(self):
        loads = [
            _load(0, [("J", 0)], [(("J", 0), 500)]),
            _load(1, [("J", 1)], [(("J", 1), 1)]),
        ]
        controller = ElasticController(
            ElasticPolicy(min_workers=2, max_workers=4, hot_share=0.999)
        )
        assert controller.decide(0, loads) is None


class TestCooldownAndForce:
    def test_cooldown_suppresses_consecutive_actions(self):
        controller = ElasticController(
            ElasticPolicy(max_workers=8, cooldown_windows=1)
        )
        assert controller.decide(0, _skewed_pair()) is not None
        # window 1 is within the cooldown; window 2 is past it
        assert controller.decide(1, _skewed_pair()) is None
        assert controller.decide(2, _skewed_pair()) is not None

    def test_zero_cooldown_allows_back_to_back(self):
        controller = ElasticController(
            ElasticPolicy(max_workers=8, cooldown_windows=0)
        )
        assert controller.decide(0, _skewed_pair()) is not None
        assert controller.decide(1, _skewed_pair()) is not None

    def test_forced_action_bypasses_thresholds_and_fires_once(self):
        controller = ElasticController(
            ElasticPolicy(max_workers=4, force=((1, "up"),))
        )
        even = _even_pair()
        assert controller.decide(0, even) is None
        decision = controller.decide(1, even)
        assert decision is not None and decision.kind == "up"
        assert "forced" in decision.reason
        # the schedule entry is consumed; nothing organic on even load
        assert controller.decide(3, even) is None

    def test_forced_up_skips_single_task_workers(self):
        # after one migration the hottest worker may hold a single task;
        # the forced action still fires, on the hottest worker that can
        # split (an empty window ties every load at zero)
        loads = [
            _load(0, [("J", 0)], [(("J", 0), 0)]),
            _load(1, [("J", 1), ("J", 3)], [(("J", 1), 0), (("J", 3), 0)]),
            _load(2, [("J", 2)], [(("J", 2), 0)]),
        ]
        controller = ElasticController(
            ElasticPolicy(max_workers=4, force=((1, "up"),))
        )
        decision = controller.decide(1, loads)
        assert decision is not None and decision.kind == "up"
        assert decision.source == 1
        # organic scale-ups keep refusing a hot single-task worker
        hot_single = [
            _load(0, [("J", 0)], [(("J", 0), 900)]),
            _load(1, [("J", 1), ("J", 3)], [(("J", 1), 10), (("J", 3), 10)]),
        ]
        assert ElasticController(ElasticPolicy(max_workers=4)).decide(
            0, hot_single
        ) is None

    def test_forced_down_names_source_and_target(self):
        loads = [
            _load(0, [("J", 0)], [(("J", 0), 100)]),
            _load(1, [("J", 1)], [(("J", 1), 100)]),
            _load(2, [("J", 2)], [(("J", 2), 10)]),
        ]
        controller = ElasticController(
            ElasticPolicy(max_workers=4, force=((0, "down"),))
        )
        decision = controller.decide(0, loads)
        assert decision is not None
        assert decision.kind == "down"
        assert decision.source == 2
        assert decision.target in (0, 1)

    def test_empty_load_list_is_a_no_op(self):
        controller = ElasticController(ElasticPolicy(force=((0, "up"),)))
        assert controller.decide(0, []) is None


class TestDecisionShape:
    def test_decision_carries_a_reason(self):
        controller = ElasticController(ElasticPolicy(max_workers=4))
        decision = controller.decide(0, _skewed_pair())
        assert isinstance(decision, Decision)
        assert decision.reason
