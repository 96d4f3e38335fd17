"""``scripts/profile_parent.py``: what the parent ships is a function of
the input, so two runs report the same shipped totals."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile_parent.py"
_spec = importlib.util.spec_from_file_location("profile_parent", SCRIPT)
profile_parent = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_parent)

WINDOWS = 2


def _shipped(run):
    docs = run["docs"]
    return (
        run["frames"] / WINDOWS,
        run["entries"] / docs,
        run["bytes"] / docs,
    )


@pytest.mark.parallel
def test_two_runs_ship_the_same_frames():
    first = profile_parent.run_once("rw", "pipe", WINDOWS)
    second = profile_parent.run_once("rw", "pipe", WINDOWS)
    assert first["frames"] > 0
    assert _shipped(first) == _shipped(second)
