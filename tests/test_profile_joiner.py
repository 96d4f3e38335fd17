"""``scripts/profile_joiner.py``: every Joiner mode runs both sides."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile_joiner.py"
_spec = importlib.util.spec_from_file_location("profile_joiner", SCRIPT)
profile_joiner = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_joiner)


@pytest.mark.parametrize("mode", ["tumbling", "sliding", "binary"])
def test_two_windows_of_each_mode(mode):
    run = profile_joiner.run_once("nb", 7, 2, 2, False, mode)
    for key in ("probe_s", "insert_s", "shared_s"):
        assert len(run[key]) == 2 and min(run[key]) > 0
    assert run["nodes_per_doc"] > 0
