"""``scripts/check_bench.py``: the gate refuses cross-host comparisons."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench.py"
_spec = importlib.util.spec_from_file_location("check_bench", SCRIPT)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


class TestHostMismatch:
    def test_same_cpu_count_compares(self):
        report = {"workload": {"cpu_count": 2}, "metrics": {"a_ns": 1.0}}
        assert check_bench.host_mismatch(report, 2) is None

    def test_different_cpu_count_names_both_values(self):
        message = check_bench.host_mismatch({"workload": {"cpu_count": 2}}, 8)
        assert "workload.cpu_count=2" in message
        assert "os.cpu_count()=8" in message

    def test_missing_cpu_count_is_refused(self):
        for report in ({"workload": {"seed": 7}}, {"metrics": {"a_ns": 1.0}}):
            message = check_bench.host_mismatch(report, 2)
            assert "workload.cpu_count=None" in message
            assert "os.cpu_count()=2" in message

    def test_unknown_host_cpu_count_is_refused(self):
        # os.cpu_count() may return None; nothing compares equal to it
        assert check_bench.host_mismatch({"workload": {"cpu_count": 2}}, None)

    def test_main_exits_2_before_measuring(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        baseline.write_text('{"workload": {"cpu_count": -1}, "metrics": {"a_ns": 1.0}}')
        assert check_bench.main(["--baseline", str(baseline)]) == 2
