"""Smoke tests over the public API surface and packaging."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core", "repro.join", "repro.partitioning",
            "repro.streaming", "repro.topology", "repro.data",
            "repro.metrics", "repro.experiments", "repro.analysis",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_every_public_module_has_docstring(self):
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue
            mod = importlib.import_module(info.name)
            assert mod.__doc__, f"{info.name} lacks a module docstring"

    def test_api_reference_is_generated_from_the_code(self):
        """``docs/api.md`` is ``scripts/gen_api_docs.py``'s output, so a
        removed public name cannot linger in the reference."""
        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", ROOT / "scripts" / "gen_api_docs.py"
        )
        gen_api_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen_api_docs)
        reference = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        assert reference == gen_api_docs.render(), (
            "docs/api.md is stale: run python scripts/gen_api_docs.py"
        )

    def test_exceptions_form_one_hierarchy(self):
        from repro import exceptions

        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not exceptions.ReproError:
                    assert issubclass(obj, exceptions.ReproError), name


class TestEndToEndSmoke:
    def test_readme_quickstart_snippet(self):
        from repro import Document, FPTreeJoiner, join_window

        docs = [
            Document({"User": "A", "Severity": "Warning"}, doc_id=1),
            Document({"User": "A", "Severity": "Warning", "MsgId": 2}, doc_id=2),
            Document({"User": "A", "Severity": "Error"}, doc_id=3),
            Document({"IP": "10.2.145.212", "Severity": "Warning"}, doc_id=4),
        ]
        pairs = join_window(FPTreeJoiner(), docs)
        assert sorted(pairs) == [(1, 2), (1, 4), (2, 4)]
        merged = docs[0].join(docs[1])
        assert merged.to_dict() == {
            "User": "A", "Severity": "Warning", "MsgId": 2,
        }

    def test_readme_scaleout_snippet(self):
        from repro import StreamJoinConfig, run_stream_join
        from repro.data import ServerLogGenerator

        generator = ServerLogGenerator(seed=42)
        windows = [generator.next_window(100) for _ in range(3)]
        result = run_stream_join(
            StreamJoinConfig(m=4, algorithm="AG", compute_joins=True), windows
        )
        summary = result.summary()
        assert summary.replication > 1.0
        assert 0.0 <= summary.gini < 1.0
