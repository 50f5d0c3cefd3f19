"""Smoke tests of the tableSearch runner (FAST profile)."""

import pytest

from repro.experiments.config import FAST
from repro.experiments.runner import EXPERIMENTS, run_one
from repro.experiments.table_search import run_table_search


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestTableSearch:
    def test_registered(self):
        assert "tableSearch" in EXPERIMENTS

    def test_fast_profile_rows(self):
        degree_rows, stage_rows = run_table_search(FAST)
        assert {r.model for r in degree_rows} == {"lenet", "convnet"}
        for r in degree_rows:
            # Engine-measured searched latency never worse than traditional.
            assert r.searched_cycles <= r.traditional_cycles
            assert -1.0 <= r.rank_correlation <= 1.0
            assert len(r.degrees) > 0
        assert stage_rows
        for r in stage_rows:
            # The never-worse guarantee, measured end to end.
            assert r.searched_interval <= r.balanced_interval
            assert r.interval_speedup >= 1.0
            assert r.used in ("searched", "balanced")

    def test_render_via_runner(self):
        table = run_one("tableSearch", FAST)
        assert "Table Search A" in table
        assert "Table Search B" in table
        assert "lenet" in table
