"""Metrics registry: counters/gauges/histograms, labels, and determinism."""

from __future__ import annotations

import pytest

from repro.obs import METRICS, MetricsRegistry
from repro.models import get_spec
from repro.partition import build_traditional_plan
from repro.sim.engine import InferenceSimulator, SimConfig


@pytest.fixture
def reg() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounters:
    def test_inc_defaults_to_one(self, reg):
        reg.inc("hits")
        reg.inc("hits")
        assert reg.counter("hits") == 2

    def test_inc_with_value(self, reg):
        reg.inc("cycles", 128)
        reg.inc("cycles", 72)
        assert reg.counter("cycles") == 200

    def test_unknown_counter_reads_zero(self, reg):
        assert reg.counter("never.touched") == 0

    def test_inc_zero_registers_series(self, reg):
        reg.inc("cache.hit", 0)
        assert "cache.hit" in reg.snapshot()["counters"]
        assert reg.counter("cache.hit") == 0

    def test_labels_are_independent_series(self, reg):
        reg.inc("noc.runs", engine="event")
        reg.inc("noc.runs", 2, engine="reference")
        assert reg.counter("noc.runs", engine="event") == 1
        assert reg.counter("noc.runs", engine="reference") == 2
        assert reg.counter("noc.runs") == 0

    def test_label_keys_render_sorted(self, reg):
        reg.inc("m", b=2, a=1)
        reg.inc("m", a=1, b=2)
        assert reg.snapshot()["counters"] == {"m{a=1,b=2}": 2}


class TestGaugesAndHistograms:
    def test_gauge_keeps_last_value(self, reg):
        reg.set_gauge("train.last_loss", 2.5)
        reg.set_gauge("train.last_loss", 1.25)
        assert reg.snapshot()["gauges"] == {"train.last_loss": 1.25}

    def test_histogram_stats(self, reg):
        for v in (1.0, 4.0, 7.0):
            reg.observe("train.epoch_loss", v)
        h = reg.snapshot()["histograms"]["train.epoch_loss"]
        assert h == {"count": 3, "total": 12.0, "mean": 4.0, "min": 1.0, "max": 7.0}


class TestSnapshotAndReset:
    def test_snapshot_keys_sorted(self, reg):
        reg.inc("zeta")
        reg.inc("alpha")
        assert list(reg.snapshot()["counters"]) == ["alpha", "zeta"]

    def test_reset_clears_everything(self, reg):
        reg.inc("c")
        reg.set_gauge("g", 1)
        reg.observe("h", 2)
        reg.reset()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_render_includes_all_sections(self, reg):
        reg.inc("noc.flits", 1000)
        reg.set_gauge("loss", 0.5)
        reg.observe("epoch", 3.0)
        text = reg.render()
        assert "counters:" in text and "noc.flits" in text and "1,000" in text
        assert "gauges:" in text and "histograms:" in text


class TestDeterminism:
    """Identical simulations produce identical counter snapshots."""

    def test_two_identical_runs_match(self, chip16, tmp_path, monkeypatch):
        plan = build_traditional_plan(get_spec("lenet"), 16)

        def run(cache_dir: str):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / cache_dir))  # cold drains
            METRICS.reset()
            InferenceSimulator(chip16, SimConfig()).simulate(plan)
            return METRICS.snapshot()

        first = run("first")
        second = run("second")
        assert first == second
        assert first["counters"]["sim.drain_cycles"] > 0
        assert first["counters"]["noc.runs{engine=event}"] > 0
