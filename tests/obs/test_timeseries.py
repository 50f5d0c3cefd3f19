"""Unit tests for the sim-time serving time-series aggregator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import timeseries
from repro.obs.metrics import percentile
from repro.obs.timeseries import (
    Reservoir,
    ServeTimeSeries,
    adopt_timeseries,
    clear_timeseries,
    disable_timeseries,
    enable_timeseries,
    global_timeseries,
    start_series,
    timeseries_config,
    timeseries_enabled,
)
from repro.serve.slo import percentile as slo_percentile


def _feed(series, requests):
    """Drive a series with (arrival, start, finish, replica) request tuples.

    Events are delivered in non-decreasing cycle order — arrival at its
    arrival cycle, dispatch at its start, completion at its finish — exactly
    the discipline the serve event loop guarantees.
    """
    events = []
    for rid, (arrival, start, finish, replica) in enumerate(requests):
        events.append((arrival, 0, rid, (arrival,)))
        events.append((start, 1, rid, (start, replica, finish - start, 1)))
        events.append((finish, 2, rid, (rid, arrival, start, finish, replica, 1)))
    for _cycle, kind, _rid, payload in sorted(events):
        (series.on_arrival, series.on_dispatch, series.on_completion)[kind](*payload)
    series.finalize()


class TestReservoir:
    def test_exact_until_capacity(self):
        r = Reservoir(10)
        for v in range(10):
            r.add(v)
        assert r.exact
        assert sorted(r.samples) == list(range(10))
        assert r.quantile(50) == percentile(list(range(10)), 50)
        r.add(10)
        assert not r.exact
        assert len(r.samples) == 10

    def test_deterministic_for_identical_streams(self):
        a, b = Reservoir(5, seed=3), Reservoir(5, seed=3)
        for v in range(100):
            a.add(v)
            b.add(v)
        assert a.samples == b.samples

    def test_seed_changes_sample(self):
        a, b = Reservoir(5, seed=1), Reservoir(5, seed=2)
        for v in range(200):
            a.add(v)
            b.add(v)
        assert a.samples != b.samples

    def test_absorb_is_deterministic_and_counts(self):
        def build():
            a, b = Reservoir(4, seed=1), Reservoir(4, seed=2)
            for v in range(10):
                a.add(v)
                b.add(v + 100)
            a.absorb(b)
            return a

        one, two = build(), build()
        assert one.samples == two.samples
        assert one.count == 20
        assert len(one.samples) == 4

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Reservoir(0)


class TestWindowing:
    def test_events_land_in_their_windows(self):
        s = ServeTimeSeries("t", groups=2, window_cycles=100)
        _feed(s, [(0, 0, 50, 0), (120, 120, 180, 1), (130, 140, 260, 0)])
        d = s.to_dict()
        ws = d["windows"]
        assert [w["start"] for w in ws] == [0, 100, 200]
        assert [w["arrivals"] for w in ws] == [1, 2, 0]
        assert [w["completions"] for w in ws] == [1, 1, 1]
        assert d["cumulative"]["arrivals"] == 3
        assert d["cumulative"]["requests"] == 3

    def test_zero_width_window_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="window_cycles"):
            ServeTimeSeries("t", groups=1, window_cycles=0)
        monkeypatch.setattr(timeseries, "MAX_WINDOWS", 3)
        with pytest.raises(ValueError, match="MAX_WINDOWS"):
            ServeTimeSeries("t", groups=1)

    def test_busy_cycles_split_across_windows(self):
        s = ServeTimeSeries("t", groups=1, window_cycles=100)
        # One batch spanning cycles 50..250: 50 busy in w0, 100 in w1, 50 in w2
        # (windows anchor at the first event cycle, 0 here).
        s.on_arrival(0)
        s.on_dispatch(50, 0, 200, 1)
        s.on_completion(0, 0, 50, 250, 0, 1)
        s.finalize()
        ws = s.to_dict()["windows"]
        assert [w["busy_cycles"].get("0", 0) for w in ws] == [50, 100, 50]
        assert [w["utilization"] for w in ws] == [0.5, 1.0, 0.5]

    def test_coalescing_keeps_full_coverage(self, monkeypatch):
        monkeypatch.setattr(timeseries, "MAX_WINDOWS", 4)
        s = ServeTimeSeries("t", groups=1, window_cycles=10)
        requests = [(i * 10, i * 10, i * 10 + 5, 0) for i in range(32)]
        _feed(s, requests)
        d = s.to_dict()
        assert d["coalesced"] >= 1
        assert d["window_cycles"] > 10
        assert len(d["windows"]) <= 4 + 1  # retained + the final partial
        # Coverage is contiguous from the origin and nothing was dropped.
        assert d["windows"][0]["start"] == 0
        for prev, cur in zip(d["windows"], d["windows"][1:]):
            assert cur["start"] == prev["end"]
        assert sum(w["completions"] for w in d["windows"]) == 32
        assert sum(w["arrivals"] for w in d["windows"]) == 32

    def test_huge_cycle_jump_is_bounded(self, monkeypatch):
        monkeypatch.setattr(timeseries, "MAX_WINDOWS", 4)
        s = ServeTimeSeries("t", groups=1, window_cycles=1)
        s.on_arrival(0)
        s.on_dispatch(0, 0, 10, 1)
        s.on_completion(0, 0, 0, 10, 0, 1)
        s.on_arrival(10**9)  # a billion-cycle gap must not loop a billion times
        s.finalize()
        d = s.to_dict()
        assert sum(w["arrivals"] for w in d["windows"]) == 2

    def test_empty_run_exports_cleanly(self):
        s = ServeTimeSeries("empty", groups=4, window_cycles=100)
        s.finalize()
        d = s.to_dict()
        assert d["windows"] == []
        assert d["requests"] == []
        cum = d["cumulative"]
        assert cum["requests"] == 0
        assert cum["makespan"] == 0
        assert cum["utilization"] == 0.0
        assert cum["p99"] == 0

    def test_small_reservoir_still_counts_everything(self, monkeypatch):
        monkeypatch.setattr(timeseries, "WINDOW_RESERVOIR", 8)
        monkeypatch.setattr(timeseries, "CUMULATIVE_RESERVOIR", 8)
        s = ServeTimeSeries("t", groups=1, window_cycles=10_000)
        requests = [(i, i, i + 1 + i % 7, 0) for i in range(100)]
        _feed(s, requests)
        d = s.to_dict()
        cum = d["cumulative"]
        assert cum["requests"] == 100
        assert not cum["percentiles_exact"]
        w = d["windows"][0]
        assert w["latency_count"] == 100
        assert w["latency_samples"] == 8
        # Sampled percentiles still come from genuinely observed latencies.
        observed = {1 + i % 7 for i in range(100)}
        assert w["p99"] in observed and cum["p99"] in observed

    def test_request_cap_drops_tail(self, monkeypatch):
        monkeypatch.setattr(timeseries, "REQUEST_CAP", 3)
        s = ServeTimeSeries("t", groups=1, window_cycles=100)
        _feed(s, [(i, i, i + 1, 0) for i in range(5)])
        d = s.to_dict()
        assert d["requests_recorded"] == 3
        assert d["requests_dropped"] == 2
        assert d["cumulative"]["requests"] == 5

    def test_slo_burn_rate(self, monkeypatch):
        monkeypatch.setattr(timeseries, "SLO_BUDGET", 0.1)
        s = ServeTimeSeries("t", groups=1, window_cycles=1000, slo_cycles=10)
        # 4 requests, 2 violate (latency 20 > 10): rate 0.5, burn 5.0.
        _feed(s, [(0, 0, 5, 0), (1, 1, 21, 0), (2, 2, 22, 0), (3, 3, 9, 0)])
        d = s.to_dict()
        assert d["cumulative"]["violations"] == 2
        assert d["windows"][0]["slo_burn_rate"] == 5.0


class TestGlobalState:
    def test_disabled_by_default(self):
        assert not timeseries_enabled()

    def test_enable_start_collect_clear(self):
        enable_timeseries(window_cycles=64)
        assert timeseries_enabled()
        assert timeseries_config() == {"window_cycles": 64}
        series = start_series("run", groups=2)
        series.on_arrival(0)
        series.on_dispatch(0, 0, 10, 1)
        series.on_completion(0, 0, 0, 10, 0, 1)
        records = global_timeseries()
        assert len(records) == 1
        assert records[0]["label"] == "run"
        assert records[0]["window_cycles"] == 64
        clear_timeseries()
        assert global_timeseries() == []
        disable_timeseries()

    def test_adopted_records_keep_order(self):
        enable_timeseries()
        start_series("local", groups=1)
        adopt_timeseries({"type": "timeseries", "label": "worker", "windows": []})
        labels = [r["label"] for r in global_timeseries()]
        assert labels == ["local", "worker"]


class TestPercentileConvention:
    """serve.slo, obs.metrics, and exact reservoirs must agree digit for digit."""

    @given(
        values=st.lists(st.integers(0, 10**6), min_size=1, max_size=200),
        pct=st.sampled_from([1, 25, 50, 75, 90, 95, 99, 100]),
    )
    @settings(max_examples=100, deadline=None)
    def test_cross_module_lockstep(self, values, pct):
        expected = percentile(values, pct)
        assert slo_percentile(values, pct) == expected
        r = Reservoir(len(values), seed=0)
        for v in values:
            r.add(v)
        assert r.exact
        assert r.quantile(pct) == expected

    @given(values=st.lists(st.integers(0, 1000), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_nearest_rank_is_an_observed_value(self, values):
        for pct in (50, 95, 99):
            assert percentile(values, pct) in values


def test_window_percentiles_match_shared_convention():
    """Per-window p50/p95/p99 equal nearest-rank over that window's latencies."""
    rng = random.Random(5)
    s = ServeTimeSeries("t", groups=1, window_cycles=1000)
    lats = [rng.randrange(1, 500) for _ in range(80)]
    _feed(s, [(i, i, i + lat, 0) for i, lat in enumerate(lats)])
    w = s.to_dict()["windows"][0]
    in_window = [lat for i, lat in enumerate(lats) if i + lat < 1000]
    assert w["p50"] == int(percentile(in_window, 50))
    assert w["p99"] == int(percentile(in_window, 99))
