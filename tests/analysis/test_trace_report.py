"""Trace summaries: per-phase breakdown, metrics rendering, full report."""

from __future__ import annotations

from repro.analysis import phase_breakdown, render_metrics_snapshot, summarize_trace
from repro.analysis.trace_report import render_timeseries, sparkline
from repro.obs import NoCProfile


def span(name, sid, parent, dur, **attrs):
    return {
        "type": "span",
        "name": name,
        "id": sid,
        "parent": parent,
        "thread": "MainThread",
        "t_wall": 0.0,
        "dur_s": dur,
        "attrs": attrs,
    }


class TestPhaseBreakdown:
    def test_self_time_excludes_children(self):
        records = [
            span("sim.drain", 2, 1, 0.4),
            span("simulate.layer", 1, 0, 0.6),
            span("experiment", 0, None, 1.0),
        ]
        text = phase_breakdown(records)
        lines = {line.split()[0]: line for line in text.splitlines() if "." in line}
        # experiment: 1.0 total, 0.4 self; layer: 0.6 total, 0.2 self;
        # drain: 0.4 total and self — the biggest self time tops the table.
        assert "0.400" in lines["sim.drain"]
        assert "0.200" in lines["simulate.layer"]
        assert lines["experiment"].split()[1:4] == ["1", "1.000", "0.400"]
        assert "3 spans" in text and "1.000s traced" in text

    def test_aggregates_repeated_phases(self):
        records = [
            span("sim.drain", 1, 0, 0.25),
            span("sim.drain", 2, 0, 0.35),
            span("experiment", 0, None, 0.8),
        ]
        text = phase_breakdown(records)
        (drain_row,) = [l for l in text.splitlines() if l.strip().startswith("sim.drain")]
        assert drain_row.split()[1:4] == ["2", "0.600", "0.600"]

    def test_no_spans_message(self):
        assert "no spans" in phase_breakdown([{"type": "metrics"}])


class TestMetricsRendering:
    def test_sections_and_values(self):
        snapshot = {
            "counters": {"cache.drain_memo.hit": 12, "noc.runs{engine=event}": 3},
            "gauges": {"train.last_loss": 0.25},
            "histograms": {
                "train.epoch_loss": {
                    "count": 2, "total": 1.0, "mean": 0.5, "min": 0.4, "max": 0.6,
                }
            },
        }
        text = render_metrics_snapshot(snapshot)
        assert "cache.drain_memo.hit" in text and "12" in text
        assert "train.last_loss" in text and "0.25" in text
        assert "n=2 mean=0.5" in text

    def test_empty_snapshot(self):
        assert render_metrics_snapshot({}) == "metrics snapshot:"


class TestSummarizeTrace:
    def test_combines_all_sections(self):
        profile = NoCProfile(2, 2)
        profile.link_flits[0, 1] = 10
        profile.router_flits[0] = 10
        profile.cycles = 5
        records = [
            span("experiment", 0, None, 1.0),
            {"type": "metrics", "snapshot": {"counters": {"sim.drain_cycles": 7}}},
            {"type": "noc_profile", **profile.to_dict()},
        ]
        text = summarize_trace(records)
        assert "per-phase time breakdown" in text
        assert "sim.drain_cycles" in text
        assert "2x2 mesh" in text

    def test_empty_trace_reports_no_data(self):
        text = summarize_trace([])
        assert "no data" in text
        assert "--trace" in text

    def test_zero_span_trace_is_crash_proof(self):
        """Records present but no spans: every section degrades politely."""
        records = [{"type": "metrics", "snapshot": {}}]
        text = summarize_trace(records)
        assert "metrics snapshot:" in text

    def test_top_links_forwarded(self):
        profile = NoCProfile(4, 4)
        for n in range(8):
            profile.link_flits[n, 1] = 100 + n
        profile.cycles = 10
        records = [{"type": "noc_profile", **profile.to_dict()}]
        text = summarize_trace(records, top_links=2)
        assert "top 2" in text


def _series_record(slo=None):
    from repro.obs.timeseries import ServeTimeSeries

    s = ServeTimeSeries("demo", groups=1, window_cycles=100, slo_cycles=slo)
    for i in range(6):
        arrival = i * 40
        s.on_arrival(arrival)
        s.on_dispatch(arrival, 0, 30, 1)
        s.on_completion(i, arrival, arrival, arrival + 30, 0, 1)
    s.finalize()
    return s.to_dict()


class TestSparkline:
    def test_scales_to_series_max(self):
        line = sparkline([0, 1, 2, 4])
        assert len(line) == 4
        assert line[0] == " "  # zero renders blank
        assert line[-1] == "@"  # peak renders full

    def test_empty_and_flat_zero(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0, 0]) == "   "


class TestRenderTimeseries:
    def test_panel_has_sparklines_table_and_cumulative(self):
        text = render_timeseries(_series_record())
        assert "serve time-series: demo" in text
        assert "completions" in text and "|" in text
        assert "window start" in text
        assert "cumulative: 6 requests" in text
        assert "slo" not in text.split("cumulative")[1]

    def test_slo_lines_present_when_target_set(self):
        text = render_timeseries(_series_record(slo=10))
        assert "slo burn" in text
        assert "slo: target 10 cycles" in text
        assert "violations" in text

    def test_empty_series_degrades(self):
        from repro.obs.timeseries import ServeTimeSeries

        s = ServeTimeSeries("idle", groups=2, window_cycles=50)
        s.finalize()
        text = render_timeseries(s.to_dict())
        assert "no windows" in text

    def test_table_caps_rows(self, monkeypatch):
        from repro.obs import timeseries
        from repro.obs.timeseries import ServeTimeSeries

        monkeypatch.setattr(timeseries, "MAX_WINDOWS", 64)
        s = ServeTimeSeries("long", groups=1, window_cycles=10)
        for i in range(40):
            s.on_arrival(i * 10)
            s.on_dispatch(i * 10, 0, 5, 1)
            s.on_completion(i, i * 10, i * 10, i * 10 + 5, 0, 1)
        s.finalize()
        text = render_timeseries(s.to_dict(), max_rows=5)
        assert "last 5 of" in text

    def test_summarize_trace_includes_series_panel(self):
        records = [
            span("experiment", 0, None, 1.0),
            _series_record(),
        ]
        text = summarize_trace(records)
        assert "per-phase time breakdown" in text
        assert "serve time-series: demo" in text
