"""Per-stage pipeline telemetry: time-series keys and Perfetto chip tracks."""

from repro import obs
from repro.models import lenet_spec
from repro.obs.chrometrace import chrome_trace_events, validate_chrome_trace
from repro.serve import PoissonWorkload, build_mcm_cluster, build_spec_cluster
from repro.serve.scheduler import FIFOScheduler
from repro.serve.simulator import ServeSimulator


def _run(cluster, requests=20, rate=10.0):
    obs.enable_timeseries(window_cycles=50_000)
    workload = PoissonWorkload(rate, requests, seed=5, mix={"lenet": 1.0})
    ServeSimulator(cluster, FIFOScheduler(), workload).run()
    (record,) = obs.global_timeseries()
    return record


class TestStageSeriesKeys:
    def test_pipelined_run_exports_stage_series(self):
        cluster = build_mcm_cluster(lenet_spec(), 4, cores_per_chip=2, stages=2)
        record = _run(cluster)
        assert record["stages"] == 2
        assert record["stage_intervals"]
        # Every interval is (start, end, replica, stage) within bounds.
        for start, end, replica, stage in record["stage_intervals"]:
            assert 0 <= start < end
            assert 0 <= replica < cluster.num_groups
            assert 0 <= stage < 2

        cumulative = record["cumulative"]
        for key in ("stage_busy_cycles", "stage_occupancy", "stage_bubble_fraction"):
            assert set(cumulative[key]) == {"0", "1"}
        # The bottleneck stage has zero bubble; others wait on it.
        bubbles = cumulative["stage_bubble_fraction"]
        assert min(bubbles.values()) == 0.0
        assert all(0.0 <= b < 1.0 for b in bubbles.values())
        # Per-stage busy is consistent with the recorded intervals.
        from_intervals = {"0": 0, "1": 0}
        for start, end, _, stage in record["stage_intervals"]:
            from_intervals[str(stage)] += end - start
        assert cumulative["stage_busy_cycles"] == from_intervals

    def test_plain_run_has_no_stage_keys(self):
        """The single-chip export is unchanged — stage keys never appear."""
        cluster = build_spec_cluster(lenet_spec(), 8, 4)
        record = _run(cluster)
        assert "stages" not in record
        assert "stage_intervals" not in record
        for key in ("stage_busy_cycles", "stage_occupancy", "stage_bubble_fraction"):
            assert key not in record["cumulative"]


class TestPerfettoChipTracks:
    def test_stage_tracks_per_pipeline_chip(self):
        cluster = build_mcm_cluster(lenet_spec(), 4, cores_per_chip=2, stages=2)
        record = _run(cluster)
        events = chrome_trace_events([record])
        assert validate_chrome_trace(events) == []

        slices = [e for e in events if e.get("cat") == "stage"]
        assert slices
        assert all(e["tid"] >= 20_000 for e in slices)
        assert {e["name"] for e in slices} == {"stage 0", "stage 1"}
        chip_labels = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "thread_name"
            and e["args"]["name"].startswith("pipeline ")
        }
        assert {"pipeline 0 chip 0", "pipeline 0 chip 1"} <= chip_labels
        # One track per (pipeline, chip): 2 pipelines x 2 chips.
        assert len({e["tid"] for e in slices}) == 4

    def test_plain_trace_has_no_stage_tracks(self):
        cluster = build_spec_cluster(lenet_spec(), 8, 4)
        record = _run(cluster)
        events = chrome_trace_events([record])
        assert validate_chrome_trace(events) == []
        assert not [e for e in events if e.get("cat") == "stage"]
