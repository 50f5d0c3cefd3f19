"""Serve-loop integration of the sim-time time-series aggregator.

The headline acceptance criterion lives here: the series' cumulative block
must reproduce the end-of-run ``ServeResult`` / ``SLOReport`` numbers
*exactly* — same ints, bit-identical floats — because both sides intentionally
share formulas and summation order.
"""

import json

import pytest

from repro import obs
from repro.experiments.config import FAST
from repro.experiments.tableS1 import run_tableS1
from repro.models.zoo import lenet_spec
from repro.obs.chrometrace import validate_chrome_trace
from repro.obs.payload import begin_capture, end_capture, merge_payload
from repro.serve.cli import main as serve_cli_main
from repro.serve.cluster import build_spec_cluster, clear_service_memo
from repro.serve.scheduler import make_scheduler
from repro.serve.simulator import simulate_serving
from repro.serve.slo import SLO
from repro.serve.workload import PoissonWorkload


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_service_memo()

    def reset():
        obs.disable_tracing()
        obs.get_collector().clear()
        obs.nocprof.disable_noc_profiling()
        obs.nocprof.clear_profiles()
        obs.disable_timeseries()
        obs.clear_timeseries()

    reset()
    yield
    clear_service_memo()
    reset()


def _run(rate=60.0, requests=120, scheduler="batch", seed=3, slo_factor=2.0):
    spec = lenet_spec()
    cluster = build_spec_cluster(spec, 8, 4, scheme="traditional")
    slo = SLO(int(slo_factor * cluster.unloaded_latency(spec.name)))
    workload = PoissonWorkload(
        rate_per_megacycle=rate, num_requests=requests, seed=seed,
        mix={spec.name: 1.0},
    )
    sched = make_scheduler(scheduler, max_batch=4)
    result, report = simulate_serving(cluster, sched, workload, slo=slo)
    return result, report


class _EmptyWorkload:
    """Open-loop generator that never issues a request."""

    def initial(self):
        return []

    def on_completion(self, request, now):
        return None


class TestCumulativeMatchesResults:
    def test_exact_agreement_with_serve_result_and_slo_report(self):
        obs.enable_timeseries()
        result, report = _run()
        [record] = obs.global_timeseries()
        cum = record["cumulative"]

        assert cum["requests"] == result.num_requests == report.requests
        assert cum["makespan"] == result.makespan
        assert cum["p50"] == report.p50
        assert cum["p95"] == report.p95
        assert cum["p99"] == report.p99
        assert cum["percentiles_exact"]
        assert cum["mean_latency"] == report.mean_latency
        assert cum["max_latency"] == report.max_latency
        assert cum["mean_queue_cycles"] == report.mean_queue_cycles
        assert cum["violation_rate"] == report.violation_rate
        assert cum["throughput_per_megacycle"] == report.throughput_per_megacycle
        assert cum["goodput_per_megacycle"] == report.goodput_per_megacycle
        assert cum["utilization"] == report.utilization == result.utilization
        assert cum["busy_cycles"] == {
            str(g): c for g, c in result.busy_cycles.items()
        }

    def test_window_sums_reconcile_with_totals(self):
        obs.enable_timeseries(window_cycles=2048)
        result, _ = _run()
        [record] = obs.global_timeseries()
        ws = record["windows"]
        assert sum(w["completions"] for w in ws) == result.num_requests
        assert sum(w["arrivals"] for w in ws) == result.num_requests
        per_replica = {}
        for w in ws:
            for replica, busy in w["busy_cycles"].items():
                per_replica[replica] = per_replica.get(replica, 0) + busy
        assert per_replica == {
            str(g): c for g, c in result.busy_cycles.items() if c
        }

    def test_empty_run_exports_cleanly(self, tmp_path):
        obs.enable_timeseries()
        spec = lenet_spec()
        cluster = build_spec_cluster(spec, 4, 4, scheme="traditional")
        result, _ = simulate_serving(
            cluster, make_scheduler("fifo"), _EmptyWorkload()
        )
        assert result.num_requests == 0
        [record] = obs.global_timeseries()
        assert record["cumulative"]["requests"] == 0
        assert record["windows"] == []
        out = tmp_path / "empty.perfetto.json"
        obs.export_perfetto(out)
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload["traceEvents"]) == []

    def test_disabled_collection_records_nothing(self):
        _run()
        assert obs.global_timeseries() == []


class TestSweepByteIdentity:
    def test_serial_vs_two_workers(self):
        """The sweep's merged time-series must be byte-identical to serial."""
        obs.enable_timeseries()
        run_tableS1(profile=FAST, workers=1)
        serial = json.dumps(obs.global_timeseries(), sort_keys=True)
        assert serial != "[]"

        obs.clear_timeseries()
        clear_service_memo()
        run_tableS1(profile=FAST, workers=2)
        parallel = json.dumps(obs.global_timeseries(), sort_keys=True)
        assert parallel == serial

    def test_worker_chunk_path_matches_serial(self):
        """Per-task capture + merge (what a pool child runs) equals serial.

        On a 1-CPU host ``pmap`` clamps ``--workers 2`` to the serial loop,
        so the cross-process mechanics are exercised here directly through
        the worker-side task runner.
        """
        from repro.parallel.pool import _run_task

        def task(seed):
            result, _ = _run(requests=30, seed=seed)
            return result.num_requests

        obs.enable_timeseries()
        for seed in (1, 2):
            _run(requests=30, seed=seed)
        serial = json.dumps(obs.global_timeseries(), sort_keys=True)

        obs.clear_timeseries()
        clear_service_memo()
        outputs = [_run_task((task, seed, False, False, {})) for seed in (1, 2)]
        obs.clear_timeseries()  # the last task's state is still live
        obs.enable_timeseries()
        for _result, payload in outputs:
            assert not payload["spans"]
            merge_payload(payload)
        assert json.dumps(obs.global_timeseries(), sort_keys=True) == serial


class TestPayloadRoundTrip:
    def test_capture_and_merge_preserve_series(self):
        collector = begin_capture(False, False, {"window_cycles": 512})
        assert obs.timeseries_enabled()
        assert obs.timeseries_config() == {"window_cycles": 512}
        result, _ = _run(requests=40)
        payload = end_capture(collector)
        assert len(payload["timeseries"]) == 1

        begin_capture(False, False, None)  # simulate the next, untraced task
        assert not obs.timeseries_enabled()
        assert obs.global_timeseries() == []

        obs.enable_timeseries()
        merge_payload(payload)
        [record] = obs.global_timeseries()
        assert record["cumulative"]["requests"] == result.num_requests
        assert record["initial_window_cycles"] == 512


class TestServeCliPerfetto:
    def test_perfetto_flag_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "serve.perfetto.json"
        assert serve_cli_main(
            ["--network", "lenet", "--cores", "4", "--group-cores", "4",
             "--requests", "15", "--rate", "5", "--perfetto", str(out),
             "--ts-window", "4096"]
        ) == 0
        assert "perfetto trace written" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert validate_chrome_trace(events) == []
        # Wall-clock spans and one sim-time serve process both present.
        assert any(e.get("cat") == "span" for e in events)
        assert any(e.get("cat") == "batch" for e in events)
        flows = {e["id"] for e in events if e.get("ph") == "s"}
        assert len(flows) == 15

    def test_cli_leaves_collection_disabled(self, tmp_path):
        out = tmp_path / "serve.perfetto.json"
        serve_cli_main(
            ["--network", "lenet", "--cores", "4", "--group-cores", "4",
             "--requests", "5", "--rate", "5", "--perfetto", str(out)]
        )
        assert not obs.timeseries_enabled()
        assert obs.global_timeseries() == []
