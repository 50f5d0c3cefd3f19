"""Event-loop correctness against hand-computed traces and pinned runs."""

import dataclasses
import hashlib
import json

import pytest

from repro.models import lenet_spec
from repro.obs import METRICS, clear_timeseries, disable_timeseries, enable_timeseries
from repro.obs.metrics import percentile
from repro.serve.cluster import Cluster, build_mcm_cluster, build_spec_cluster
from repro.serve.scheduler import BatchingScheduler, FIFOScheduler, make_scheduler
from repro.serve.simulator import ServeSimulator, simulate_serving
from repro.serve.slo import SLO
from repro.serve.workload import ClosedLoopWorkload, LoadGenerator, PoissonWorkload, Request

from .services import one_stage


class FixedWorkload(LoadGenerator):
    """Deterministic scripted arrivals for hand-checkable traces."""

    name = "fixed"

    def __init__(self, requests):
        self._requests = list(requests)

    def initial(self):
        return list(self._requests)


def _cluster(total=4, group=4, latency=1000, input_load=200, model="m"):
    svc = one_stage(model, group, latency, input_load)
    return Cluster(total_cores=total, group_cores=group, services={model: svc})


class TestHandComputedTraces:
    def test_two_requests_one_replica_fifo(self):
        """r0 at 10 runs [10, 1010); r1 at 20 waits, runs [1010, 2010)."""
        cluster = _cluster(total=4, group=4, latency=1000)
        workload = FixedWorkload([Request(0, 10, "m"), Request(1, 20, "m")])
        result = ServeSimulator(cluster, FIFOScheduler(), workload).run()

        by_rid = {r.rid: r for r in result.records}
        assert (by_rid[0].start, by_rid[0].finish) == (10, 1010)
        assert (by_rid[1].start, by_rid[1].finish) == (1010, 2010)
        assert by_rid[0].latency == 1000
        assert by_rid[1].latency == 1990
        assert by_rid[1].queue_cycles == 990
        assert result.makespan == 2000
        assert result.busy_cycles == {0: 2000}
        assert result.utilization == pytest.approx(1.0)

    def test_two_replicas_serve_concurrently(self):
        cluster = _cluster(total=8, group=4, latency=1000)
        workload = FixedWorkload([Request(0, 10, "m"), Request(1, 20, "m")])
        result = ServeSimulator(cluster, FIFOScheduler(), workload).run()
        by_rid = {r.rid: r for r in result.records}
        assert by_rid[0].replica != by_rid[1].replica
        assert by_rid[0].latency == by_rid[1].latency == 1000

    def test_batch_amortizes_input_load(self):
        """Two queued same-model requests run as one batch: 200 + 2*800 =
        1800 cycles instead of 2 x 1000."""
        cluster = _cluster(total=4, group=4, latency=1000, input_load=200)
        workload = FixedWorkload(
            [Request(0, 10, "m"), Request(1, 10, "m"), Request(2, 10, "m")]
        )
        result = ServeSimulator(cluster, BatchingScheduler(max_batch=2), workload).run()
        by_rid = {r.rid: r for r in result.records}
        # First dispatch at cycle 10 batches r0+r1 (both queued by then).
        assert by_rid[0].batch_size == 2
        assert (by_rid[0].start, by_rid[0].finish) == (10, 1810)
        assert by_rid[1].finish == 1810
        # r2 runs alone afterwards.
        assert by_rid[2].batch_size == 1
        assert (by_rid[2].start, by_rid[2].finish) == (1810, 2810)

    def test_percentiles_from_known_trace(self):
        """10 simultaneous arrivals on one replica: latencies are
        L, 2L, ..., 10L; nearest-rank p50 = 5L, p99 = 10L."""
        latency = 100
        cluster = _cluster(total=2, group=2, latency=latency, input_load=0, model="m")
        workload = FixedWorkload([Request(i, 5, "m") for i in range(10)])
        result, report = simulate_serving(
            cluster, FIFOScheduler(), workload, slo=SLO(5 * latency)
        )
        assert result.latencies() == [latency * k for k in range(1, 11)]
        assert report is not None
        assert report.p50 == 5 * latency
        assert report.p95 == 10 * latency
        assert report.p99 == 10 * latency
        # 5 of 10 latencies exceed the 500-cycle target.
        assert report.violation_rate == pytest.approx(0.5)
        goodput = 5 * 1e6 / result.makespan
        assert report.goodput_per_megacycle == pytest.approx(goodput)


class TestDeterminism:
    def test_same_seed_same_records(self):
        cluster = _cluster(total=8, group=4, latency=5000, input_load=500)
        def mk():
            return PoissonWorkload(30.0, 60, seed=7, mix={"m": 1})
        a = ServeSimulator(cluster, FIFOScheduler(), mk()).run()
        b = ServeSimulator(cluster, FIFOScheduler(), mk()).run()
        assert a.records == b.records
        assert a.busy_cycles == b.busy_cycles

    def test_all_requests_complete(self):
        cluster = _cluster(total=8, group=2, latency=3000, input_load=0)
        result = ServeSimulator(
            cluster,
            make_scheduler("sjf"),
            PoissonWorkload(100.0, 80, seed=1, mix={"m": 1}),
        ).run()
        assert result.num_requests == 80
        assert {r.rid for r in result.records} == set(range(80))


class TestClosedLoop:
    def test_population_quota_completes(self):
        cluster = _cluster(total=4, group=4, latency=2000, input_load=0)
        workload = ClosedLoopWorkload(
            clients=3, requests_per_client=4, think_cycles=1000.0, seed=5,
            mix={"m": 1},
        )
        result = ServeSimulator(cluster, FIFOScheduler(), workload).run()
        assert result.num_requests == 12

    def test_closed_loop_self_throttles(self):
        """With one replica and zero-ish think time, throughput caps at the
        service rate no matter the population."""
        latency = 1000
        cluster = _cluster(total=4, group=4, latency=latency, input_load=0)
        workload = ClosedLoopWorkload(
            clients=8, requests_per_client=5, think_cycles=1.0, seed=2, mix={"m": 1}
        )
        result = ServeSimulator(cluster, FIFOScheduler(), workload).run()
        assert result.num_requests == 40
        assert result.throughput_per_megacycle <= 1e6 / latency + 1

    def test_run_metrics_fold_matches_records(self):
        """Closed-loop clients batching onto two 4-chip pipelines that share
        one DRAM channel: the serve.* series folded at the end of the run
        equal what the records say, and the memory-channel wait and
        backpressure series keep the values per-event observes gave."""
        cluster = build_mcm_cluster(lenet_spec(), 8, stages=4, memory_channels=1)
        workload = ClosedLoopWorkload(
            clients=8, requests_per_client=10, think_cycles=500.0, seed=4,
            mix={"lenet": 1.0},
        )
        METRICS.reset()
        result = ServeSimulator(cluster, make_scheduler("batch", max_batch=3), workload).run()
        snap = METRICS.snapshot()
        hists = {
            name: (h["count"], h["total"], h["min"], h["max"])
            for name, h in snap["histograms"].items()
        }

        def stats(values):
            return len(values), sum(values), min(values), max(values)

        records = result.records
        # A replica starts at most one batch per cycle.
        batches = {(r.replica, r.start): r.batch_size for r in records}
        assert snap["counters"]["serve.requests"] == len(records) == 80
        assert snap["counters"]["serve.dispatches"] == len(batches)
        assert hists["serve.batch_size"] == stats(list(batches.values()))
        assert hists["serve.latency_cycles"] == stats([r.latency for r in records])
        assert hists["serve.queue_cycles"] == stats([r.queue_cycles for r in records])
        assert hists["serve.memory_channel.wait_cycles"] == (4, 331, 6, 218)
        assert hists["serve.pipeline.backpressure_cycles"] == (50, 67602, 405, 1641)
        assert len(batches) == 55 and max(batches.values()) == 3


def _records_digest(records) -> str:
    """SHA-256 of every field of every record, in completion order."""
    blob = json.dumps([dataclasses.astuple(r) for r in records]).encode()
    return hashlib.sha256(blob).hexdigest()


class TestPinnedRuns:
    """Two seeded lenet runs on the object loop: 16 cores in 4-core groups,
    2400 Poisson requests.  Any change to the loop's arithmetic or event
    order moves a pin; time-series collection must move none."""

    CASES = {
        "lenet_fifo": (
            ("fifo", 1, 120.0, 7),
            (2400, 20078404, 3613,
             "28fd042063ac8aee4d8ee41273f5b6cfab750564f650b1c518b67307482931af"),
        ),
        "lenet_batch": (
            ("batch", 4, 240.0, 11),
            (2400, 9888971, 3721,
             "1565faacae33a8c13fe19b7f925daa5f41246f8d42f3d2271865c7ba9395f8ce"),
        ),
    }

    @pytest.fixture(scope="class")
    def cluster(self):
        return build_spec_cluster(lenet_spec(), 16, 4)

    @pytest.mark.parametrize("ts", [False, True], ids=["ts-off", "ts-on"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_pinned_outputs(self, cluster, case, ts):
        (scheduler, batch, rate, seed), pins = self.CASES[case]
        workload = PoissonWorkload(rate, 2400, seed=seed, mix={"lenet": 1.0})
        if ts:
            enable_timeseries()
        try:
            result = ServeSimulator(
                cluster, make_scheduler(scheduler, max_batch=batch), workload,
                fastpath="off",
            ).run()
        finally:
            disable_timeseries()
            clear_timeseries()
        assert result.columns is None  # the object loop, not the columnar one
        p99 = int(percentile(result.latencies(), 99))
        digest = _records_digest(result.records)
        assert (result.num_requests, result.makespan, p99, digest) == pins
