"""Multi-stage replica groups: the Cluster surface and the pipelined event loop."""

import pytest

from repro.mcm import PipelineService
from repro.models import lenet_spec
from repro.obs import clear_timeseries, disable_timeseries, enable_timeseries
from repro.obs.metrics import percentile
from repro.serve import Cluster, build_mcm_cluster
from repro.serve.scheduler import BatchingScheduler, FIFOScheduler, make_scheduler
from repro.serve.simulator import ServeSimulator
from repro.serve.workload import LoadGenerator, PoissonWorkload, Request


class FixedWorkload(LoadGenerator):
    name = "fixed"

    def __init__(self, requests):
        self._requests = list(requests)

    def initial(self):
        return list(self._requests)


def _hand_cluster(pipelines=1, stage_cycles=(50, 100), transfers=(0, 10), input_load=20):
    """Two 1-core chips with hand-picked cycles: latency 180, interval 110,
    occupancy(1) = 70."""
    svc = PipelineService(
        model="m",
        scheme="traditional",
        chips=len(stage_cycles),
        cores_per_chip=1,
        stage_cycles=tuple(stage_cycles),
        transfer_cycles=tuple(transfers),
        input_load_cycles=input_load,
    )
    chips = len(stage_cycles)
    return Cluster(total_cores=pipelines * chips, group_cores=chips, services={"m": svc})


class TestClusterSurface:
    def test_geometry_properties(self):
        cluster = _hand_cluster(pipelines=3)
        assert cluster.num_groups == 3
        assert cluster.stages == 2
        assert cluster.group_cores == 2
        assert cluster.total_cores == 6

    def test_latency_and_capacity(self):
        """The 110-cycle interval outlasts the 70-cycle front, so it sets
        the rate."""
        cluster = _hand_cluster(pipelines=2)
        assert cluster.unloaded_latency("m") == 180
        assert cluster.capacity_per_megacycle("m") == pytest.approx(2e6 / 110)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="no service"):
            _hand_cluster().service("nope")

    def test_describe(self):
        assert "1 x 2-chip pipelines" in _hand_cluster().describe()

    def test_validation_rejects_mismatched_service(self):
        svc = _hand_cluster().services["m"]  # 2 one-core chips
        with pytest.raises(ValueError, match="simulated for 2 cores"):
            Cluster(total_cores=4, group_cores=4, services={"m": svc})

    def test_validation_rejects_bad_counts(self):
        svc = _hand_cluster().services["m"]
        with pytest.raises(ValueError, match="core counts"):
            Cluster(total_cores=0, group_cores=2, services={"m": svc})
        with pytest.raises(ValueError, match="memory_channels"):
            Cluster(total_cores=2, group_cores=2, services={"m": svc}, memory_channels=0)


class TestBuildMcmCluster:
    def test_stage_default_is_one_package_pipeline(self):
        cluster = build_mcm_cluster(lenet_spec(), 4, cores_per_chip=2)
        assert cluster.stages == 4
        assert cluster.num_groups == 1
        assert cluster.plans["lenet"].topology.num_chips == 4

    def test_stages_carve_pipelines(self):
        cluster = build_mcm_cluster(lenet_spec(), 4, cores_per_chip=2, stages=2)
        assert cluster.stages == 2
        assert cluster.num_groups == 2
        assert (cluster.group_cores, cluster.total_cores) == (4, 8)

    def test_bad_tilings_rejected(self):
        with pytest.raises(ValueError, match="does not tile"):
            build_mcm_cluster(lenet_spec(), 4, stages=3)
        with pytest.raises(ValueError, match="chips must be positive"):
            build_mcm_cluster(lenet_spec(), 0)


class TestPipelinedEventLoop:
    def test_release_before_completion_hand_trace(self):
        """r0 runs [0, 180); its front drains at 70, so r1 starts at 70 —
        but the pipeline completes one request per 110-cycle interval, so
        r1 finishes at the floor 180 + 110 = 290, not at 70 + 180 = 250."""
        cluster = _hand_cluster()
        workload = FixedWorkload([Request(0, 0, "m"), Request(1, 0, "m")])
        result = ServeSimulator(cluster, FIFOScheduler(), workload).run()

        by_rid = {r.rid: r for r in result.records}
        assert (by_rid[0].start, by_rid[0].finish) == (0, 180)
        assert (by_rid[1].start, by_rid[1].finish) == (70, 290)
        # Busy: r0 occupies the front for 70, r1 for 70 + 40 backpressure.
        assert result.busy_cycles == {0: 180}

    def test_saturated_stream_completes_per_interval(self):
        cluster = _hand_cluster()
        workload = FixedWorkload([Request(i, 0, "m") for i in range(5)])
        result = ServeSimulator(cluster, FIFOScheduler(), workload).run()
        finishes = sorted(r.finish for r in result.records)
        assert finishes == [180 + 110 * i for i in range(5)]

    def test_batched_dispatch_uses_occupancy(self):
        """A batch of 3 finishes at latency + 2 intervals; the front frees
        at occupancy(3) = 70 + 220 = 290 < 400, so a release event fires."""
        cluster = _hand_cluster()
        workload = FixedWorkload([Request(i, 0, "m") for i in range(3)])
        scheduler = BatchingScheduler(max_batch=3)
        result = ServeSimulator(cluster, scheduler, workload).run()
        assert {r.finish for r in result.records} == {400}
        assert result.busy_cycles == {0: 290}

    def test_two_pipelines_serve_concurrently(self):
        cluster = _hand_cluster(pipelines=2)
        workload = FixedWorkload([Request(0, 0, "m"), Request(1, 0, "m")])
        result = ServeSimulator(cluster, FIFOScheduler(), workload).run()
        assert {r.finish for r in result.records} == {180}
        assert {r.replica for r in result.records} == {0, 1}


class TestPinnedRuns:
    """Two seeded lenet runs on 4 chips (structure plans) through the
    pipelined object loop, 600 Poisson requests each."""

    CASES = {
        "mcm_2s2p_fifo": ((2, "fifo", 1, 400.0, 7), (600, 1505825, 3972)),
        "mcm_4s1p_batch": ((4, "batch", 4, 240.0, 11), (600, 2450063, 11485)),
    }

    @staticmethod
    def _run(stages, scheduler, batch, rate, seed, ts):
        spec = lenet_spec()
        cluster = build_mcm_cluster(spec, 4, stages=stages, scheme="structure")
        workload = PoissonWorkload(rate, 600, seed=seed, mix={spec.name: 1.0})
        if ts:
            enable_timeseries()
        try:
            return ServeSimulator(
                cluster, make_scheduler(scheduler, max_batch=batch), workload,
                fastpath="off",
            ).run()
        finally:
            disable_timeseries()
            clear_timeseries()

    @pytest.mark.parametrize("case", list(CASES))
    def test_pinned_outputs(self, case):
        """Pinned with time series off; turning them on changes no record."""
        args, pins = self.CASES[case]
        result = self._run(*args, ts=False)
        p99 = int(percentile(result.latencies(), 99))
        assert (result.num_requests, result.makespan, p99) == pins
        assert self._run(*args, ts=True).records == result.records
