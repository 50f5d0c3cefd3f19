"""The memory_channels knob: serializing DRAM input streaming across groups."""

import pytest

from repro.models import lenet_spec
from repro.serve.cluster import Cluster, build_spec_cluster
from repro.serve.scheduler import FIFOScheduler
from repro.serve.simulator import ServeSimulator
from repro.serve.workload import LoadGenerator, PoissonWorkload, Request

from .services import one_stage


class FixedWorkload(LoadGenerator):
    name = "fixed"

    def __init__(self, requests):
        self._requests = list(requests)

    def initial(self):
        return list(self._requests)


def _cluster(memory_channels=None, total=8, group=4, latency=1000, input_load=200):
    svc = one_stage("m", group, latency, input_load)
    return Cluster(
        total_cores=total,
        group_cores=group,
        services={"m": svc},
        memory_channels=memory_channels,
    )


class TestSerializedInputStreaming:
    def test_one_channel_staggers_concurrent_input_loads(self):
        """Two groups, ONE channel: r1's DRAM stream waits for r0's to finish
        at t=200, so r1 finishes at 200 + 1000 = 1200 instead of 1000."""
        cluster = _cluster(memory_channels=1)
        workload = FixedWorkload([Request(0, 0, "m"), Request(1, 0, "m")])
        result = ServeSimulator(cluster, FIFOScheduler(), workload).run()
        by_rid = {r.rid: r for r in result.records}
        assert by_rid[0].finish == 1000
        assert by_rid[1].finish == 1200
        assert sorted(result.busy_cycles.values()) == [1000, 1200]

    def test_enough_channels_change_nothing(self):
        """M == num_groups is the independent-channel model, bit-exactly."""
        workload = [Request(i, i * 50, "m") for i in range(6)]
        base = ServeSimulator(
            _cluster(), FIFOScheduler(), FixedWorkload(workload)
        ).run()
        capped = ServeSimulator(
            _cluster(memory_channels=2), FIFOScheduler(), FixedWorkload(workload)
        ).run()
        assert capped.records == base.records
        assert capped.busy_cycles == base.busy_cycles

    def test_default_none_matches_many_channels_on_poisson(self):
        def run(mc):
            workload = PoissonWorkload(40.0, 50, seed=3, mix={"lenet": 1.0})
            cluster = build_spec_cluster(
                lenet_spec(), 16, 4, memory_channels=mc
            )
            return ServeSimulator(cluster, FIFOScheduler(), workload).run()

        assert run(None).records == run(4).records

    def test_scarce_channels_only_delay(self):
        """Serializing input streams never makes any request finish earlier."""
        workload = [Request(i, 0, "m") for i in range(4)]
        free = ServeSimulator(
            _cluster(total=16), FIFOScheduler(), FixedWorkload(workload)
        ).run()
        tight = ServeSimulator(
            _cluster(total=16, memory_channels=1),
            FIFOScheduler(),
            FixedWorkload(workload),
        ).run()
        free_fin = {r.rid: r.finish for r in free.records}
        tight_fin = {r.rid: r.finish for r in tight.records}
        assert all(tight_fin[rid] >= free_fin[rid] for rid in free_fin)
        assert any(tight_fin[rid] > free_fin[rid] for rid in free_fin)


class TestValidationAndPassthrough:
    @pytest.mark.parametrize("mc", [0, -2])
    def test_nonpositive_channels_rejected(self, mc):
        with pytest.raises(ValueError, match="memory_channels"):
            _cluster(memory_channels=mc)

    def test_build_spec_cluster_passthrough(self):
        cluster = build_spec_cluster(lenet_spec(), 8, 4, memory_channels=1)
        assert cluster.memory_channels == 1
        assert build_spec_cluster(lenet_spec(), 8, 4).memory_channels is None
