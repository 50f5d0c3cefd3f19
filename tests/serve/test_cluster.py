"""Replica-group construction, per-plan service memoization and capacity."""

import pytest

from repro.models import convnet_spec, lenet_spec
from repro.models.spec import SpecBuilder
from repro.partition.traditional import build_traditional_plan
from repro.serve.cluster import (
    Cluster,
    build_mcm_cluster,
    build_replica_plan,
    build_spec_cluster,
    clear_service_memo,
    default_group_map,
    service_for_plan,
)
from repro.serve.scheduler import FIFOScheduler
from repro.serve.simulator import ServeSimulator
from repro.serve.workload import LoadGenerator, Request
from repro.sim.engine import InferenceSimulator, SimConfig
from repro.accel import ChipConfig

from .services import one_stage


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_service_memo()
    yield
    clear_service_memo()


class TestPlanService:
    """A plan's service is a one-stage pipeline."""

    def test_batch_amortizes_only_the_input_load(self):
        svc = one_stage("m", 4, latency_cycles=1000, input_load_cycles=200)
        assert svc.body_cycles == 800
        assert svc.batch_cycles(1) == 1000
        assert svc.batch_cycles(3) == 200 + 3 * 800
        assert svc.batch_cycles(3) < 3 * svc.batch_cycles(1)
        # One stage: the group frees exactly when its batch completes.
        assert svc.occupancy_cycles(3) == svc.batch_cycles(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            one_stage("m", 4, latency_cycles=0, input_load_cycles=0)
        with pytest.raises(ValueError):
            one_stage("m", 4, latency_cycles=10, input_load_cycles=11)
        with pytest.raises(ValueError):
            one_stage("m", 4, latency_cycles=10, input_load_cycles=5).batch_cycles(0)


class TestServiceMemo:
    def test_one_simulation_per_distinct_plan(self, monkeypatch):
        calls = []
        real = InferenceSimulator.simulate

        def counting(self, plan):
            calls.append(plan.name)
            return real(self, plan)

        monkeypatch.setattr(InferenceSimulator, "simulate", counting)
        plan = build_replica_plan(lenet_spec(), 4)
        first = service_for_plan(plan, model="lenet")
        again = service_for_plan(build_replica_plan(lenet_spec(), 4), model="lenet")
        assert len(calls) == 1
        assert first == again

    def test_plans_differing_only_in_layers_never_share_a_latency(self):
        # Same name, scheme, core count, MACs (10,000) and traffic (none):
        # only the layer shapes tell these one-core plans apart.
        chip = ChipConfig.table2(1)
        for first, second in [((1000, 10), (10, 1000)), ((10, 1000), (1000, 10))]:
            clear_service_memo()
            plans = [
                build_traditional_plan(
                    SpecBuilder("net", (fan_in,)).dense("fc", fan_out).build(), 1
                )
                for fan_in, fan_out in (first, second)
            ]
            engine = [InferenceSimulator(chip).simulate(p).total_cycles for p in plans]
            assert engine[0] != engine[1]
            assert [service_for_plan(p).latency_cycles for p in plans] == engine

    def test_matches_engine_result(self):
        plan = build_replica_plan(lenet_spec(), 4)
        svc = service_for_plan(plan, model="lenet")
        result = InferenceSimulator(ChipConfig.table2(4), SimConfig()).simulate(plan)
        assert svc.latency_cycles == result.total_cycles
        assert svc.input_load_cycles == result.input_load_cycles
        assert (svc.chips, svc.cores_per_chip) == (1, 4)
        assert svc.stage_cycles == (result.total_cycles - result.input_load_cycles,)
        assert svc.transfer_cycles == (0,)


class TestGroupMap:
    def test_skips_first_conv_and_indivisible_layers(self):
        gmap = default_group_map(convnet_spec(), 16)
        # conv1 (input-facing) excluded; conv2 (32->32) and conv3 (32->64)
        # both divide by 16.
        assert "conv1" not in gmap
        assert gmap["conv2"] == 16 and gmap["conv3"] == 16

    def test_structure_plan_moves_less_traffic(self):
        spec = convnet_spec()
        trad = build_replica_plan(spec, 4, "traditional")
        struct = build_replica_plan(spec, 4, "structure")
        assert struct.scheme == "structure"
        assert struct.total_traffic_bytes < trad.total_traffic_bytes

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="ss_mask"):
            build_replica_plan(convnet_spec(), 4, "ss")


class TestCluster:
    def test_group_arithmetic_and_capacity(self):
        cluster = build_spec_cluster(lenet_spec(), 8, 4)
        assert cluster.num_groups == 2
        lat = cluster.unloaded_latency("lenet")
        assert cluster.capacity_per_megacycle("lenet") == pytest.approx(2e6 / lat)
        assert "2 x 4-core" in cluster.describe()

    def test_single_core_groups_are_data_parallelism(self):
        cluster = build_spec_cluster(lenet_spec(), 4, 1)
        assert cluster.num_groups == 4
        # A 1-core plan has no synchronization traffic, so its service is
        # pure compute + input load.
        assert cluster.services["lenet"].cores == 1

    def test_rejects_non_tiling_groups(self):
        svc = one_stage("m", 3, latency_cycles=10)
        with pytest.raises(ValueError):
            Cluster(total_cores=16, group_cores=3, services={"m": svc})

    def test_rejects_mismatched_service_cores(self):
        svc = one_stage("m", 8, latency_cycles=10)
        with pytest.raises(ValueError):
            Cluster(total_cores=16, group_cores=4, services={"m": svc})

    def test_unknown_model_lookup_names_known_ones(self):
        cluster = build_spec_cluster(lenet_spec(), 4, 4)
        with pytest.raises(KeyError, match="lenet"):
            cluster.service("resnet")


class FixedWorkload(LoadGenerator):
    name = "fixed"

    def __init__(self, requests):
        self._requests = list(requests)

    def initial(self):
        return list(self._requests)


class TestCapacity:
    """One capacity definition for every layout:
    ``num_groups * 1e6 / max(occupancy_cycles(1), interval_cycles)``."""

    def test_one_stage_mcm_matches_single_chip_groups(self):
        """Four one-chip pipelines are four 16-core replica groups: the same
        service, so the same capacity."""
        spec = lenet_spec()
        mcm = build_mcm_cluster(spec, 4, stages=1)
        chip = build_spec_cluster(spec, 64, 16)
        assert mcm.services["lenet"] == chip.services["lenet"]
        assert mcm.capacity_per_megacycle("lenet") == chip.capacity_per_megacycle("lenet")
        assert chip.capacity_per_megacycle("lenet") == pytest.approx(
            4e6 / chip.unloaded_latency("lenet")
        )

    @pytest.mark.parametrize(
        "spec, chips, stages",
        [(convnet_spec(), 4, 2), (lenet_spec(), 4, 4), (lenet_spec(), 4, 1)],
        ids=["convnet-4x2", "lenet-4x4", "lenet-4x1"],
    )
    def test_capacity_is_the_saturated_fifo_rate(self, spec, chips, stages):
        """A saturated FIFO stream completes one request per group every
        ``1e6 * num_groups / capacity`` cycles, from the first completion on."""
        cluster = build_mcm_cluster(spec, chips, stages=stages)
        groups = cluster.num_groups
        workload = FixedWorkload([Request(i, 0, spec.name) for i in range(30 * groups)])
        result = ServeSimulator(cluster, FIFOScheduler(), workload).run()
        for g in range(groups):
            finishes = sorted(r.finish for r in result.records if r.replica == g)
            (period,) = {b - a for a, b in zip(finishes, finishes[1:])}
            assert cluster.capacity_per_megacycle(spec.name) == pytest.approx(
                groups * 1e6 / period
            )


class TestDeploymentPoles:
    """§I on a 16-core chip's two poles: one 16-core group (model
    parallelism) against sixteen one-core groups (data parallelism)."""

    @pytest.fixture(scope="class")
    def poles(self):
        cfg = SimConfig(include_input_load=False)
        return (
            build_spec_cluster(lenet_spec(), 16, 16, sim_config=cfg),
            build_spec_cluster(lenet_spec(), 16, 1, sim_config=cfg),
        )

    def test_model_parallel_wins_latency(self, poles):
        """The paper's QoS argument: cooperating cores answer sooner."""
        model_parallel, data_parallel = poles
        assert data_parallel.unloaded_latency("lenet") > model_parallel.unloaded_latency(
            "lenet"
        )

    def test_data_parallel_wins_throughput(self, poles):
        """And the datacenter argument: independent inferences deliver more
        total work because no cycles go to synchronization."""
        model_parallel, data_parallel = poles
        assert data_parallel.capacity_per_megacycle(
            "lenet"
        ) > model_parallel.capacity_per_megacycle("lenet")

    def test_one_stage_capacity_is_groups_over_latency(self, poles):
        model_parallel, data_parallel = poles
        assert model_parallel.capacity_per_megacycle("lenet") == pytest.approx(
            1e6 / model_parallel.unloaded_latency("lenet")
        )
        assert data_parallel.capacity_per_megacycle("lenet") == pytest.approx(
            16e6 / data_parallel.unloaded_latency("lenet")
        )

    def test_both_poles_charge_the_input_load_alike(self, poles):
        """The comparison stays apples to apples: each pole pays the input
        load iff the engine charges it."""
        for lean, group in zip(poles, (16, 1)):
            full = build_spec_cluster(lenet_spec(), 16, group)
            assert full.unloaded_latency("lenet") > lean.unloaded_latency("lenet")
