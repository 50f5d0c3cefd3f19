"""Replica-group construction and per-plan service memoization."""

import pytest

from repro.models import convnet_spec, lenet_spec
from repro.models.spec import SpecBuilder
from repro.partition.traditional import build_traditional_plan
from repro.serve.cluster import (
    Cluster,
    PlanService,
    build_replica_plan,
    build_spec_cluster,
    clear_service_memo,
    default_group_map,
    service_for_plan,
)
from repro.sim.engine import InferenceSimulator, SimConfig
from repro.accel import ChipConfig


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_service_memo()
    yield
    clear_service_memo()


class TestPlanService:
    def test_batch_amortizes_only_the_input_load(self):
        svc = PlanService("m", "traditional", 4, latency_cycles=1000, input_load_cycles=200)
        assert svc.body_cycles == 800
        assert svc.batch_cycles(1) == 1000
        assert svc.batch_cycles(3) == 200 + 3 * 800
        assert svc.batch_cycles(3) < 3 * svc.batch_cycles(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanService("m", "s", 4, latency_cycles=0, input_load_cycles=0)
        with pytest.raises(ValueError):
            PlanService("m", "s", 4, latency_cycles=10, input_load_cycles=11)
        with pytest.raises(ValueError):
            PlanService("m", "s", 4, latency_cycles=10, input_load_cycles=5).batch_cycles(0)


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
        svc = PlanService("m", "traditional", 3, latency_cycles=10, input_load_cycles=0)
        with pytest.raises(ValueError):
            Cluster(total_cores=16, group_cores=3, services={"m": svc})

    def test_rejects_mismatched_service_cores(self):
        svc = PlanService("m", "traditional", 8, latency_cycles=10, input_load_cycles=0)
        with pytest.raises(ValueError):
            Cluster(total_cores=16, group_cores=4, services={"m": svc})

    def test_unknown_model_lookup_names_known_ones(self):
        cluster = build_spec_cluster(lenet_spec(), 4, 4)
        with pytest.raises(KeyError, match="lenet"):
            cluster.service("resnet")
