"""Per-chip stage assignment and the MCM pipeline plan."""

import pytest

from repro.accel import ChipConfig
from repro.mcm import (
    InterChipLink,
    McmStage,
    McmTopology,
    balanced_stage_split,
    build_mcm_plan,
    mcm_service,
)
from repro.mcm.pipeline import stage_subspec
from repro.models import get_spec, lenet_spec, vgg19_spec
from repro.models.spec import LayerSpec
from repro.partition import build_traditional_plan
from repro.sim import InferenceSimulator, SimConfig


def fake_layers(macs_list):
    layers = []
    for i, m in enumerate(macs_list):
        # Dense layer with in=m, out=1 -> macs == m.
        layers.append(
            LayerSpec(name=f"l{i}", kind="dense", in_shape=(m,), out_shape=(1,))
        )
    return layers


class TestBalancedStageSplit:
    def test_fewer_layers_than_stages(self):
        split = balanced_stage_split(fake_layers([10, 20, 30]), 8)
        sizes = [len(s) for s in split]
        assert sizes[:3] == [1, 1, 1]
        assert sum(sizes) == 3

    def test_more_layers_than_stages(self):
        split = balanced_stage_split(fake_layers([10] * 10), 3)
        assert all(split)  # every stage non-empty
        assert sum(len(s) for s in split) == 10

    def test_contiguity_preserved(self):
        layers = fake_layers([5, 10, 15, 20, 25])
        split = balanced_stage_split(layers, 2)
        flattened = [l for stage in split for l in stage]
        assert flattened == layers

    def test_balances_macs(self):
        """A heavy layer gets its own stage instead of dragging neighbours."""
        split = balanced_stage_split(fake_layers([100, 100, 1000, 100, 100]), 3)
        macs = [sum(l.macs for l in s) for s in split if s]
        assert max(macs) == 1000  # the heavy layer is alone at the max

    def test_empty_input(self):
        assert balanced_stage_split([], 4) == [[], [], [], []]

    def test_invalid_stage_count(self):
        with pytest.raises(ValueError):
            balanced_stage_split(fake_layers([1]), 0)


def one_core_chips(num_cores: int) -> McmTopology:
    """The §II.B layer pipeline: one stage per core, NoC-rate hand-offs."""
    noc = ChipConfig.table2(num_cores).noc
    return McmTopology.build(
        num_cores, cores_per_chip=1, link=InterChipLink.match_noc(noc)
    )


def single_pass(spec, num_cores: int = 16):
    """The layer pipeline's service, input load excluded (as the ablation)."""
    plan = build_mcm_plan(spec, one_core_chips(num_cores))
    return mcm_service(plan, SimConfig(include_input_load=False))


class TestLayerPipelineOnOneCoreChips:
    """§II.B: pipelining layers across one chip's cores, as an MCM of
    one-core chips."""

    def test_lenet_stage_assignment(self):
        plan = build_mcm_plan(lenet_spec(), one_core_chips(16))
        assert plan.occupied_stages == 4  # 4 compute layers
        assert len(plan.stages) == 16

    def test_vgg19_fills_all_stages(self):
        plan = build_mcm_plan(vgg19_spec(), one_core_chips(16))
        assert plan.occupied_stages == 16

    def test_adjacent_stage_cores_adjacent(self):
        plan = build_mcm_plan(vgg19_spec(), one_core_chips(16))
        for i in range(plan.num_stages - 1):
            assert plan.transfer_hops(i) == 1

    def test_snake_covers_all_nodes(self):
        for cores in (8, 16, 32):
            plan = build_mcm_plan(vgg19_spec(), one_core_chips(cores))
            assert sorted(s.chip for s in plan.stages) == list(range(cores))

    def test_rectangular_mesh_adjacency(self):
        topology = one_core_chips(8)  # 4x2 mesh
        assert (topology.chip_mesh.width, topology.chip_mesh.height) == (4, 2)
        plan = build_mcm_plan(vgg19_spec(), topology)
        for i in range(plan.num_stages - 1):
            assert plan.transfer_hops(i) == 1

    def test_imbalance_above_one_for_real_nets(self):
        """The paper's §II.B claim: heterogeneous layers don't balance."""
        assert single_pass(get_spec("alexnet")).imbalance > 1.5

    def test_single_pass_worse_than_intra_layer(self):
        """Pipelining cannot beat intra-layer partitioning on single-pass
        latency: stages run serially on one core each."""
        chip = ChipConfig.table2(16)
        for network in ("lenet", "alexnet"):
            spec = get_spec(network)
            result = InferenceSimulator(
                chip, SimConfig(include_input_load=False)
            ).simulate(build_traditional_plan(spec, 16))
            assert single_pass(spec).latency_cycles > result.total_cycles

    def test_steady_interval_at_most_latency(self):
        svc = single_pass(get_spec("convnet"))
        assert svc.interval_cycles <= svc.latency_cycles


class TestBuildMcmPlan:
    def test_stages_cover_all_compute_layers_in_order(self):
        spec = lenet_spec()
        plan = build_mcm_plan(spec, McmTopology.build(2, cores_per_chip=4))
        assert plan.num_stages == 2
        flattened = [l for s in plan.stages for l in s.layers]
        assert flattened == spec.compute_layers()

    def test_split_matches_balanced_stage_split(self):
        spec = lenet_spec()
        topo = McmTopology.build(4, cores_per_chip=4)
        plan = build_mcm_plan(spec, topo)
        assert [s.layers for s in plan.stages] == balanced_stage_split(
            spec.compute_layers(), 4
        )

    def test_stage_placement_follows_snake_order(self):
        topo = McmTopology.build(4, cores_per_chip=2)
        plan = build_mcm_plan(lenet_spec(), topo)
        assert [s.chip for s in plan.stages] == topo.snake_order()
        for i in range(plan.num_stages - 1):
            assert plan.transfer_hops(i) == 1

    def test_more_chips_than_layers_leaves_empty_stages(self):
        spec = lenet_spec()
        chips = len(spec.compute_layers()) + 3
        plan = build_mcm_plan(spec, McmTopology.build(chips, cores_per_chip=2))
        empty = [s for s in plan.stages if not s.layers]
        assert empty
        assert plan.occupied_stages == len(spec.compute_layers())
        for stage in empty:
            assert stage.plan is None
            assert stage.output_bytes == 0
            assert stage.macs == 0

    def test_inbound_transfers_use_predecessor_output_bytes(self):
        topo = McmTopology.build(2, cores_per_chip=4)
        plan = build_mcm_plan(lenet_spec(), topo)
        transfers = plan.inbound_transfer_cycles()
        assert transfers[0] == 0
        assert transfers[1] == topo.link.transfer_cycles(
            plan.stages[0].output_bytes, plan.transfer_hops(0)
        )

    def test_imbalance_at_least_one(self):
        plan = build_mcm_plan(lenet_spec(), McmTopology.build(4, cores_per_chip=2))
        assert mcm_service(plan).imbalance >= 1.0

    def test_transfer_hops_bounds(self):
        plan = build_mcm_plan(lenet_spec(), McmTopology.build(2, cores_per_chip=2))
        with pytest.raises(ValueError, match="no boundary"):
            plan.transfer_hops(1)


class TestMcmStage:
    def test_layers_require_plan(self):
        with pytest.raises(ValueError, match="iff"):
            McmStage(index=0, chip=0, layers=lenet_spec().compute_layers())

    def test_output_bytes_are_16bit_values(self):
        spec = lenet_spec()
        plan = build_mcm_plan(spec, McmTopology.build(2, cores_per_chip=4))
        stage = plan.stages[0]
        assert stage.output_bytes == stage.layers[-1].output_volume * 2


class TestStageSubspec:
    def test_input_shape_is_first_layer_input(self):
        """The sub-spec streams inbound activations like a network input, so
        the intra-chip plan never charges them at the on-chip NoC rate."""
        spec = lenet_spec()
        layers = spec.compute_layers()[2:]
        sub = stage_subspec(spec, 1, layers)
        assert sub.input_shape == layers[0].in_shape
        assert sub.layers == layers
        assert sub.name == f"{spec.name}::stage1"

    def test_empty_stage_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stage_subspec(lenet_spec(), 0, [])


class TestExplicitSplit:
    def test_custom_split_is_used(self):
        from repro.mcm.topology import McmTopology
        from repro.models.zoo import convnet_spec

        spec = convnet_spec()
        layers = spec.compute_layers()
        topo = McmTopology.build(4)
        split = [layers[:2], layers[2:], [], []]
        plan = build_mcm_plan(spec, topo, split=split)
        assert [len(s.layers) for s in plan.stages] == [2, len(layers) - 2, 0, 0]

    def test_split_must_cover_all_chips(self):
        from repro.mcm.topology import McmTopology
        from repro.models.zoo import convnet_spec

        spec = convnet_spec()
        layers = spec.compute_layers()
        with pytest.raises(ValueError):
            build_mcm_plan(spec, McmTopology.build(4), split=[layers])
