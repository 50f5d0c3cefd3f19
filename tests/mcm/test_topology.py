"""InterChipLink timing math and the mesh-of-meshes topology."""

import pytest

from repro.mcm import InterChipLink, McmTopology
from repro.noc.packet import NoCConfig
from repro.noc.topology import Mesh2D


class TestInterChipLink:
    def test_hand_computed_transfer(self):
        """100 B over 2 hops: ceil(100/64)=2 serialization + 8 sync +
        2*16 hop latency, all x4 core cycles per NoC cycle."""
        link = InterChipLink()
        assert link.transfer_cycles(100, 2) == (2 + 8 + 32) * 4

    def test_zero_bytes_cost_nothing(self):
        assert InterChipLink().transfer_cycles(0, 3) == 0

    def test_minimum_one_hop(self):
        link = InterChipLink()
        assert link.transfer_cycles(64, 0) == link.transfer_cycles(64, 1)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            InterChipLink().transfer_cycles(-1, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bytes_per_cycle": 0},
            {"bytes_per_cycle": -4},
            {"hop_latency_cycles": -1},
            {"sync_overhead_cycles": -1},
            {"core_clock_divider": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InterChipLink(**kwargs)

    def test_match_noc_reproduces_onchip_handoff(self):
        """Table II's NoC as a link: 64-byte flits on 2 physical channels
        serialize 128 B per NoC cycle; the head pays 3 - 1 = 2 router cycles
        plus 3 + 1 - 1 = 3 cycles per hop (3 router stages, 1-cycle links);
        the core runs 4 cycles per NoC cycle."""
        link = InterChipLink.match_noc(NoCConfig())
        assert link == InterChipLink(
            bytes_per_cycle=128,
            hop_latency_cycles=3,
            sync_overhead_cycles=2,
            core_clock_divider=4,
        )
        assert link.transfer_cycles(100, 2) == (1 + 2 + 3 * 2) * 4
        assert link.transfer_cycles(1000, 1) == (8 + 2 + 3) * 4
        assert link.transfer_cycles(1024, 3) == (8 + 2 + 3 * 3) * 4
        assert link.transfer_cycles(128, 0) == (1 + 2 + 3) * 4  # one-hop floor

    def test_transfer_cycles_scale_with_bytes(self):
        link = InterChipLink.match_noc(NoCConfig())
        assert link.transfer_cycles(100_000, 1) > 10 * link.transfer_cycles(1_000, 1)


class TestMcmTopology:
    def test_build_shapes(self):
        topo = McmTopology.build(4, cores_per_chip=16)
        assert topo.chip_mesh.num_nodes == 4
        assert topo.core_mesh.num_nodes == 16
        assert topo.total_cores == 64
        assert topo.chip_config().num_cores == 16

    def test_snake_order_keeps_stages_adjacent(self):
        for chips in (2, 4, 6, 8, 9, 16):
            topo = McmTopology.build(chips, cores_per_chip=1)
            order = topo.snake_order()
            assert sorted(order) == list(range(chips))
            for a, b in zip(order, order[1:]):
                assert topo.chip_hops(a, b) == 1

    def test_mismatched_chip_mesh_rejected(self):
        with pytest.raises(ValueError, match="chip mesh"):
            McmTopology(
                num_chips=2,
                cores_per_chip=1,
                chip_mesh=Mesh2D.for_nodes(4),
                core_mesh=Mesh2D.for_nodes(1),
            )

    def test_mismatched_core_mesh_rejected(self):
        with pytest.raises(ValueError, match="core mesh"):
            McmTopology(
                num_chips=2,
                cores_per_chip=4,
                chip_mesh=Mesh2D.for_nodes(2),
                core_mesh=Mesh2D.for_nodes(2),
            )

    def test_describe_mentions_geometry_and_link(self):
        text = McmTopology.build(4, cores_per_chip=16).describe()
        assert "4-chip MCM" in text
        assert "16 cores/chip" in text
        assert "B/cycle" in text
