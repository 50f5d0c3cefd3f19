"""Tests for the cycle-level wormhole simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import (
    Mesh2D,
    NoCConfig,
    NoCSimulator,
    Packet,
    estimate_drain_cycles,
    neighbor_traffic,
    segment_message,
    transpose_traffic,
    uniform_random_traffic,
)

from .conftest import group_stream_8x8, pair_stream_4x4, saturated_uniform_4x4


def run_sim(mesh, packets, config=None):
    sim = NoCSimulator(mesh, config or NoCConfig())
    sim.inject(packets)
    return sim.run()


class TestSinglePacket:
    def test_delivered(self):
        mesh = Mesh2D(4, 4)
        stats = run_sim(mesh, [Packet(src=0, dst=15, num_flits=20)])
        assert stats.packets_delivered == 1
        assert stats.flits_delivered == 20

    def test_flit_hops_equals_flits_times_distance(self):
        mesh = Mesh2D(4, 4)
        stats = run_sim(mesh, [Packet(src=0, dst=15, num_flits=20)])
        assert stats.flit_hops == 20 * mesh.hop_distance(0, 15)

    def test_zero_load_latency_formula(self):
        """Documented model: head = (stages-1) + hops*(stages+link-1); the
        tail follows one flit per cycle at a single physical channel."""
        mesh = Mesh2D(4, 1)
        cfg = NoCConfig(physical_channels=1)
        n_flits = 8
        stats = run_sim(mesh, [Packet(src=0, dst=3, num_flits=n_flits)], cfg)
        hops = 3
        per_hop = cfg.router_stages + cfg.link_latency - 1
        expected_head = (cfg.router_stages - 1) + per_hop * hops
        expected_tail = expected_head + (n_flits - 1)
        assert stats.max_packet_latency == expected_tail

    def test_closer_destination_is_faster(self):
        mesh = Mesh2D(4, 4)
        near = run_sim(mesh, [Packet(src=0, dst=1, num_flits=10)])
        far = run_sim(mesh, [Packet(src=0, dst=15, num_flits=10)])
        assert near.cycles < far.cycles

    def test_physical_channels_speed_up_concurrent_packets(self):
        """One wormhole packet is bound by its VC's credit loop, so the
        second physical channel pays off once several packets (on different
        VCs) compete for the same link."""
        mesh = Mesh2D(2, 1)
        def packets():
            return [Packet(src=0, dst=1, num_flits=20) for _ in range(3)]
        slow = run_sim(mesh, packets(), NoCConfig(physical_channels=1))
        fast = run_sim(mesh, packets(), NoCConfig(physical_channels=2))
        assert fast.cycles < slow.cycles


class TestConservation:
    def test_all_packets_delivered_uniform(self):
        mesh = Mesh2D(4, 4)
        tm = uniform_random_traffic(16, 200_000, seed=5)
        packets = tm.to_packets(NoCConfig())
        stats = run_sim(mesh, packets)
        assert stats.packets_delivered == len(packets)
        assert stats.flits_delivered == sum(p.num_flits for p in packets)

    def test_flit_hops_match_analytical(self):
        mesh = Mesh2D(4, 4)
        cfg = NoCConfig()
        tm = uniform_random_traffic(16, 50_000, seed=6)
        stats = run_sim(mesh, tm.to_packets(cfg), cfg)
        assert stats.flit_hops == tm.total_flit_hops(mesh, cfg)

    def test_energy_events_consistent(self):
        """Each flit is written+read once per router it enters."""
        mesh = Mesh2D(4, 4)
        cfg = NoCConfig()
        tm = neighbor_traffic(mesh, 1216)
        stats = run_sim(mesh, tm.to_packets(cfg), cfg)
        e = stats.energy
        # Every buffered flit is eventually read out.
        assert e.buffer_reads == e.buffer_writes
        # Crossbar traversals = hops + final ejections.
        assert e.crossbar_traversals == stats.flit_hops + stats.flits_delivered
        assert e.link_traversals == stats.flit_hops

    def test_empty_run(self):
        stats = NoCSimulator(Mesh2D(2, 2), NoCConfig()).run()
        assert stats.cycles == 0
        assert stats.packets_delivered == 0


class TestContention:
    def test_shared_sink_serializes(self):
        """Two sources to one sink take ~2x one source's time."""
        mesh = Mesh2D(4, 1)
        cfg = NoCConfig(physical_channels=1)
        one = run_sim(mesh, segment_message(1, 0, 5000, cfg), cfg)
        two = run_sim(
            mesh,
            segment_message(1, 0, 5000, cfg) + segment_message(2, 0, 5000, cfg),
            cfg,
        )
        assert two.cycles > 1.6 * one.cycles

    def test_disjoint_flows_parallel(self):
        """Flows on disjoint paths should not slow each other much."""
        mesh = Mesh2D(4, 2)
        cfg = NoCConfig()
        a = segment_message(0, 3, 10_000, cfg)  # top row
        b = segment_message(4, 7, 10_000, cfg)  # bottom row
        solo = run_sim(mesh, segment_message(0, 3, 10_000, cfg), cfg).cycles
        both = run_sim(mesh, a + b, cfg).cycles
        assert both < 1.3 * solo

    def test_injection_cycle_respected(self):
        mesh = Mesh2D(2, 1)
        late = Packet(src=0, dst=1, num_flits=2, injection_cycle=500)
        stats = run_sim(mesh, [late])
        assert stats.cycles >= 500

    def test_more_load_takes_longer(self):
        mesh = Mesh2D(4, 4)
        small = run_sim(mesh, uniform_random_traffic(16, 50_000, seed=1).to_packets(NoCConfig()))
        big = run_sim(mesh, uniform_random_traffic(16, 200_000, seed=1).to_packets(NoCConfig()))
        assert big.cycles > small.cycles


class TestPinnedBursts:
    @pytest.mark.parametrize(
        "burst, cycles",
        [(pair_stream_4x4, 1191), (group_stream_8x8, 4877), (saturated_uniform_4x4, 464)],
        ids=["burst_drain_4x4", "burst_drain_8x8", "saturated_4x4"],
    )
    def test_drain_cycles(self, burst, cycles):
        mesh, traffic = burst()
        cfg = NoCConfig()
        packets = traffic.to_packets(cfg)
        stats = run_sim(mesh, packets, cfg)
        assert stats.packets_delivered == len(packets)
        assert stats.cycles == cycles


class TestAgainstAnalyticalBound:
    @pytest.mark.parametrize("pattern", ["uniform", "transpose", "neighbor"])
    def test_sim_at_or_above_bound(self, pattern):
        mesh = Mesh2D(4, 4)
        cfg = NoCConfig()
        if pattern == "uniform":
            tm = uniform_random_traffic(16, 150_000, seed=2)
        elif pattern == "transpose":
            tm = transpose_traffic(mesh, 5000)
        else:
            tm = neighbor_traffic(mesh, 5000)
        stats = run_sim(mesh, tm.to_packets(cfg), cfg)
        bound = estimate_drain_cycles(tm, mesh, cfg).cycles
        # First-order estimate: the sim stays within a small factor of it.
        assert 0.5 * bound <= stats.cycles <= 6 * bound

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_random_traffic_always_drains(self, seed):
        """Deadlock-freedom probe: random patterns always complete."""
        rng = np.random.default_rng(seed)
        mesh = Mesh2D.for_nodes(8)
        m = np.zeros((8, 8), dtype=np.int64)
        for _ in range(10):
            s, d = rng.integers(0, 8, size=2)
            if s != d:
                m[s, d] += int(rng.integers(64, 5000))
        from repro.noc import TrafficMatrix

        tm = TrafficMatrix(m)
        packets = tm.to_packets(NoCConfig())
        stats = run_sim(mesh, packets)
        assert stats.packets_delivered == len(packets)


class TestValidation:
    def test_rejects_offmesh_packet(self):
        sim = NoCSimulator(Mesh2D(2, 2), NoCConfig())
        with pytest.raises(ValueError):
            sim.inject([Packet(src=0, dst=7, num_flits=2)])

    def test_max_cycles_guard(self):
        mesh = Mesh2D(4, 4)
        sim = NoCSimulator(mesh, NoCConfig())
        sim.inject(uniform_random_traffic(16, 500_000, seed=0).to_packets(NoCConfig()))
        with pytest.raises(RuntimeError):
            sim.run(max_cycles=10)


class TestWormholeInvariants:
    def test_flits_eject_in_order(self):
        """All flits of a packet arrive in index order (wormhole property)."""
        mesh = Mesh2D(4, 4)
        cfg = NoCConfig()
        ejected = []

        sim = NoCSimulator(mesh, cfg)
        original_eject = sim._eject

        def tracking_eject(flit, cycle, in_vc):
            ejected.append((flit.packet.pid, flit.index, cycle))
            original_eject(flit, cycle, in_vc)

        sim._eject = tracking_eject
        tm = uniform_random_traffic(16, 60_000, seed=9)
        sim.inject(tm.to_packets(cfg))
        sim.run()

        per_packet: dict[int, list[tuple[int, int]]] = {}
        for pid, index, cycle in ejected:
            per_packet.setdefault(pid, []).append((cycle, index))
        for pid, events in per_packet.items():
            indices = [i for _, i in sorted(events, key=lambda e: (e[0], e[1]))]
            assert indices == sorted(indices), f"packet {pid} flits out of order"

    def test_head_before_tail(self):
        mesh = Mesh2D(4, 4)
        cfg = NoCConfig()
        sim = NoCSimulator(mesh, cfg)
        tm = uniform_random_traffic(16, 60_000, seed=10)
        packets = tm.to_packets(cfg)
        sim.inject(packets)
        sim.run()
        for p in packets:
            assert 0 <= p.head_arrival_cycle <= p.tail_arrival_cycle

    def test_latency_at_least_zero_load(self):
        """No packet beats the zero-load latency of its route."""
        mesh = Mesh2D(4, 4)
        cfg = NoCConfig()
        sim = NoCSimulator(mesh, cfg)
        tm = uniform_random_traffic(16, 100_000, seed=11)
        packets = tm.to_packets(cfg)
        sim.inject(packets)
        sim.run()
        per_hop = cfg.router_stages + cfg.link_latency - 1
        for p in packets:
            hops = mesh.hop_distance(p.src, p.dst)
            min_latency = (cfg.router_stages - 1) + per_hop * hops
            assert p.latency >= min_latency

    def test_no_buffer_overflow(self):
        """Credit flow control keeps every input VC within its capacity."""
        mesh = Mesh2D(4, 4)
        cfg = NoCConfig(vc_buffer_flits=2)
        sim = NoCSimulator(mesh, cfg)
        tm = uniform_random_traffic(16, 80_000, seed=12)
        sim.inject(tm.to_packets(cfg))

        original_step = sim._step

        def checked_step():
            moved = original_step()
            for router in sim.routers:
                for port_vcs in router.inputs:
                    for vc in port_vcs:
                        assert len(vc.fifo) <= cfg.vc_buffer_flits
            return moved

        sim._step = checked_step
        stats = sim.run()
        assert stats.packets_delivered > 0
