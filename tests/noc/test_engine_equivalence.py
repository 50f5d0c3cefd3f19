"""Bit-exactness of the event-driven engine against the reference simulator.

``NoCSimulator`` skips idle cycles, precomputes routes, and batches work per
event record; ``ReferenceNoCSimulator`` steps every cycle with the original
straight-line control flow.  Both must produce *identical* ``NoCStats`` —
including every :class:`EnergyEvents` counter — on any traffic pattern, so
the property test below drives both engines with randomized meshes, router
configurations, and packet sets and asserts full equality.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import (
    Mesh2D,
    NoCConfig,
    NoCSimulator,
    Packet,
    neighbor_traffic,
    transpose_traffic,
    uniform_random_traffic,
)

from .reference import ReferenceNoCSimulator


def run_both(mesh: Mesh2D, config: NoCConfig, make_packets):
    """Run both engines on fresh packet lists (Packet/Flit state is mutated)."""
    fast = NoCSimulator(mesh, config)
    fast.inject(make_packets())
    fast_stats = fast.run()

    ref = ReferenceNoCSimulator(mesh, config)
    ref.inject(make_packets())
    ref_stats = ref.run()
    return fast_stats, ref_stats


def assert_identical(fast, ref):
    assert fast == ref, f"engine divergence:\nfast={fast}\nref ={ref}"
    # Belt and braces: dataclass __eq__ already covers energy, but spell out
    # the counters so a failure names the diverging one.
    for field in (
        "buffer_writes",
        "buffer_reads",
        "crossbar_traversals",
        "link_traversals",
        "vc_allocations",
        "sa_arbitrations",
    ):
        assert getattr(fast.energy, field) == getattr(ref.energy, field), field


@st.composite
def mesh_and_traffic(draw):
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 4))
    if width * height < 2:
        width, height = 2, 2
    config = NoCConfig(
        num_vcs=draw(st.integers(1, 4)),
        vc_buffer_flits=draw(st.integers(1, 4)),
        router_stages=draw(st.integers(1, 4)),
        link_latency=draw(st.integers(1, 3)),
        physical_channels=draw(st.integers(1, 3)),
    )
    num_nodes = width * height
    n_packets = draw(st.integers(1, 25))
    specs = []
    for _ in range(n_packets):
        src = draw(st.integers(0, num_nodes - 1))
        dst = draw(st.integers(0, num_nodes - 1).filter(lambda d: d != src))
        specs.append(
            (src, dst, draw(st.integers(2, 8)), draw(st.integers(0, 40)))
        )
    return Mesh2D(width, height), config, specs


class TestPropertyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(mesh_and_traffic())
    def test_random_configs_and_packets(self, case):
        mesh, config, specs = case

        def make_packets():
            return [
                Packet(src=s, dst=d, num_flits=f, injection_cycle=t)
                for s, d, f, t in specs
            ]

        fast, ref = run_both(mesh, config, make_packets)
        assert_identical(fast, ref)


class TestPatternEquivalence:
    """Deterministic corpus: the canonical burst patterns on both mesh sizes."""

    def _check(self, mesh, traffic, config=None):
        config = config or NoCConfig()
        fast, ref = run_both(mesh, config, lambda: traffic.to_packets(config))
        assert_identical(fast, ref)

    def test_uniform_4x4(self):
        mesh = Mesh2D(4, 4)
        self._check(mesh, uniform_random_traffic(16, 40_000, seed=3))

    def test_uniform_8x8(self):
        mesh = Mesh2D(8, 8)
        self._check(mesh, uniform_random_traffic(64, 60_000, seed=4))

    def test_transpose_4x4(self):
        mesh = Mesh2D(4, 4)
        self._check(mesh, transpose_traffic(mesh, 2_000))

    def test_neighbor_4x4(self):
        mesh = Mesh2D(4, 4)
        self._check(mesh, neighbor_traffic(mesh, 2_000))

    def test_single_vc_single_channel(self):
        mesh = Mesh2D(4, 4)
        cfg = NoCConfig(num_vcs=1, physical_channels=1)
        self._check(mesh, transpose_traffic(mesh, 1_000), cfg)

    def test_staggered_injection(self):
        mesh = Mesh2D(4, 4)
        rng = np.random.default_rng(11)
        specs = []
        while len(specs) < 40:
            src = int(rng.integers(0, 16))
            dst = int(rng.integers(0, 16))
            if src == dst:
                continue
            specs.append(
                (src, dst, int(rng.integers(2, 12)), int(rng.integers(0, 200)))
            )
        fast, ref = run_both(
            mesh,
            NoCConfig(),
            lambda: [
                Packet(src=s, dst=d, num_flits=f, injection_cycle=t)
                for s, d, f, t in specs
                if s != d
            ],
        )
        assert_identical(fast, ref)

    def test_idle_gap_between_bursts(self):
        """Long idle spans — the event engine's fast path — stay bit-exact."""
        mesh = Mesh2D(4, 4)

        def make_packets():
            return [
                Packet(src=0, dst=15, num_flits=6, injection_cycle=0),
                Packet(src=5, dst=6, num_flits=4, injection_cycle=5_000),
                Packet(src=10, dst=2, num_flits=8, injection_cycle=20_000),
            ]

        fast, ref = run_both(mesh, NoCConfig(), make_packets)
        assert_identical(fast, ref)
