"""Closed-form flit counts equal the packet walks they replaced.

Flit-hops, byte-weighted distance, analytical energy and the engine's
per-burst flit total are whole-array closed forms
(:func:`~repro.noc.packet.message_flits` times the cached hop table).  Each
must equal, exactly, the per-pair packet walk in :mod:`.packet_walk` — the
float of ``weighted_average_distance`` included — across mesh shapes
(non-square among them), flit widths, packet sizes, and byte counts sitting
on packet- and flit-payload boundaries.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import ChipConfig
from repro.noc import Mesh2D, NoCConfig, NoCEnergyModel, TrafficMatrix
from repro.sim.engine import InferenceSimulator, SimConfig

from .packet_walk import (
    walk_analytical_energy,
    walk_flit_hops,
    walk_flits,
    walk_weighted_average_distance,
)

MESH_SHAPES = ((1, 2), (2, 2), (4, 4), (8, 4))
CONFIGS = tuple(
    NoCConfig(flit_bits=bits, max_packet_flits=flits)
    for bits in (128, 512)
    for flits in (2, 5, 20)
)


@st.composite
def bursts(draw, max_packets: int = 12, max_pairs: int = 16):
    """(mesh, config, traffic) with message sizes at payload boundaries."""
    width, height = draw(st.sampled_from(MESH_SHAPES))
    config = draw(st.sampled_from(CONFIGS))
    n = width * height
    units = (config.packet_payload_bytes, config.flit_bytes)
    sizes = st.builds(
        lambda k, unit, delta: max(k * unit + delta, 0),
        st.integers(0, max_packets),
        st.sampled_from(units),
        st.sampled_from((-1, 0, 1)),
    )
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    m = np.zeros((n, n), dtype=np.int64)
    for s, d in draw(st.lists(st.sampled_from(pairs), max_size=max_pairs, unique=True)):
        m[s, d] = draw(sizes)
    return Mesh2D(width, height), config, TrafficMatrix(m)


@given(burst=bursts())
@settings(max_examples=150, deadline=None)
def test_total_flit_hops(burst):
    mesh, config, tm = burst
    assert tm.total_flit_hops(mesh, config) == walk_flit_hops(tm, mesh, config)


# The byte-weighted distance walks no packets, so it also takes the
# tens-of-megabyte bursts of full-scale layers.
@given(burst=st.one_of(bursts(), bursts(max_packets=100_000)))
@settings(max_examples=150, deadline=None)
def test_weighted_average_distance(burst):
    mesh, _, tm = burst
    closed = tm.weighted_average_distance(mesh)
    assert type(closed) is float
    assert closed == walk_weighted_average_distance(tm, mesh)


@given(burst=bursts())
@settings(max_examples=150, deadline=None)
def test_analytical_energy(burst):
    mesh, config, tm = burst
    model = NoCEnergyModel()
    assert model.analytical_energy(tm, mesh, config) == walk_analytical_energy(
        model, tm, mesh, config
    )


@given(burst=bursts(max_packets=4, max_pairs=8))
@settings(max_examples=25, deadline=None)
def test_engine_flit_total(burst):
    """The engine's auto-mode switch reads exactly the packet-walk total.

    A bulk message lifts the burst over the engine's smallest flit budget;
    a budget of exactly the walked total must cycle-simulate, one flit less
    must scale.
    """
    mesh, config, tm = burst
    m = tm.bytes_matrix.copy()
    m[0, 1] += -(-1001 // config.max_packet_flits) * config.packet_payload_bytes
    tm = TrafficMatrix(m)
    total = walk_flits(tm, config)
    chip = ChipConfig(num_cores=mesh.num_nodes, mesh=mesh, noc=config)

    def mode(budget: int) -> str:
        sim = InferenceSimulator(chip, SimConfig(max_cycle_sim_flits=budget, comm_cache=False))
        return sim._communication(tm)[3]

    assert mode(total) == "cycle"
    assert mode(total - 1) == "scaled-cycle"
