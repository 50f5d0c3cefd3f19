"""Packet-walking references for the NoC's closed-form flit counts.

These are the per-pair loops the library used before every flit count
became :func:`~repro.noc.packet.message_flits` times the cached hop table.
They build each message's packets with
:func:`~repro.noc.packet.segment_message` and sum over them, one
``(src, dst)`` pair at a time; ``test_closed_forms.py`` holds the closed
forms equal to them.
"""

from __future__ import annotations

from repro.noc import EnergyBreakdown, Mesh2D, NoCConfig, NoCEnergyModel, TrafficMatrix
from repro.noc.packet import segment_message


def _messages(traffic: TrafficMatrix):
    for src in range(traffic.num_nodes):
        for dst in range(traffic.num_nodes):
            b = int(traffic.bytes_matrix[src, dst])
            if b:
                yield src, dst, b


def walk_flits(traffic: TrafficMatrix, config: NoCConfig) -> int:
    """Flits of the whole burst: the engine's packet-trace count."""
    return sum(p.num_flits for p in traffic.to_packets(config))


def walk_flit_hops(traffic: TrafficMatrix, mesh: Mesh2D, config: NoCConfig) -> int:
    total = 0
    for src, dst, b in _messages(traffic):
        flits = sum(p.num_flits for p in segment_message(src, dst, b, config))
        total += flits * mesh.hop_distance(src, dst)
    return total


def walk_weighted_average_distance(traffic: TrafficMatrix, mesh: Mesh2D) -> float:
    total = traffic.total_bytes
    if total == 0:
        return 0.0
    acc = 0.0
    for src, dst, b in _messages(traffic):
        acc += b * mesh.hop_distance(src, dst)
    return acc / total


def walk_analytical_energy(
    model: NoCEnergyModel, traffic: TrafficMatrix, mesh: Mesh2D, config: NoCConfig
) -> EnergyBreakdown:
    flit_hops = walk_flit_hops(traffic, mesh, config)
    rw = flit_hops + walk_flits(traffic, config)
    return EnergyBreakdown(
        buffer_j=rw * (model.buffer_write_j + model.buffer_read_j),
        crossbar_j=rw * model.crossbar_j,
        allocator_j=rw * 2 * model.allocation_j,
        link_j=flit_hops * model.link_j,
    )
