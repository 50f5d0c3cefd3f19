"""Traffic matrices and packet-trace generation.

A :class:`TrafficMatrix` records how many bytes each core sends to each other
core during one layer transition.  The partitioning package produces one
matrix per compute layer.  Its flit-hop and distance figures are whole-array
closed forms: :func:`~repro.noc.packet.message_flits` times the cached XY hop
table.  :meth:`TrafficMatrix.to_packets` builds a packet trace only as input
to the cycle-level simulator.  The module also provides the synthetic
patterns used to validate the NoC model against known analytical behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .packet import NoCConfig, Packet, message_flits, segment_message
from .routing import route_tables
from .topology import Mesh2D

__all__ = ["TrafficMatrix", "uniform_random_traffic", "transpose_traffic", "neighbor_traffic"]


@dataclass
class TrafficMatrix:
    """Bytes moved between cores: ``bytes_matrix[src, dst]``.

    The diagonal must be zero — data staying on its own core never enters
    the NoC.
    """

    bytes_matrix: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        m = np.asarray(self.bytes_matrix, dtype=np.int64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"traffic matrix must be square, got shape {m.shape}")
        if np.any(m < 0):
            raise ValueError("traffic matrix entries must be non-negative")
        if np.any(np.diagonal(m) != 0):
            raise ValueError("traffic matrix diagonal must be zero (no self traffic)")
        self.bytes_matrix = m

    @property
    def num_nodes(self) -> int:
        return self.bytes_matrix.shape[0]

    @property
    def total_bytes(self) -> int:
        return int(self.bytes_matrix.sum())

    def _check_mesh(self, mesh: Mesh2D) -> None:
        """Reject a mesh whose node count differs from the matrix."""
        if mesh.num_nodes != self.num_nodes:
            raise ValueError(
                f"mesh has {mesh.num_nodes} nodes, traffic {self.num_nodes}"
            )

    def total_flit_hops(self, mesh: Mesh2D, config: NoCConfig) -> int:
        """Payload+head flits times hops, the first-order energy/load proxy."""
        self._check_mesh(mesh)
        flits = message_flits(self.bytes_matrix, config)
        return int((flits * route_tables(mesh).hops).sum())

    def weighted_average_distance(self, mesh: Mesh2D) -> float:
        """Mean hop distance weighted by bytes moved (0 when no traffic)."""
        self._check_mesh(mesh)
        total = self.total_bytes
        if total == 0:
            return 0.0
        return int((self.bytes_matrix * route_tables(mesh).hops).sum()) / total

    def to_packets(
        self, config: NoCConfig, injection_cycle: int = 0
    ) -> list[Packet]:
        """Segment every (src, dst) message into a burst packet trace.

        All packets share one injection cycle, modelling the synchronization
        burst at a layer transition (§III.B of the paper).  The trace is the
        cycle-level simulator's input; flit counts come from
        :func:`~repro.noc.packet.message_flits` instead.
        """
        packets: list[Packet] = []
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                b = int(self.bytes_matrix[src, dst])
                if b:
                    packets.extend(
                        segment_message(src, dst, b, config, injection_cycle)
                    )
        return packets

    def scaled(self, factor: float) -> "TrafficMatrix":
        """A copy with every entry scaled and rounded (used for downscaling)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return TrafficMatrix(
            np.rint(self.bytes_matrix * factor).astype(np.int64),
            label=f"{self.label}*{factor:g}",
        )

    def __add__(self, other: "TrafficMatrix") -> "TrafficMatrix":
        if self.num_nodes != other.num_nodes:
            raise ValueError("cannot add traffic matrices of different sizes")
        return TrafficMatrix(
            self.bytes_matrix + other.bytes_matrix,
            label=f"{self.label}+{other.label}",
        )


def uniform_random_traffic(
    num_nodes: int, total_bytes: int, seed: int = 0, label: str = "uniform"
) -> TrafficMatrix:
    """Uniform-random pattern: bytes spread evenly over random (src, dst) pairs."""
    rng = np.random.default_rng(seed)
    m = np.zeros((num_nodes, num_nodes), dtype=np.int64)
    pairs = [(s, d) for s in range(num_nodes) for d in range(num_nodes) if s != d]
    per_pair = total_bytes // len(pairs)
    for s, d in pairs:
        m[s, d] = per_pair
    # Distribute the remainder randomly so totals are exact.
    for _ in range(total_bytes - per_pair * len(pairs)):
        s, d = pairs[rng.integers(len(pairs))]
        m[s, d] += 1
    return TrafficMatrix(m, label=label)


def transpose_traffic(mesh: Mesh2D, bytes_per_pair: int) -> TrafficMatrix:
    """Transpose pattern: node (x, y) sends to (y, x); a classic stress test."""
    if mesh.width != mesh.height:
        raise ValueError("transpose pattern needs a square mesh")
    m = np.zeros((mesh.num_nodes, mesh.num_nodes), dtype=np.int64)
    for node in range(mesh.num_nodes):
        x, y = mesh.coords(node)
        dst = mesh.node_at(y, x)
        if dst != node:
            m[node, dst] = bytes_per_pair
    return TrafficMatrix(m, label="transpose")


def neighbor_traffic(mesh: Mesh2D, bytes_per_pair: int) -> TrafficMatrix:
    """Nearest-neighbour pattern: every node sends east (wrapping to row start)."""
    m = np.zeros((mesh.num_nodes, mesh.num_nodes), dtype=np.int64)
    for node in range(mesh.num_nodes):
        x, y = mesh.coords(node)
        dst = mesh.node_at((x + 1) % mesh.width, y)
        if dst != node:
            m[node, dst] = bytes_per_pair
    return TrafficMatrix(m, label="neighbor")
