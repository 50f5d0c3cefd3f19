"""2-D mesh topology.

The paper's CMP connects cores with a 2-D mesh (Table II).  Node numbering is
row-major: node ``i`` sits at ``(x, y) = (i % width, i // width)``.  Core
counts that are not perfect squares get the most-square factorization
(8 -> 4x2, 32 -> 8x4), matching how rectangular meshes are normally built.

The hop distance between two nodes under dimension-ordered routing is the
Manhattan distance; the paper calls this the "Hamming distance" of the cores.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["mesh_dims", "Mesh2D", "PORT_NAMES", "LOCAL", "EAST", "WEST", "NORTH", "SOUTH"]

# Port indices used by routers; LOCAL is the NI injection/ejection port.
LOCAL, EAST, WEST, NORTH, SOUTH = range(5)
PORT_NAMES = ("local", "east", "west", "north", "south")

#: Opposite direction of each port (for wiring output -> downstream input).
OPPOSITE = {EAST: WEST, WEST: EAST, NORTH: SOUTH, SOUTH: NORTH}


@functools.lru_cache(maxsize=None)
def _distance_matrix(width: int, height: int) -> np.ndarray:
    nodes = np.arange(width * height, dtype=np.int64)
    x, y = nodes % width, nodes // width
    d = np.abs(x[:, None] - x) + np.abs(y[:, None] - y)
    d.setflags(write=False)
    return d


def mesh_dims(num_nodes: int) -> tuple[int, int]:
    """Most-square (width, height) factorization with width >= height."""
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    best = (num_nodes, 1)
    for h in range(1, int(np.sqrt(num_nodes)) + 1):
        if num_nodes % h == 0:
            best = (num_nodes // h, h)
    return best


@dataclass(frozen=True)
class Mesh2D:
    """Geometry of a width x height mesh."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"mesh dims must be positive, got {self.width}x{self.height}")

    @staticmethod
    def for_nodes(num_nodes: int) -> "Mesh2D":
        w, h = mesh_dims(num_nodes)
        return Mesh2D(w, h)

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def coords(self, node: int) -> tuple[int, int]:
        """(x, y) coordinates of a node id."""
        self._check(node)
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside mesh of {self.num_nodes} nodes")

    def hop_distance(self, a: int, b: int) -> int:
        """Manhattan distance — hops under dimension-ordered routing."""
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    def distance_matrix(self) -> np.ndarray:
        """(N, N) matrix of pairwise hop distances (read-only, cached per shape)."""
        return _distance_matrix(self.width, self.height)

    def neighbor(self, node: int, port: int) -> int | None:
        """Adjacent node through an output port, or None at the mesh edge."""
        x, y = self.coords(node)
        if port == EAST:
            return self.node_at(x + 1, y) if x + 1 < self.width else None
        if port == WEST:
            return self.node_at(x - 1, y) if x - 1 >= 0 else None
        if port == NORTH:
            return self.node_at(x, y - 1) if y - 1 >= 0 else None
        if port == SOUTH:
            return self.node_at(x, y + 1) if y + 1 < self.height else None
        raise ValueError(f"port {port} has no neighbor (LOCAL or invalid)")

    def links(self) -> list[tuple[int, int]]:
        """All unidirectional inter-router links as (src, dst) pairs."""
        out = []
        for node in range(self.num_nodes):
            for port in (EAST, WEST, NORTH, SOUTH):
                nb = self.neighbor(node, port)
                if nb is not None:
                    out.append((node, nb))
        return out

    @property
    def diameter(self) -> int:
        """Longest shortest-path in hops."""
        return (self.width - 1) + (self.height - 1)

    @property
    def bisection_links(self) -> int:
        """Unidirectional links crossing the larger-dimension bisection cut."""
        if self.width >= self.height:
            return 2 * self.height
        return 2 * self.width

    def average_distance(self) -> float:
        """Mean hop distance over all ordered node pairs (excluding self-pairs)."""
        d = self.distance_matrix()
        n = self.num_nodes
        if n == 1:
            return 0.0
        return float(d.sum() / (n * (n - 1)))
