"""Dimension-ordered (XY) routing.

Packets first travel along X to the destination column, then along Y.  XY
routing is deterministic and deadlock-free on a mesh, which is why it is both
the paper's choice (Table II) and the standard BookSim2 default.

Because the routes depend only on the mesh shape, every derived table —
pairwise hop distances (the mesh's own cached
:meth:`~repro.noc.topology.Mesh2D.distance_matrix`), the link list, and
which links each (src, dst) route crosses — is precomputed once per shape
and cached (:func:`route_tables`).  Flit-hop totals are one product with
the hop table; the per-burst :func:`repro.noc.analytical.link_loads` and
the batched plan-cost oracle (:mod:`repro.plancost`) both reduce to one
matmul against the cached route-usage matrix instead of walking
``xy_route_path`` per pair: an integer one per burst, and a float64 (BLAS)
one over a whole stack of bursts, exact below 2**53 flits per burst.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .topology import EAST, LOCAL, NORTH, SOUTH, WEST, Mesh2D

__all__ = [
    "xy_route_port",
    "xy_route_path",
    "xy_route_ports",
    "RouteTables",
    "route_tables",
]


def xy_route_port(mesh: Mesh2D, current: int, dest: int) -> int:
    """Output port a packet at ``current`` headed to ``dest`` must take.

    Returns ``LOCAL`` when the packet has arrived.
    """
    cx, cy = mesh.coords(current)
    dx, dy = mesh.coords(dest)
    if cx < dx:
        return EAST
    if cx > dx:
        return WEST
    if cy > dy:
        return NORTH
    if cy < dy:
        return SOUTH
    return LOCAL


def xy_route_ports(mesh: Mesh2D, src: int, dest: int) -> tuple[int, ...]:
    """Output port taken at each router along the XY route, ending with LOCAL.

    ``ports[h]`` is the output port a packet takes at its ``h``-th router
    (hop 0 is the source router); the final entry is ``LOCAL`` at the
    destination.  XY routing is deterministic, so the whole route can be
    computed once at injection time instead of re-deriving the port for
    every waiting head flit every cycle.
    """
    ports = []
    current = src
    for _ in range(mesh.diameter + 1):
        port = xy_route_port(mesh, current, dest)
        ports.append(port)
        if port == LOCAL:
            return tuple(ports)
        current = mesh.neighbor(current, port)
    raise RuntimeError(f"routing loop from {src} to {dest}")  # pragma: no cover


def xy_route_path(mesh: Mesh2D, src: int, dest: int) -> list[int]:
    """Full node sequence from ``src`` to ``dest`` inclusive."""
    path = [src]
    current = src
    # A finite mesh guarantees termination within diameter hops.
    for _ in range(mesh.diameter + 1):
        port = xy_route_port(mesh, current, dest)
        if port == LOCAL:
            return path
        current = mesh.neighbor(current, port)
        path.append(current)
    raise RuntimeError(f"routing loop from {src} to {dest}")  # pragma: no cover


@dataclass(frozen=True)
class RouteTables:
    """Precomputed XY routing tables of one mesh shape.

    ``hops[s, d]`` is the Manhattan hop count from node ``s`` to ``d``;
    ``links`` is the fixed unidirectional link order (``mesh.links()``), and
    ``usage[s * N + d, l]`` is 1 exactly when the XY route from ``s`` to
    ``d`` crosses ``links[l]``.  Per-link flit loads of a whole traffic
    matrix are then one matmul: ``flits.reshape(N * N) @ usage``.  All
    arrays are read-only — the tables are shared through an LRU cache.
    """

    width: int
    height: int
    hops: np.ndarray  # (N, N) int64
    links: tuple[tuple[int, int], ...]
    usage: np.ndarray  # (N * N, L) int64 in {0, 1}

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def link_index(self, link: tuple[int, int]) -> int:
        """Position of ``link`` in the fixed link order."""
        return self.links.index(link)


@functools.lru_cache(maxsize=None)
def _route_tables(width: int, height: int) -> RouteTables:
    mesh = Mesh2D(width, height)
    n = mesh.num_nodes
    links = tuple(mesh.links())
    index = {link: l for l, link in enumerate(links)}
    usage = np.zeros((n * n, len(links)), dtype=np.int64)
    for src in range(n):
        for dst in range(n):
            path = xy_route_path(mesh, src, dst)
            row = usage[src * n + dst]
            for a, b in zip(path, path[1:]):
                row[index[(a, b)]] = 1
    usage.setflags(write=False)
    return RouteTables(
        width=width, height=height, hops=mesh.distance_matrix(), links=links, usage=usage
    )


def route_tables(mesh: Mesh2D) -> RouteTables:
    """The (cached) precomputed routing tables for ``mesh``'s shape.

    Tables are built once per distinct ``(width, height)`` and shared by
    every caller — per-burst link loads, the analytical drain estimate, and
    the batched plan-cost oracle all index the same arrays.
    """
    return _route_tables(mesh.width, mesh.height)
