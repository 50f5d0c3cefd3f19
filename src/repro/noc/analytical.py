"""Fast analytical communication-latency model.

The cycle-level simulator (``repro.noc.network``) is exact but O(cycles);
full-scale layer transitions of VGG19-class networks move tens of megabytes
and would take minutes per layer.  This module bounds the drain time of a
burst traffic matrix from three first-order limits, the standard back-of-
envelope used to sanity-check NoC simulations:

1. **Serialization** — a source can inject at most
   ``physical_channels`` flits/cycle;
   a sink can eject at the same rate.
2. **Link capacity** — every flit-hop consumes one link-cycle; the most
   loaded link under XY routing lower-bounds the drain time.
3. **Head latency** — the last packet still has to cross the network:
   pipeline depth x hops for the farthest communicating pair.

The estimate is ``max(source, sink, link) + head``.  It is a first-order
*estimate*, not a strict bound: at high load it undercounts congestion (real
drains run a small factor above it), while at very low load the additive
head term can overshoot slightly because head latency overlaps with other
flows' drains.  Tests verify the cycle-level simulator stays within a small
factor of it, and the simulation engine uses the analytical model when the
traffic volume exceeds a configurable cycle budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .packet import NoCConfig, message_flits
from .routing import route_tables
from .topology import Mesh2D
from .traffic import TrafficMatrix

__all__ = ["AnalyticalEstimate", "estimate_drain_cycles", "link_loads", "message_flits"]


@dataclass(frozen=True)
class AnalyticalEstimate:
    """Components of the analytical drain-time estimate."""

    source_bound: int
    sink_bound: int
    link_bound: int
    head_latency: int

    @property
    def cycles(self) -> int:
        return max(self.source_bound, self.sink_bound, self.link_bound) + self.head_latency


def link_loads(
    traffic: TrafficMatrix, mesh: Mesh2D, config: NoCConfig
) -> dict[tuple[int, int], int]:
    """Flits crossing each unidirectional link under XY routing."""
    traffic._check_mesh(mesh)
    tables = route_tables(mesh)
    flits = message_flits(traffic.bytes_matrix, config).reshape(-1)
    # Burst matrices are usually sparse (a layer's redistribution touches a
    # few pairs), so gather the active rows before the matmul: the product
    # shrinks from (N², L) to (nnz, L) and beats walking routes per pair.
    active = np.flatnonzero(flits)
    loads = flits[active] @ tables.usage[active]
    return {
        link: int(load) for link, load in zip(tables.links, loads) if load
    }


def estimate_drain_cycles(
    traffic: TrafficMatrix, mesh: Mesh2D, config: NoCConfig | None = None
) -> AnalyticalEstimate:
    """Analytical lower-bound drain time of a burst traffic matrix."""
    config = config or NoCConfig()
    traffic._check_mesh(mesh)
    rate = config.physical_channels
    tables = route_tables(mesh)

    flits = message_flits(traffic.bytes_matrix, config)
    out_flits = flits.sum(axis=1)
    in_flits = flits.sum(axis=0)
    active = flits > 0
    max_pair_hops = int(tables.hops[active].max()) if active.any() else 0
    flat = flits.reshape(-1)
    nonzero = np.flatnonzero(flat)  # same sparse gather as link_loads
    worst_link = int((flat[nonzero] @ tables.usage[nonzero]).max(initial=0))

    # Matches the cycle-level model: ST is the last pipeline stage, so a hop
    # costs stages + link - 1 cycles after the initial pipeline fill.
    per_hop = config.router_stages + config.link_latency - 1
    head = (config.router_stages - 1) + per_hop * max_pair_hops if max_pair_hops else 0

    return AnalyticalEstimate(
        source_bound=int(np.ceil(out_flits.max(initial=0) / rate)),
        sink_bound=int(np.ceil(in_flits.max(initial=0) / rate)),
        link_bound=int(np.ceil(worst_link / rate)),
        head_latency=head,
    )
