"""DSENT-like NoC energy model.

Per-event energies for a 32 nm mesh router with 512-bit flits, in the range
DSENT reports (and consistent with published router breakdowns: buffers and
crossbar dominate, allocators are small, links cost ~1 pJ/mm/flit at this
width).  The paper's evaluation metric is the *energy reduction ratio*
between schemes, which depends on relative event counts, not on the absolute
constants — but realistic constants keep the reported joules meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import EnergyEvents, NoCStats
from .packet import NoCConfig, message_flits
from .topology import Mesh2D
from .traffic import TrafficMatrix

__all__ = ["NoCEnergyModel", "EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules by component for one simulation (or analytical estimate)."""

    buffer_j: float
    crossbar_j: float
    allocator_j: float
    link_j: float
    static_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.buffer_j + self.crossbar_j + self.allocator_j + self.link_j + self.static_j

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.buffer_j + other.buffer_j,
            self.crossbar_j + other.crossbar_j,
            self.allocator_j + other.allocator_j,
            self.link_j + other.link_j,
            self.static_j + other.static_j,
        )


@dataclass(frozen=True)
class NoCEnergyModel:
    """Per-event dynamic energies (joules) plus per-router static power.

    Defaults are for a 32 nm, 1 GHz, 512-bit-flit 5-port mesh router with
    1 mm links — the regime DSENT models for architectures like Table II.
    """

    buffer_write_j: float = 3.5e-12
    buffer_read_j: float = 2.5e-12
    crossbar_j: float = 5.0e-12
    allocation_j: float = 0.4e-12
    link_j: float = 2.0e-12  # per flit per 1 mm link
    static_w_per_router: float = 2.0e-3
    clock_ghz: float = 1.0

    def dynamic_energy(self, events: EnergyEvents) -> EnergyBreakdown:
        """Joules from an event-count record of a cycle-level simulation."""
        return EnergyBreakdown(
            buffer_j=(
                events.buffer_writes * self.buffer_write_j
                + events.buffer_reads * self.buffer_read_j
            ),
            crossbar_j=events.crossbar_traversals * self.crossbar_j,
            allocator_j=(
                events.vc_allocations + events.sa_arbitrations
            ) * self.allocation_j,
            link_j=events.link_traversals * self.link_j,
        )

    def simulation_energy(self, stats: NoCStats, num_routers: int) -> EnergyBreakdown:
        """Dynamic + static energy of a finished simulation run."""
        dyn = self.dynamic_energy(stats.energy)
        seconds = stats.cycles / (self.clock_ghz * 1e9)
        static = self.static_w_per_router * num_routers * seconds
        return EnergyBreakdown(
            dyn.buffer_j, dyn.crossbar_j, dyn.allocator_j, dyn.link_j, static
        )

    def analytical_energy(
        self, traffic: TrafficMatrix, mesh: Mesh2D, config: NoCConfig
    ) -> EnergyBreakdown:
        """First-order dynamic energy from flit-hop counts (no simulation).

        Every flit-hop implies one buffer write+read, one crossbar traversal
        and one link traversal; ejection adds a final buffer+crossbar event.
        Used for traffic too large to simulate cycle-by-cycle and as a
        cross-check of the simulator's event accounting.
        """
        flit_hops = traffic.total_flit_hops(mesh, config)
        # Hop events plus the terminal ejection events at the destination.
        rw = flit_hops + int(message_flits(traffic.bytes_matrix, config).sum())
        return EnergyBreakdown(
            buffer_j=rw * (self.buffer_write_j + self.buffer_read_j),
            crossbar_j=rw * self.crossbar_j,
            allocator_j=rw * 2 * self.allocation_j,
            link_j=flit_hops * self.link_j,
        )
