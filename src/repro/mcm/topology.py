"""Mesh-of-meshes: N single-chip meshes joined by inter-chip links.

An MCM places ``num_chips`` copies of the paper's CMP on one package and
connects them with serial links that are explicitly *slower and narrower*
than the on-chip NoC: activation hand-offs between pipeline stages pay
serialization at the link bandwidth plus a per-hop latency, converted to
core cycles.

Two meshes appear at different granularities:

* ``core_mesh`` — the 2-D mesh *inside* each chip (Table II geometry),
  used by the per-stage intra-layer partition plans;
* ``chip_mesh`` — the 2-D mesh *of chips*; inter-stage transfers are
  routed over it with Manhattan hop counts.

:meth:`InterChipLink.match_noc` builds a link timed like a point-to-point
hand-off over the on-chip NoC.  An MCM of one-core chips joined by it is
the single-chip layer pipeline of §II.B, which is how the pipeline
ablation times that scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel.chip import ChipConfig
from ..noc.packet import NoCConfig
from ..noc.topology import Mesh2D

__all__ = ["InterChipLink", "McmTopology"]


@dataclass(frozen=True)
class InterChipLink:
    """Timing model of one inter-chip serial link.

    Defaults model a link 2x narrower than the on-chip NoC's injection
    bandwidth (128 B per NoC cycle) with a per-hop latency ~5x an on-chip
    router traversal plus a fixed synchronization overhead — the
    wide-but-long serial-lane regime Scope's MCM assumes.  All cycle
    counts are in *NoC* cycles; ``core_clock_divider`` converts to core
    cycles.
    """

    bytes_per_cycle: int = 64
    hop_latency_cycles: int = 16
    sync_overhead_cycles: int = 8
    core_clock_divider: int = 4

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ValueError(f"bytes_per_cycle must be positive, got {self.bytes_per_cycle}")
        if self.hop_latency_cycles < 0 or self.sync_overhead_cycles < 0:
            raise ValueError("link latencies must be non-negative")
        if self.core_clock_divider <= 0:
            raise ValueError(f"core_clock_divider must be positive, got {self.core_clock_divider}")

    @staticmethod
    def match_noc(config: NoCConfig) -> "InterChipLink":
        """A link timed like a point-to-point hand-off over the on-chip NoC.

        Serialization at the NoC's injection bandwidth, ``flit_bytes *
        physical_channels`` per cycle, plus the route's head latency
        ``(router_stages - 1) + (router_stages + link_latency - 1) * hops``.
        The §II.B pipeline ablation joins one-core chips with it.
        """
        return InterChipLink(
            bytes_per_cycle=config.flit_bytes * config.physical_channels,
            hop_latency_cycles=config.router_stages + config.link_latency - 1,
            sync_overhead_cycles=config.router_stages - 1,
            core_clock_divider=config.core_clock_divider,
        )

    def transfer_cycles(self, bytes_moved: int, hops: int) -> int:
        """Core cycles to move ``bytes_moved`` across ``hops`` chip hops.

        Zero bytes cost zero (nothing crosses the boundary); otherwise
        serialization plus sync overhead plus per-hop head latency, with a
        minimum of one hop (distinct chips are never zero hops apart, and
        a same-chip hand-off still crosses the chip's egress port).
        """
        if bytes_moved < 0:
            raise ValueError(f"bytes_moved must be non-negative, got {bytes_moved}")
        if bytes_moved == 0:
            return 0
        serialization = -(-bytes_moved // self.bytes_per_cycle)
        head = self.sync_overhead_cycles + self.hop_latency_cycles * max(hops, 1)
        return (serialization + head) * self.core_clock_divider


@dataclass(frozen=True)
class McmTopology:
    """``num_chips`` CMPs of ``cores_per_chip`` cores on one package."""

    num_chips: int
    cores_per_chip: int
    chip_mesh: Mesh2D
    core_mesh: Mesh2D
    link: InterChipLink = field(default_factory=InterChipLink)
    noc: NoCConfig = field(default_factory=NoCConfig)

    def __post_init__(self) -> None:
        if self.num_chips <= 0:
            raise ValueError(f"num_chips must be positive, got {self.num_chips}")
        if self.cores_per_chip <= 0:
            raise ValueError(f"cores_per_chip must be positive, got {self.cores_per_chip}")
        if self.chip_mesh.num_nodes != self.num_chips:
            raise ValueError(
                f"chip mesh has {self.chip_mesh.num_nodes} nodes for {self.num_chips} chips"
            )
        if self.core_mesh.num_nodes != self.cores_per_chip:
            raise ValueError(
                f"core mesh has {self.core_mesh.num_nodes} nodes for "
                f"{self.cores_per_chip} cores per chip"
            )

    @staticmethod
    def build(
        num_chips: int,
        cores_per_chip: int = 16,
        link: InterChipLink | None = None,
        noc: NoCConfig | None = None,
    ) -> "McmTopology":
        """Most-square chip mesh over most-square per-chip core meshes."""
        return McmTopology(
            num_chips=num_chips,
            cores_per_chip=cores_per_chip,
            chip_mesh=Mesh2D.for_nodes(num_chips),
            core_mesh=Mesh2D.for_nodes(cores_per_chip),
            link=link or InterChipLink(),
            noc=noc or NoCConfig(),
        )

    @property
    def total_cores(self) -> int:
        return self.num_chips * self.cores_per_chip

    def chip_hops(self, a: int, b: int) -> int:
        """Manhattan distance between two chips on the package mesh."""
        return self.chip_mesh.hop_distance(a, b)

    def snake_order(self) -> list[int]:
        """Chip ids row-major with alternating row direction.

        Consecutive pipeline stages land on adjacent chips.
        """
        order: list[int] = []
        for y in range(self.chip_mesh.height):
            row = list(range(self.chip_mesh.width))
            if y % 2:
                row.reverse()
            order.extend(self.chip_mesh.node_at(x, y) for x in row)
        return order

    def chip_config(self) -> ChipConfig:
        """The single-chip config each stage's intra-layer plan runs on."""
        return ChipConfig.table2(self.cores_per_chip)

    def describe(self) -> str:
        return (
            f"{self.num_chips}-chip MCM "
            f"({self.chip_mesh.width}x{self.chip_mesh.height} chip mesh, "
            f"{self.cores_per_chip} cores/chip, "
            f"link {self.link.bytes_per_cycle} B/cycle · "
            f"{self.link.hop_latency_cycles} cycles/hop)"
        )
