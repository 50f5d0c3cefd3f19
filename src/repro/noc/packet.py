"""Packets, flits, and NoC configuration.

Table II parameters: 512-bit flits, 20-flit packets, 3-stage routers, 3 VCs,
2 physical channels, dimension-ordered routing.  A message larger than one
packet's payload is segmented into multiple packets; the head flit of each
packet carries routing information and no payload, as in BookSim2's default
packet format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

__all__ = ["NoCConfig", "Packet", "Flit", "segment_message", "message_flits"]

_packet_ids = count()


@dataclass(frozen=True)
class NoCConfig:
    """Microarchitectural parameters of the on-chip network (Table II defaults)."""

    flit_bits: int = 512
    max_packet_flits: int = 20
    num_vcs: int = 3
    vc_buffer_flits: int = 4
    router_stages: int = 3
    link_latency: int = 1
    physical_channels: int = 2
    clock_ghz: float = 1.0
    # Core-clock cycles per NoC cycle.  Embedded NoCs typically run at a
    # fraction of the accelerator clock; the default is calibrated so the
    # traditional baseline's communication fraction across the benchmark
    # networks lands in the range the paper reports (§III.B and the speedup
    # headroom implied by Table IV) — see EXPERIMENTS.md.
    core_clock_divider: int = 4

    def __post_init__(self) -> None:
        if self.flit_bits <= 0 or self.flit_bits % 8:
            raise ValueError(f"flit_bits must be a positive multiple of 8, got {self.flit_bits}")
        if self.max_packet_flits < 2:
            raise ValueError("packets need at least a head and one payload flit")
        if self.num_vcs < 1:
            raise ValueError(f"need at least one VC, got {self.num_vcs}")
        if self.vc_buffer_flits < 1:
            raise ValueError("VC buffers must hold at least one flit")
        if self.router_stages < 1:
            raise ValueError("router needs at least one pipeline stage")
        if self.physical_channels < 1:
            raise ValueError("need at least one physical channel")
        if self.core_clock_divider < 1:
            raise ValueError("core_clock_divider must be >= 1")

    @property
    def flit_bytes(self) -> int:
        return self.flit_bits // 8

    @property
    def payload_flits_per_packet(self) -> int:
        """Payload capacity: every flit but the head carries data."""
        return self.max_packet_flits - 1

    @property
    def packet_payload_bytes(self) -> int:
        return self.payload_flits_per_packet * self.flit_bytes


@dataclass
class Packet:
    """One wormhole packet: a head flit plus payload flits."""

    src: int
    dst: int
    num_flits: int
    injection_cycle: int = 0
    pid: int = field(default_factory=lambda: next(_packet_ids))
    # Filled in by the simulator:
    head_arrival_cycle: int = -1
    tail_arrival_cycle: int = -1
    # Precomputed per-hop output ports (set at injection by the event-driven
    # simulator; ``route[h]`` is the port taken at the h-th router, ending
    # with LOCAL at the destination).  Excluded from equality: two packets
    # carrying the same traffic are the same packet whether or not a
    # simulator has annotated them yet.
    route: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_flits < 2:
            raise ValueError(f"packet needs >= 2 flits (head + payload), got {self.num_flits}")
        if self.src == self.dst:
            raise ValueError(f"packet from node {self.src} to itself is not traffic")

    @property
    def latency(self) -> int:
        """Injection-to-tail-ejection latency (valid after simulation)."""
        if self.tail_arrival_cycle < 0:
            raise RuntimeError(f"packet {self.pid} has not been delivered")
        return self.tail_arrival_cycle - self.injection_cycle


class Flit:
    """One flit of a packet travelling through the network."""

    __slots__ = ("packet", "index", "is_head", "is_tail", "ready_cycle", "hop")

    def __init__(self, packet: Packet, index: int) -> None:
        self.packet = packet
        self.index = index
        self.is_head = index == 0
        self.is_tail = index == packet.num_flits - 1
        # Cycle at which this flit has finished the router pipeline at its
        # current router and may compete for switch traversal.
        self.ready_cycle = 0
        # Index into the packet's precomputed route: how many routers this
        # flit has traversed so far (maintained for head flits, whose route
        # lookup replaces per-cycle XY recomputation).
        self.hop = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit({kind} {self.index}/{self.packet.num_flits} pkt={self.packet.pid})"


def segment_message(
    src: int,
    dst: int,
    num_bytes: int,
    config: NoCConfig,
    injection_cycle: int = 0,
) -> list[Packet]:
    """Split a message into packets per the NoC's packet format.

    Each packet carries up to ``payload_flits_per_packet`` flits of data plus
    one head flit.  Zero-byte messages produce no packets.
    """
    if num_bytes < 0:
        raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
    packets = []
    remaining = num_bytes
    while remaining > 0:
        chunk = min(remaining, config.packet_payload_bytes)
        payload_flits = -(-chunk // config.flit_bytes)  # ceil division
        packets.append(
            Packet(
                src=src,
                dst=dst,
                num_flits=1 + payload_flits,
                injection_cycle=injection_cycle,
            )
        )
        remaining -= chunk
    return packets


def message_flits(bytes_matrix: np.ndarray, config: NoCConfig) -> np.ndarray:
    """Element-wise flit count of each (src, dst) message, any array shape.

    The closed form of summing ``Packet.num_flits`` over
    :func:`segment_message`: a message of ``b > 0`` bytes segments into
    ``ceil(b / packet_payload)`` packets, each contributing one head flit,
    plus ``ceil(b / flit_bytes)`` payload flits in total (the packet payload
    capacity is a whole number of flits, so payload flits never fragment
    across the split).  Every flit count outside the cycle simulator's
    packet trace comes from here: the engine's per-burst total, flit-hops,
    analytical energy, the drain estimate and the batched plan-cost oracle.
    """
    b = np.asarray(bytes_matrix).astype(np.int64, copy=False)
    heads = -(b // -config.packet_payload_bytes)
    payload = -(b // -config.flit_bytes)
    return heads + payload
