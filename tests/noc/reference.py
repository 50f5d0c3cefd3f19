"""Reference cycle-level wormhole NoC simulator (slow, exhaustive scan).

This is the original `NoCSimulator` implementation: every cycle visits all
routers x 5 ports x ``num_vcs`` VCs, whether or not a flit can move.  It is
kept beside the tests as the *behavioural reference* for the event-driven
engine in :mod:`repro.noc.network` — the property tests in
``tests/noc/test_engine_equivalence.py`` run randomized traffic through both
implementations and assert bit-identical :class:`~repro.noc.network.NoCStats`
(cycles, latencies, flit hops, and every energy event count), and
``tests/obs/test_nocprof.py`` checks both engines profile the same links.

Two standalone performance fixes relative to the historical version (neither
changes behaviour):

* the injection queue is a ``heapq`` ordered by ``(injection_cycle, seq)``
  instead of a repeatedly re-sorted list with ``pop(0)`` — the old path was
  O(n^2) in the number of packets;
* ``_network_quiet`` consults running buffered-flit counters instead of
  scanning all routers x ports x VCs on every fast-forward check.

See the module docstring of :mod:`repro.noc.network` for the
microarchitectural model both engines implement.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.noc.network import (
    EnergyEvents,
    NoCStats,
    _NUM_PORTS,
    _InputVC,
    _Router,
    _accumulate_profile,
)
from repro.noc.packet import Flit, NoCConfig, Packet
from repro.noc.routing import xy_route_port
from repro.noc.topology import LOCAL, OPPOSITE, Mesh2D
from repro.obs.metrics import METRICS
from repro.obs.nocprof import NoCProfile

__all__ = ["ReferenceNoCSimulator"]


class ReferenceNoCSimulator:
    """Cycle-level simulation of burst traffic on the mesh NoC (reference)."""

    _ENGINE = "reference"  # metrics label

    def __init__(
        self,
        mesh: Mesh2D,
        config: NoCConfig | None = None,
        profile: NoCProfile | None = None,
    ) -> None:
        self.mesh = mesh
        self.config = config or NoCConfig()
        self.profile = profile
        self.routers = [_Router(n, self.config) for n in range(mesh.num_nodes)]
        # Min-heap of (injection_cycle, seq, packet); seq preserves FIFO
        # order among packets due on the same cycle.
        self._pending_packets: list[tuple[int, int, Packet]] = []
        self._pending_seq = 0
        # Per-node injection: FIFO of packets, plus the VC the open packet uses.
        self._inject_fifo: list[deque[Flit]] = [deque() for _ in range(mesh.num_nodes)]
        self._inject_vc: list[int] = [-1] * mesh.num_nodes
        self._inject_rr: list[int] = [0] * mesh.num_nodes
        # Future events keyed by cycle: flit arrivals and credit returns.
        self._arrivals: dict[int, list[tuple[int, int, int, Flit]]] = {}
        self._credit_returns: dict[int, list[tuple[int, int, int]]] = {}
        self._delivered: list[Packet] = []
        self._cycle = 0
        self._flit_hops = 0
        self._flits_delivered = 0
        # Running occupancy counters so the quiet check is O(1).
        self._source_flits = 0  # flits waiting in source NI FIFOs
        self._buffered_flits = 0  # flits held in router input VC buffers
        self.energy = EnergyEvents()

    # -- public API ---------------------------------------------------------------

    def inject(self, packets: list[Packet]) -> None:
        """Queue packets for injection at their ``injection_cycle``."""
        for p in packets:
            self.mesh._check(p.src)
            self.mesh._check(p.dst)
        if packets:
            METRICS.inc(
                "noc.flits_injected",
                sum(p.num_flits for p in packets),
                engine=self._ENGINE,
            )
        for p in packets:
            heapq.heappush(
                self._pending_packets, (p.injection_cycle, self._pending_seq, p)
            )
            self._pending_seq += 1

    def run(self, max_cycles: int = 10_000_000) -> NoCStats:
        """Simulate until all injected packets are delivered.

        Raises ``RuntimeError`` if the network stops making progress or the
        cycle limit is hit (both indicate a configuration or model bug, since
        XY + VC allocation is deadlock-free).
        """
        total_packets = len(self._pending_packets)
        if total_packets == 0:
            return self._finish_run()

        idle_cycles = 0
        while len(self._delivered) < total_packets:
            # Nothing in flight but packets scheduled for later: jump ahead.
            if (
                self._pending_packets
                and not self._arrivals
                and not self._credit_returns
                and self._pending_packets[0][0] > self._cycle
                and self._network_quiet()
            ):
                self._cycle = self._pending_packets[0][0]
            progressed = self._step()
            if progressed:
                idle_cycles = 0
            else:
                idle_cycles += 1
                # Allow pipeline/link latencies to elapse without progress,
                # but a long stall means deadlock/livelock (a bug).
                if idle_cycles > 4 * (self.config.router_stages + self.config.link_latency) + 16:
                    raise RuntimeError(
                        f"NoC made no progress for {idle_cycles} cycles at cycle "
                        f"{self._cycle}; delivered {len(self._delivered)}/{total_packets}"
                    )
            if self._cycle > max_cycles:
                raise RuntimeError(
                    f"NoC exceeded {max_cycles} cycles; delivered "
                    f"{len(self._delivered)}/{total_packets} packets"
                )
        return self._finish_run()

    def _finish_run(self) -> NoCStats:
        """Stats + optional profile accumulation + per-run metrics."""
        stats = self._stats()
        if self.profile is not None:
            _accumulate_profile(self.profile, self.mesh, self._delivered, stats.cycles)
        engine = self._ENGINE
        METRICS.inc("noc.runs", 1, engine=engine)
        METRICS.inc("noc.drain_cycles", stats.cycles, engine=engine)
        METRICS.inc("noc.flits_delivered", stats.flits_delivered, engine=engine)
        METRICS.inc("noc.flit_hops", stats.flit_hops, engine=engine)
        return stats

    def _network_quiet(self) -> bool:
        """No flits buffered anywhere and no source FIFO occupied (O(1))."""
        return self._source_flits == 0 and self._buffered_flits == 0

    # -- per-cycle machinery -----------------------------------------------------------

    def _step(self) -> bool:
        """Advance one cycle; returns True if any flit moved anywhere."""
        cycle = self._cycle
        moved = False

        # (a) scheduled arrivals and credit returns land first.
        for node, port, vc, flit in self._arrivals.pop(cycle, ()):  # type: ignore[arg-type]
            self.routers[node].inputs[port][vc].fifo.append(flit)
            self._buffered_flits += 1
            self.energy.buffer_writes += 1
            moved = True
        for node, port, vc in self._credit_returns.pop(cycle, ()):  # type: ignore[arg-type]
            self.routers[node].credits[port][vc] += 1

        # (b) source injection.
        moved |= self._inject_cycle(cycle)

        # (c) VC allocation for heads at the front of their input VCs.
        for router in self.routers:
            self._vc_allocate(router, cycle)

        # (d) switch allocation + traversal per output port.
        for router in self.routers:
            moved |= self._switch_traverse(router, cycle)

        self._cycle += 1
        return moved

    def _inject_cycle(self, cycle: int) -> bool:
        moved = False
        # Move due packets into their source NI FIFO.
        while self._pending_packets and self._pending_packets[0][0] <= cycle:
            _, _, packet = heapq.heappop(self._pending_packets)
            fifo = self._inject_fifo[packet.src]
            for i in range(packet.num_flits):
                fifo.append(Flit(packet, i))
            self._source_flits += packet.num_flits
            moved = True

        cfg = self.config
        for node, fifo in enumerate(self._inject_fifo):
            budget = cfg.physical_channels
            router = self.routers[node]
            while budget and fifo:
                flit = fifo[0]
                if flit.is_head:
                    vc = self._pick_injection_vc(router, node)
                    if vc < 0:
                        break
                    self._inject_vc[node] = vc
                vc = self._inject_vc[node]
                in_vc = router.inputs[LOCAL][vc]
                if len(in_vc.fifo) >= cfg.vc_buffer_flits:
                    break
                fifo.popleft()
                flit.ready_cycle = cycle + cfg.router_stages - 1
                in_vc.fifo.append(flit)
                self._source_flits -= 1
                self._buffered_flits += 1
                self.energy.buffer_writes += 1
                budget -= 1
                moved = True
        return moved

    def _pick_injection_vc(self, router: _Router, node: int) -> int:
        """Round-robin choice of a LOCAL input VC with room for a new head.

        Wormhole correctness requires whole packets to occupy one VC, but
        FIFO order within the VC already guarantees flit contiguity, so any
        VC with buffer space is acceptable.
        """
        cfg = self.config
        start = self._inject_rr[node]
        for k in range(cfg.num_vcs):
            vc = (start + k) % cfg.num_vcs
            if len(router.inputs[LOCAL][vc].fifo) < cfg.vc_buffer_flits:
                self._inject_rr[node] = (vc + 1) % cfg.num_vcs
                return vc
        return -1

    def _vc_allocate(self, router: _Router, cycle: int) -> None:
        cfg = self.config
        # Collect head flits requesting each output port.
        requests: dict[int, list[tuple[int, int]]] = {}
        for port in range(_NUM_PORTS):
            for vc in range(cfg.num_vcs):
                in_vc = router.inputs[port][vc]
                if in_vc.allocated or not in_vc.fifo:
                    continue
                flit = in_vc.fifo[0]
                if not flit.is_head or flit.ready_cycle > cycle:
                    continue
                out_port = xy_route_port(self.mesh, router.node, flit.packet.dst)
                requests.setdefault(out_port, []).append((port, vc))

        for out_port, reqs in requests.items():
            if out_port == LOCAL:
                # Ejection has per-VC sink slots; model as always-free VCs.
                for port, vc in reqs:
                    in_vc = router.inputs[port][vc]
                    in_vc.allocated = True
                    in_vc.out_port = LOCAL
                    in_vc.out_vc = 0
                    self.energy.vc_allocations += 1
                continue
            # Grant free output VCs round-robin among requesters.
            free_vcs = [v for v in range(cfg.num_vcs) if router.out_vc_free[out_port][v]]
            if not free_vcs:
                continue
            rr = router.va_rr[out_port]
            order = sorted(reqs, key=lambda pv: ((pv[0] * cfg.num_vcs + pv[1]) - rr) % (
                _NUM_PORTS * cfg.num_vcs))
            for (port, vc), out_vc in zip(order, free_vcs):
                in_vc = router.inputs[port][vc]
                in_vc.allocated = True
                in_vc.out_port = out_port
                in_vc.out_vc = out_vc
                router.out_vc_free[out_port][out_vc] = False
                router.va_rr[out_port] = (port * cfg.num_vcs + vc + 1) % (
                    _NUM_PORTS * cfg.num_vcs)
                self.energy.vc_allocations += 1

    def _switch_traverse(self, router: _Router, cycle: int) -> bool:
        cfg = self.config
        moved = False
        for out_port in range(_NUM_PORTS):
            grants = cfg.physical_channels
            # Candidates: input VCs allocated to this output with a ready flit.
            candidates = []
            for port in range(_NUM_PORTS):
                for vc in range(cfg.num_vcs):
                    in_vc = router.inputs[port][vc]
                    if not in_vc.allocated or in_vc.out_port != out_port:
                        continue
                    if not in_vc.fifo or in_vc.fifo[0].ready_cycle > cycle:
                        continue
                    if out_port != LOCAL and router.credits[out_port][in_vc.out_vc] <= 0:
                        continue
                    candidates.append((port, vc))
            if not candidates:
                continue
            self.energy.sa_arbitrations += len(candidates)
            rr = router.sa_rr[out_port]
            candidates.sort(key=lambda pv: ((pv[0] * cfg.num_vcs + pv[1]) - rr) % (
                _NUM_PORTS * cfg.num_vcs))
            for port, vc in candidates[:grants]:
                in_vc = router.inputs[port][vc]
                flit = in_vc.fifo.popleft()
                self._buffered_flits -= 1
                self.energy.buffer_reads += 1
                self.energy.crossbar_traversals += 1
                router.sa_rr[out_port] = (port * cfg.num_vcs + vc + 1) % (
                    _NUM_PORTS * cfg.num_vcs)

                # Return a credit upstream (not for locally injected flits).
                if port != LOCAL:
                    upstream = self.mesh.neighbor(router.node, port)
                    self._credit_returns.setdefault(
                        cycle + cfg.link_latency, []
                    ).append((upstream, OPPOSITE[port], vc))

                if out_port == LOCAL:
                    self._eject(flit, cycle, in_vc)
                else:
                    self._forward(router, in_vc, flit, out_port, cycle)
                moved = True
        return moved

    def _forward(
        self, router: _Router, in_vc: _InputVC, flit: Flit, out_port: int, cycle: int
    ) -> None:
        cfg = self.config
        out_vc = in_vc.out_vc
        router.credits[out_port][out_vc] -= 1
        downstream = self.mesh.neighbor(router.node, out_port)
        arrival = cycle + cfg.link_latency
        flit.ready_cycle = arrival + cfg.router_stages - 1
        self._arrivals.setdefault(arrival, []).append(
            (downstream, OPPOSITE[out_port], out_vc, flit)
        )
        self.energy.link_traversals += 1
        self._flit_hops += 1
        if flit.is_tail:
            in_vc.allocated = False
            router.out_vc_free[out_port][out_vc] = True

    def _eject(self, flit: Flit, cycle: int, in_vc: _InputVC) -> None:
        packet = flit.packet
        if flit.is_head:
            packet.head_arrival_cycle = cycle
        if flit.is_tail:
            packet.tail_arrival_cycle = cycle
            self._delivered.append(packet)
            in_vc.allocated = False
        self._flits_delivered += 1

    # -- results ---------------------------------------------------------------------

    def _stats(self) -> NoCStats:
        latencies = [p.latency for p in self._delivered]
        return NoCStats(
            cycles=self._cycle,
            packets_delivered=len(self._delivered),
            flits_delivered=self._flits_delivered,
            flit_hops=self._flit_hops,
            avg_packet_latency=float(sum(latencies) / len(latencies)) if latencies else 0.0,
            max_packet_latency=max(latencies) if latencies else 0,
            energy=self.energy,
        )
