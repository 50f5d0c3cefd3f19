"""Cycle-level wormhole NoC simulator (event-driven engine).

A BookSim2-style model of the paper's on-chip network (Table II): 2-D mesh,
dimension-ordered (XY) routing, 3-stage routers, virtual channels with
credit-based flow control, and multiple physical channels per link.

Microarchitectural model
------------------------
* Each router has 5 ports (local/east/west/north/south) with ``num_vcs``
  input VCs per port, each a FIFO of ``vc_buffer_flits`` flits.
* A packet's head flit, once at the front of its input VC and through the
  ``router_stages - 1`` pipeline stages, requests an output VC (VA) on the
  XY-routed output port; body/tail flits inherit the allocation; the tail
  frees it.
* Each output port grants up to ``physical_channels`` switch traversals per
  cycle (SA), round-robin among input VCs holding an allocation with a ready
  flit and downstream credit.
* Credits return to the upstream router ``link_latency`` cycles after a flit
  leaves a downstream input buffer.
* Ejection (LOCAL output) is modelled with infinite sink capacity but the
  same per-cycle port bandwidth.

Latency model: a flit arriving at a router at cycle ``t`` finishes the
pipeline and may traverse the switch at ``t + router_stages - 1`` (switch
traversal is the last pipeline stage), reaching the next router
``link_latency`` later — so the zero-load per-hop latency is
``router_stages + link_latency - 1`` cycles, plus the initial
``router_stages - 1`` pipeline fill at the source.

Event-driven engine
-------------------
The historical implementation (preserved bit-for-bit as the test oracle
``tests/noc/reference.py``) visited all routers x 5 ports x ``num_vcs`` VCs
on *every* cycle.  This engine only does work that can change state:

* a ``heapq`` of *scheduled cycles* drives the main loop, so fully idle
  spans (waiting for a pipeline stage, a credit loop, or a late injection)
  are skipped in O(log n) instead of being stepped through;
* per cycle, an explicit *active set* of routers (and source injectors) is
  evaluated — a router is woken only when an event can make it progress:
  a flit arrival, a flit finishing the router pipeline, a credit return,
  or local state it changed the cycle before;
* each router tracks which input VCs hold a pending (unallocated) head flit
  and which are allocated to each output port, so VC allocation and switch
  allocation touch exactly the VCs that matter instead of scanning all of
  them;
* every packet's XY route is computed once at injection
  (:func:`~repro.noc.routing.xy_route_ports`) and the per-hop output port is
  looked up from the flit instead of re-deriving it for every waiting head
  flit every cycle;
* the injection queue is a heap ordered by ``(injection_cycle, seq)``
  rather than a re-sorted list with O(n) ``pop(0)``.

A cycle in which a router is not woken is provably a no-op for that router
in the reference model (no allocation, no arbitration, no energy event), so
the engine produces *bit-identical* :class:`NoCStats` — cycles, latencies,
flit hops, and every energy event count — on any input.  The property tests
in ``tests/noc/test_engine_equivalence.py`` enforce this against the
reference implementation.

XY routing plus per-packet output-VC allocation makes the network
deadlock-free, so a simulation that stops making progress indicates a bug —
the simulator raises rather than spinning forever.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from ..obs.metrics import METRICS
from ..obs.nocprof import NoCProfile
from .packet import Flit, NoCConfig, Packet
from .routing import xy_route_ports
from .topology import LOCAL, OPPOSITE, Mesh2D

__all__ = ["NoCSimulator", "NoCStats", "EnergyEvents"]

_NUM_PORTS = 5


@dataclass
class EnergyEvents:
    """Event counts consumed by the DSENT-like energy model."""

    buffer_writes: int = 0
    buffer_reads: int = 0
    crossbar_traversals: int = 0
    link_traversals: int = 0
    vc_allocations: int = 0
    sa_arbitrations: int = 0


@dataclass
class NoCStats:
    """Results of one simulation run."""

    cycles: int
    packets_delivered: int
    flits_delivered: int
    flit_hops: int
    avg_packet_latency: float
    max_packet_latency: int
    energy: EnergyEvents = field(default_factory=EnergyEvents)


class _InputVC:
    """One input virtual channel: a flit FIFO plus the owning packet's route.

    ``port``/``vc``/``key`` identify the VC within its router (``key`` is the
    flattened round-robin priority index ``port * num_vcs + vc``); the
    event-driven engine keeps the objects themselves in its working sets so
    the hot loops need no ``inputs[port][vc]`` indexing.
    """

    __slots__ = ("fifo", "out_port", "out_vc", "allocated", "port", "vc", "key")

    def __init__(self, port: int = -1, vc: int = -1, key: int = -1) -> None:
        self.fifo: deque[Flit] = deque()
        self.out_port = -1
        self.out_vc = -1
        self.allocated = False
        self.port = port
        self.vc = vc
        self.key = key


class _Router:
    """Per-router state: input VCs, output-VC ownership, credits, RR pointers.

    Shared by the reference simulator.  The event-driven engine additionally
    maintains ``head_pending`` (input VCs whose front flit is an unallocated
    head) and ``alloc_by_out`` (input VCs holding an allocation, indexed by
    output port) so allocation passes touch only the VCs that matter; both
    are pure bookkeeping over the same underlying state.
    """

    __slots__ = (
        "node", "inputs", "out_vc_free", "credits", "va_rr", "sa_rr",
        "head_pending", "alloc_by_out",
    )

    def __init__(self, node: int, config: NoCConfig) -> None:
        self.node = node
        self.inputs = [
            [
                _InputVC(port, vc, port * config.num_vcs + vc)
                for vc in range(config.num_vcs)
            ]
            for port in range(_NUM_PORTS)
        ]
        # out_vc_free[port][vc]: is the downstream VC unallocated.
        self.out_vc_free = [
            [True] * config.num_vcs for _ in range(_NUM_PORTS)
        ]
        # credits[port][vc]: buffer slots available downstream.
        self.credits = [
            [config.vc_buffer_flits] * config.num_vcs for _ in range(_NUM_PORTS)
        ]
        self.va_rr = [0] * _NUM_PORTS
        self.sa_rr = [0] * _NUM_PORTS
        # Event-driven bookkeeping (unused by the reference engine):
        self.head_pending: set[_InputVC] = set()
        self.alloc_by_out: list[set[_InputVC]] = [set() for _ in range(_NUM_PORTS)]


#: OPPOSITE as an index table (port 0 / LOCAL has no opposite).
_OPP = (-1, OPPOSITE[1], OPPOSITE[2], OPPOSITE[3], OPPOSITE[4])


def _accumulate_profile(
    profile: NoCProfile, mesh: Mesh2D, delivered: list[Packet], cycles: int
) -> None:
    """Fold one completed drain into a per-link profile.

    Every flit of a delivered packet traversed every hop of the packet's XY
    route, so per-router and per-link totals are reconstructed exactly from
    the delivered set — no per-cycle counters in the simulator hot loops,
    which is what keeps profiling-off behaviour bit-identical and free.
    """
    if (profile.width, profile.height) != (mesh.width, mesh.height):
        raise ValueError(
            f"profile is for a {profile.width}x{profile.height} mesh, "
            f"simulator runs {mesh.width}x{mesh.height}"
        )
    link = profile.link_flits
    router = profile.router_flits
    for p in delivered:
        route = p.route if p.route is not None else xy_route_ports(mesh, p.src, p.dst)
        node = p.src
        n = p.num_flits
        for port in route:
            router[node] += n
            link[node, port] += n
            if port != LOCAL:
                node = mesh.neighbor(node, port)
    profile.cycles += cycles
    profile.runs += 1


class NoCSimulator:
    """Event-driven cycle-level simulation of burst traffic on the mesh NoC."""

    _ENGINE = "event"  # metrics label; the reference engine overrides it

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
        cfg = self.config
        self._rr_mod = _NUM_PORTS * cfg.num_vcs
        # Config-derived constants, hoisted out of the per-cycle hot loops.
        self._num_vcs = cfg.num_vcs
        self._phys = cfg.physical_channels
        self._vc_buf = cfg.vc_buffer_flits
        self._link_lat = cfg.link_latency
        self._ready_add = cfg.router_stages - 1
        # Flattened link tables so the per-flit hot path does no topology
        # arithmetic: for each (node, input/output port 1..4),
        #   _fwd[node][port]        = (downstream node, its input-VC list on
        #                              the receiving port, indexed by VC)
        #   _credit_tbl[node][port] = (upstream node, its credit list for the
        #                              link, indexed by VC)
        self._fwd: list[list[tuple[int, list[_InputVC]] | None]] = []
        self._credit_tbl: list[list[tuple[int, list[int]] | None]] = []
        for n in range(mesh.num_nodes):
            fwd_row: list[tuple[int, list[_InputVC]] | None] = [None] * _NUM_PORTS
            cr_row: list[tuple[int, list[int]] | None] = [None] * _NUM_PORTS
            for p in range(1, _NUM_PORTS):
                nb = mesh.neighbor(n, p)
                if nb is not None:
                    fwd_row[p] = (nb, self.routers[nb].inputs[_OPP[p]])
                    cr_row[p] = (nb, self.routers[nb].credits[_OPP[p]])
            self._fwd.append(fwd_row)
            self._credit_tbl.append(cr_row)
        # Min-heap of (injection_cycle, seq, packet); seq keeps FIFO order
        # among packets due on the same cycle.
        self._pending_packets: list[tuple[int, int, Packet]] = []
        self._pending_seq = 0
        self._route_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        # Per-node injection: FIFO of packets, plus the VC the open packet uses.
        self._inject_fifo: list[deque[Flit]] = [deque() for _ in range(mesh.num_nodes)]
        self._inject_vc: list[int] = [-1] * mesh.num_nodes
        self._inject_rr: list[int] = [0] * mesh.num_nodes
        # Active-set scheduling: every cycle that needs processing at all has
        # one record [arrivals, credit returns, routers to evaluate, source
        # injectors to evaluate] created on first touch (which also pushes
        # the cycle onto the heap driving the main loop).
        self._events: dict[int, list] = {}
        self._event_pool: list[list] = []
        self._cycle_heap: list[int] = []
        self._delivered: list[Packet] = []
        self._cycle = 0
        self._flit_hops = 0
        self._flits_delivered = 0
        # Running occupancy counters so the quiet check is O(1).
        self._source_flits = 0
        self._buffered_flits = 0
        # Energy event counts as plain ints (hot path); see the `energy`
        # property for the dataclass view.
        self._e_buffer_writes = 0
        self._e_buffer_reads = 0
        self._e_crossbar = 0
        self._e_link = 0
        self._e_vc_alloc = 0
        self._e_sa_arb = 0

    @property
    def energy(self) -> EnergyEvents:
        """Energy event counts accumulated so far."""
        return EnergyEvents(
            buffer_writes=self._e_buffer_writes,
            buffer_reads=self._e_buffer_reads,
            crossbar_traversals=self._e_crossbar,
            link_traversals=self._e_link,
            vc_allocations=self._e_vc_alloc,
            sa_arbitrations=self._e_sa_arb,
        )

    # -- public API ---------------------------------------------------------------

    def inject(self, packets: list[Packet]) -> None:
        """Queue packets for injection at their ``injection_cycle``.

        Each packet's full XY route is resolved here, once, and stored on the
        packet; head flits then carry a hop index into it.
        """
        for p in packets:
            self.mesh._check(p.src)
            self.mesh._check(p.dst)
        if packets:
            METRICS.inc(
                "noc.flits_injected",
                sum(p.num_flits for p in packets),
                engine=self._ENGINE,
            )
        cache = self._route_cache
        for p in packets:
            route = cache.get((p.src, p.dst))
            if route is None:
                route = xy_route_ports(self.mesh, p.src, p.dst)
                cache[(p.src, p.dst)] = route
            p.route = route
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

        for cyc, _, p in self._pending_packets:
            self._wake_injector(p.src, cyc)

        idle_steps = 0
        idle_limit = 4 * (self.config.router_stages + self.config.link_latency) + 16
        while len(self._delivered) < total_packets:
            if not self._cycle_heap:
                raise RuntimeError(
                    f"NoC made no progress at cycle {self._cycle}; delivered "
                    f"{len(self._delivered)}/{total_packets}"
                )
            progressed = self._step()
            if progressed:
                idle_steps = 0
            else:
                idle_steps += 1
                if idle_steps > idle_limit:
                    raise RuntimeError(
                        f"NoC made no progress for {idle_steps} steps at cycle "
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

    # -- scheduling ----------------------------------------------------------------

    def _event(self, cycle: int) -> list:
        """The event record for ``cycle``, scheduling the cycle on first touch."""
        ev = self._events.get(cycle)
        if ev is None:
            pool = self._event_pool
            ev = pool.pop() if pool else [[], [], set(), set()]
            self._events[cycle] = ev
            heapq.heappush(self._cycle_heap, cycle)
        return ev

    def _wake_router(self, node: int, cycle: int) -> None:
        self._event(cycle)[2].add(node)

    def _wake_injector(self, node: int, cycle: int) -> None:
        self._event(cycle)[3].add(node)

    # -- per-cycle machinery -----------------------------------------------------------

    def _step(self) -> bool:
        """Process the next scheduled cycle; returns True if any flit moved."""
        cycle = heapq.heappop(self._cycle_heap)
        record = self._events.pop(cycle)
        arrivals, credits, active, injectors = record
        routers = self.routers
        moved = False

        # (a) scheduled arrivals and credit returns land first.  A newly
        # buffered flit only makes its router evaluable when it is at the
        # front of its VC; if its pipeline finishes later, the router is
        # woken at that ready cycle instead of now.
        if arrivals:
            for node, in_vc, flit in arrivals:
                fifo = in_vc.fifo
                fifo.append(flit)
                if len(fifo) == 1:
                    if flit.ready_cycle <= cycle:
                        active.add(node)
                    else:
                        self._wake_router(node, flit.ready_cycle)
                    if flit.is_head and not in_vc.allocated:
                        routers[node].head_pending.add(in_vc)
            self._buffered_flits += len(arrivals)
            self._e_buffer_writes += len(arrivals)
            moved = True
        if credits:
            for node, credit_list, vc in credits:
                credit_list[vc] += 1
                # The credit may unblock a switch traversal right now.
                active.add(node)

        # (b) source injection.
        if injectors or (
            self._pending_packets and self._pending_packets[0][0] <= cycle
        ):
            moved |= self._inject_cycle(cycle, injectors, active)

        # (c) VC allocation + switch allocation/traversal for the routers
        # that can make progress this cycle.  Per-router VA-then-SA is
        # equivalent to the reference's two full passes: VA touches only the
        # router's own state and SA only schedules future events, so there is
        # no same-cycle cross-router interaction.
        if active:
            vc_allocate = self._vc_allocate
            switch_traverse = self._switch_traverse
            next_wake = None
            for node in active:
                router = routers[node]
                changed = bool(router.head_pending) and vc_allocate(router, cycle)
                if switch_traverse(router, cycle):
                    changed = True
                    moved = True
                if changed:
                    # Progress now may enable more progress next cycle.
                    if next_wake is None:
                        next_wake = self._event(cycle + 1)[2]
                    next_wake.add(node)

        # Recycle the consumed record: everything scheduled during this step
        # targets a future cycle, so nothing else holds a reference to it.
        arrivals.clear()
        credits.clear()
        active.clear()
        injectors.clear()
        self._event_pool.append(record)

        self._cycle = cycle + 1
        return moved

    def _inject_cycle(self, cycle: int, injectors: set[int], active: set[int]) -> bool:
        moved = False
        # Move due packets into their source NI FIFO.
        while self._pending_packets and self._pending_packets[0][0] <= cycle:
            _, _, packet = heapq.heappop(self._pending_packets)
            fifo = self._inject_fifo[packet.src]
            for i in range(packet.num_flits):
                fifo.append(Flit(packet, i))
            self._source_flits += packet.num_flits
            injectors.add(packet.src)
            moved = True

        ready_cycle = cycle + self._ready_add
        vc_buf = self._vc_buf
        for node in injectors:
            fifo = self._inject_fifo[node]
            if not fifo:
                continue
            budget = self._phys
            router = self.routers[node]
            injected = 0
            while budget and fifo:
                flit = fifo[0]
                if flit.is_head:
                    vc = self._pick_injection_vc(router, node)
                    if vc < 0:
                        break
                    self._inject_vc[node] = vc
                vc = self._inject_vc[node]
                in_vc = router.inputs[LOCAL][vc]
                in_fifo = in_vc.fifo
                if len(in_fifo) >= vc_buf:
                    break
                fifo.popleft()
                flit.ready_cycle = ready_cycle
                in_fifo.append(flit)
                if len(in_fifo) == 1 and flit.is_head and not in_vc.allocated:
                    router.head_pending.add(in_vc)
                budget -= 1
                injected += 1
            if injected:
                self._source_flits -= injected
                self._buffered_flits += injected
                self._e_buffer_writes += injected
                moved = True
                # The flits finish the router pipeline at ready_cycle;
                # evaluate the router then (now, if single-stage).
                if ready_cycle == cycle:
                    active.add(node)
                else:
                    self._wake_router(node, ready_cycle)
                if fifo:
                    self._wake_injector(node, cycle + 1)
            # If blocked with a non-empty FIFO, a switch traversal draining a
            # LOCAL input VC re-wakes this injector (see _switch_traverse).
        return moved

    def _pick_injection_vc(self, router: _Router, node: int) -> int:
        """Round-robin choice of a LOCAL input VC with room for a new head.

        Wormhole correctness requires whole packets to occupy one VC, but
        FIFO order within the VC already guarantees flit contiguity, so any
        VC with buffer space is acceptable.
        """
        num_vcs = self._num_vcs
        start = self._inject_rr[node]
        for k in range(num_vcs):
            vc = (start + k) % num_vcs
            if len(router.inputs[LOCAL][vc].fifo) < self._vc_buf:
                self._inject_rr[node] = (vc + 1) % num_vcs
                return vc
        return -1

    def _vc_allocate(self, router: _Router, cycle: int) -> bool:
        """Allocate output VCs to pending head flits; True if any allocation.

        Only the input VCs in ``head_pending`` are inspected — the set of VCs
        whose front flit is an unallocated head.  Request/grant order does
        not affect the outcome: every grant is resolved through a total
        round-robin priority, so iterating a set here is equivalent to the
        reference engine's full port x VC scan.
        """
        pending = router.head_pending
        num_vcs = self._num_vcs
        rr_mod = self._rr_mod
        requests: dict[int, list[_InputVC]] = {}
        for in_vc in pending:
            flit = in_vc.fifo[0]
            if flit.ready_cycle > cycle:
                continue
            out_port = flit.packet.route[flit.hop]
            reqs = requests.get(out_port)
            if reqs is None:
                requests[out_port] = [in_vc]
            else:
                reqs.append(in_vc)

        allocated = False
        for out_port, reqs in requests.items():
            if out_port == LOCAL:
                # Ejection has per-VC sink slots; model as always-free VCs.
                holders = router.alloc_by_out[LOCAL]
                for in_vc in reqs:
                    in_vc.allocated = True
                    in_vc.out_port = LOCAL
                    in_vc.out_vc = 0
                    pending.discard(in_vc)
                    holders.add(in_vc)
                self._e_vc_alloc += len(reqs)
                allocated = True
                continue
            # Grant free output VCs round-robin among requesters.
            out_free = router.out_vc_free[out_port]
            free_vcs = [v for v in range(num_vcs) if out_free[v]]
            if not free_vcs:
                continue
            rr = router.va_rr[out_port]
            if len(reqs) > 1:
                reqs.sort(key=lambda v: (v.key - rr) % rr_mod)
            holders = router.alloc_by_out[out_port]
            for in_vc, out_vc in zip(reqs, free_vcs):
                in_vc.allocated = True
                in_vc.out_port = out_port
                in_vc.out_vc = out_vc
                out_free[out_vc] = False
                router.va_rr[out_port] = (in_vc.key + 1) % rr_mod
                pending.discard(in_vc)
                holders.add(in_vc)
                self._e_vc_alloc += 1
                allocated = True
        return allocated

    def _switch_traverse(self, router: _Router, cycle: int) -> bool:
        rr_mod = self._rr_mod
        phys = self._phys
        node = router.node
        alloc_by_out = router.alloc_by_out
        # Flit forwarding and the matching credit land one link traversal
        # out; both share one event record, fetched lazily once per call.
        link_cycle = cycle + self._link_lat
        link_ev: list | None = None
        ready_add = self._ready_add
        next_cycle = cycle + 1
        # Per-call tallies, flushed to the instance counters once at the end.
        pops = 0
        forwards = 0
        arbitrations = 0
        wake_source = False
        for out_port in range(_NUM_PORTS):
            holders = alloc_by_out[out_port]
            if not holders:
                continue
            # Candidates: input VCs allocated to this output with a ready
            # flit (and downstream credit, except for ejection).  The common
            # case — one packet streaming through the port — takes a fast
            # path with no list building or sorting.
            if len(holders) == 1:
                for v in holders:
                    break
                f = v.fifo
                if not f or f[0].ready_cycle > cycle:
                    continue
                if out_port != LOCAL and router.credits[out_port][v.out_vc] <= 0:
                    continue
                arbitrations += 1
                grants = (v,)
            else:
                if out_port == LOCAL:
                    candidates = [
                        v
                        for v in holders
                        if (f := v.fifo) and f[0].ready_cycle <= cycle
                    ]
                else:
                    port_credits = router.credits[out_port]
                    candidates = [
                        v
                        for v in holders
                        if (f := v.fifo)
                        and f[0].ready_cycle <= cycle
                        and port_credits[v.out_vc] > 0
                    ]
                if not candidates:
                    continue
                arbitrations += len(candidates)
                if len(candidates) > 1:
                    rr = router.sa_rr[out_port]
                    candidates.sort(key=lambda v: (v.key - rr) % rr_mod)
                    grants = candidates[:phys] if len(candidates) > phys else candidates
                else:
                    grants = candidates
            if out_port != LOCAL:
                down, down_inputs = self._fwd[node][out_port]
                out_credits = router.credits[out_port]
                out_free = router.out_vc_free[out_port]
            for in_vc in grants:
                fifo = in_vc.fifo
                flit = fifo.popleft()
                pops += 1
                router.sa_rr[out_port] = (in_vc.key + 1) % rr_mod

                port = in_vc.port
                if port != LOCAL:
                    # Return a credit upstream (not for locally injected
                    # flits).  The upstream router is activated when the
                    # credit lands (see _step), so only the cycle needs
                    # scheduling here.
                    if link_ev is None:
                        link_ev = self._event(link_cycle)
                    link_ev[1].append((*self._credit_tbl[node][port], in_vc.vc))
                elif self._inject_fifo[node]:
                    # Freed a slot in a LOCAL input VC: the source NI may
                    # resume injecting next cycle.
                    wake_source = True

                if out_port == LOCAL:
                    self._eject(flit, cycle, in_vc)
                else:
                    # Switch + link traversal to the downstream input buffer
                    # (the reference's _forward, inlined).
                    out_vc = in_vc.out_vc
                    out_credits[out_vc] -= 1
                    flit.ready_cycle = link_cycle + ready_add
                    flit.hop += 1
                    if link_ev is None:
                        link_ev = self._event(link_cycle)
                    link_ev[0].append((down, down_inputs[out_vc], flit))
                    forwards += 1
                    if flit.is_tail:
                        in_vc.allocated = False
                        out_free[out_vc] = True
                if flit.is_tail:
                    holders.discard(in_vc)
                if fifo:
                    # The pop may expose the next packet's head flit, and a
                    # front flit still in the pipeline needs a wake at its
                    # ready cycle (the progress wake at cycle+1 covers the
                    # ready-now and ready-next cases).
                    nxt = fifo[0]
                    if nxt.ready_cycle > next_cycle:
                        self._wake_router(node, nxt.ready_cycle)
                    if nxt.is_head and not in_vc.allocated:
                        router.head_pending.add(in_vc)
        if not pops:
            return False
        self._buffered_flits -= pops
        self._e_buffer_reads += pops
        self._e_crossbar += pops
        self._e_sa_arb += arbitrations
        self._e_link += forwards
        self._flit_hops += forwards
        if wake_source:
            self._wake_injector(node, next_cycle)
        return True

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
