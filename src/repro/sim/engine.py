"""End-to-end single-pass inference simulation.

Combines the three hardware models:

* per-core compute time from the DianNao core model (busiest core is the
  layer's critical path — cores synchronize at layer boundaries);
* computation-blocking communication time from the NoC: the layer-transition
  burst is injected at cycle 0 and the drain time (in NoC cycles, converted
  by the core/NoC clock ratio) is charged before the layer's compute;
* the DRAM fetch of the network input before the first layer.  Weights are
  resident: the paper's latency model streams none (see DESIGN.md).

Communication simulation modes
------------------------------
``cycle``        exact cycle-level simulation of the full burst;
``scaled-cycle`` for very large bursts: the traffic matrix is scaled down to
                 a configurable flit budget, simulated, and the drain time
                 extrapolated linearly in load above the zero-load latency
                 (drain time of a fixed pattern is bandwidth-limited, hence
                 ~linear in volume; tests check the extrapolation error);
``analytical``   closed-form bound only (used when cycle accuracy is not
                 needed, e.g. quick sweeps).

Drain-time memoization
----------------------
The same layer-transition bursts recur across schemes, tables, and benchmark
reruns (a plan's traffic matrix depends only on the model, partitioning, and
placement — not on which experiment asks for it).  Cycle-level drain results
are therefore memoized persistently via :mod:`repro.experiments.cache`
(``$REPRO_CACHE_DIR``, default ``.repro_cache/``), keyed on a hash of the
exact traffic matrix, every :class:`~repro.noc.packet.NoCConfig` field, and
the mesh shape, so any change to the network or the traffic invalidates the
entry.  Corrupt or truncated entries fall back to fresh simulation, exactly
like ``load_state``.  Disable with ``SimConfig(comm_cache=False)``.
:func:`memoized_drain` is the one path through the memo: the engine's
cycle-level drains and the NoC ablations (``repro.experiments.ablations``)
both drain through it.

The returned :class:`~repro.sim.results.SimulationResult` reports how many
drains were served from the memo vs simulated (``drain_memo_hits`` /
``drain_memo_misses``), and the same counts feed the global metrics registry
as ``cache.drain_memo.hit`` / ``.miss``.

Observability
-------------
With tracing enabled (:func:`repro.obs.enable_tracing`), every simulated plan
emits nested ``sim.simulate`` → ``simulate.layer`` → ``sim.drain`` spans with
cycle attribution.  With NoC profiling enabled
(:func:`repro.obs.enable_noc_profiling`), cycle-level drains accumulate
per-link flit counts into the process-global per-mesh profile; profiled
drains bypass memo *reads* (a memo entry has no per-link data) but still
write entries, so the numbers are identical to an unprofiled run.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from ..accel.chip import ChipConfig
from ..noc.analytical import AnalyticalEstimate, estimate_drain_cycles
from ..obs import METRICS, nocprof, span
from ..noc.energy import EnergyBreakdown
from ..noc.network import EnergyEvents, NoCSimulator, NoCStats
from ..noc.packet import NoCConfig, message_flits
from ..noc.topology import Mesh2D
from ..noc.traffic import TrafficMatrix
from ..partition.plan import LayerPlan, ModelParallelPlan
from .results import LayerTimeline, SimulationResult

__all__ = [
    "SimConfig",
    "InferenceSimulator",
    "drain_memo_key",
    "memoized_drain",
    "memoized_drain_estimate",
    "input_load_cycles",
]

#: Bump to invalidate all memoized drain results (e.g. if simulator semantics
#: ever intentionally change).
_DRAIN_MEMO_VERSION = 1


def _cache():
    """The artifact-cache module, imported lazily.

    ``repro.experiments`` pulls in the experiment runners (which import this
    module), so a top-level import would be circular; ``cache`` itself has no
    dependency on the simulator.
    """
    from ..experiments import cache

    return cache

_ENERGY_FIELDS = (
    "buffer_writes",
    "buffer_reads",
    "crossbar_traversals",
    "link_traversals",
    "vc_allocations",
    "sa_arbitrations",
)

#: Fields of an AnalyticalEstimate persisted next to cycle-exact results.
_ANALYTICAL_FIELDS = ("source_bound", "sink_bound", "link_bound", "head_latency")


def drain_memo_key(mesh: Mesh2D, noc: NoCConfig, traffic: TrafficMatrix) -> str:
    """Persistent cache key for one burst's cycle-level drain result.

    Any change to the mesh shape, any ``NoCConfig`` field, or any byte of the
    traffic matrix produces a different key.
    """
    traffic_sha = hashlib.sha256(
        repr(traffic.bytes_matrix.shape).encode()
        + np.ascontiguousarray(traffic.bytes_matrix).tobytes()
    ).hexdigest()
    return _cache().settings_key(
        "noc-drain",
        {
            "version": _DRAIN_MEMO_VERSION,
            "mesh": [mesh.width, mesh.height],
            "noc": asdict(noc),
            "traffic_sha": traffic_sha,
        },
    )


def _parse_analytical(raw: object) -> AnalyticalEstimate | None:
    """Validated ``analytical`` sub-entry of a memo record, or None."""
    if not isinstance(raw, dict):
        return None
    try:
        fields = {f: raw[f] for f in _ANALYTICAL_FIELDS}
    except KeyError:
        return None
    if any(not isinstance(v, int) for v in fields.values()):
        return None
    return AnalyticalEstimate(**fields)


def _merge_drain_entry(key: str, updates: dict) -> None:
    """Merge ``updates`` into the persistent memo entry at ``key``.

    Cycle-exact and analytical results land in the same entry regardless of
    which was computed first; a read-modify-write keeps whichever half is
    already present (the values are deterministic, so a concurrent writer
    merging the same key produces the same bytes).
    """
    data = _cache().load_json(key)
    if not isinstance(data, dict):
        data = {}
    data.update(updates)
    _cache().save_json(key, data)


def memoized_drain_estimate(
    mesh: Mesh2D, noc: NoCConfig, traffic: TrafficMatrix, key: str | None = None
) -> AnalyticalEstimate:
    """Analytical drain estimate, persisted alongside cycle-exact results.

    Repeated searches and calibration sampling hit the same layer-transition
    bursts over and over; the estimate is stored in the burst's drain-memo
    entry (under ``"analytical"``, next to the cycle-level ``"cycles"`` when
    one exists) so neither side is ever recomputed.  Entries written before
    this field existed simply miss once and are upgraded in place.
    """
    key = key or drain_memo_key(mesh, noc, traffic)
    est = _parse_analytical((_cache().load_json(key) or {}).get("analytical"))
    if est is not None:
        METRICS.inc("cache.drain_analytical.hit")
        return est
    METRICS.inc("cache.drain_analytical.miss")
    est = estimate_drain_cycles(traffic, mesh, noc)
    _merge_drain_entry(
        key, {"analytical": {f: getattr(est, f) for f in _ANALYTICAL_FIELDS}}
    )
    return est


def input_load_cycles(chip: ChipConfig, in_shape: tuple[int, ...]) -> int:
    """Cycles to fetch a network input from DRAM and distribute it on-chip.

    The image streams once through the memory controller and is multicast to
    the cores (every core needs the full input of the first layer, so a
    broadcast tree replicates flits in the fabric rather than unicasting per
    core).  The distribution therefore pipelines behind the DRAM stream and
    only adds the multicast tree's fill latency — the network diameter's
    worth of router hops.  Scheme-independent, so the plan-cost oracle
    charges it once per model, exactly like the engine.
    """
    input_bytes = int(np.prod(in_shape)) * chip.bytes_per_value
    dram_cycles = chip.dram.transfer_cycles(input_bytes)
    cfg = chip.noc
    per_noc_cycle = cfg.flit_bytes * cfg.physical_channels
    stream_noc_cycles = -(-input_bytes // per_noc_cycle)
    fill = chip.mesh.diameter * (cfg.router_stages + cfg.link_latency)
    noc_cycles = (stream_noc_cycles + fill) * cfg.core_clock_divider
    return max(dram_cycles, noc_cycles)


@dataclass(frozen=True)
class SimConfig:
    """Engine options."""

    comm_mode: str = "auto"  # auto | cycle | analytical
    max_cycle_sim_flits: int = 60_000
    # Charge the scheme-independent cost of fetching the input image from
    # DRAM and broadcasting it to all cores before the first layer.
    include_input_load: bool = True
    # Memoize cycle-level drain results persistently (see module docstring).
    comm_cache: bool = True

    def __post_init__(self) -> None:
        if self.comm_mode not in ("auto", "cycle", "analytical"):
            raise ValueError(
                f"comm_mode must be auto|cycle|analytical, got {self.comm_mode!r}"
            )
        if self.max_cycle_sim_flits < 1000:
            raise ValueError("max_cycle_sim_flits unrealistically small")


class InferenceSimulator:
    """Simulate single-pass inference latency/energy of a partition plan."""

    def __init__(self, chip: ChipConfig, config: SimConfig | None = None) -> None:
        self.chip = chip
        self.config = config or SimConfig()
        self._core_model = chip.core_model()
        # Per-simulate() drain-memo accounting, surfaced on SimulationResult.
        self._memo_hits = 0
        self._memo_misses = 0

    # -- public API ------------------------------------------------------------------

    def simulate(self, plan: ModelParallelPlan) -> SimulationResult:
        if plan.num_cores != self.chip.num_cores:
            raise ValueError(
                f"plan is for {plan.num_cores} cores, chip has {self.chip.num_cores}"
            )
        self._memo_hits = 0
        self._memo_misses = 0
        if self.config.comm_cache:
            # Register both sides of the hit rate so snapshots always show it.
            METRICS.inc("cache.drain_memo.hit", 0)
            METRICS.inc("cache.drain_memo.miss", 0)
        result = SimulationResult(
            model_name=plan.name, scheme=plan.scheme, num_cores=plan.num_cores
        )
        with span(
            "sim.simulate", model=plan.name, scheme=plan.scheme, cores=plan.num_cores
        ) as sp:
            if self.config.include_input_load and plan.layers:
                cycles, energy = self._input_load(plan.layers[0])
                result.input_load_cycles = cycles
                result.input_load_energy_j = energy
            for layer_plan in plan.layers:
                result.layers.append(self._simulate_layer(layer_plan))
            result.drain_memo_hits = self._memo_hits
            result.drain_memo_misses = self._memo_misses
            sp.set(
                total_cycles=result.total_cycles,
                comm_cycles=result.comm_cycles,
                drain_memo_hits=result.drain_memo_hits,
                drain_memo_misses=result.drain_memo_misses,
            )
        return result

    def _input_load(self, first_layer: LayerPlan) -> tuple[int, float]:
        """Cycles/energy to fetch the input from DRAM and distribute it."""
        chip = self.chip
        input_bytes = int(np.prod(first_layer.layer.in_shape)) * chip.bytes_per_value
        energy = chip.dram.transfer_energy_j(input_bytes)
        return input_load_cycles(chip, first_layer.layer.in_shape), energy

    # -- per-layer ---------------------------------------------------------------------

    def _simulate_layer(self, lp: LayerPlan) -> LayerTimeline:
        with span("simulate.layer", layer=lp.layer.name) as sp:
            timeline = self._layer_timeline(lp)
            sp.set(
                compute_cycles=timeline.compute_cycles,
                comm_cycles=timeline.comm_cycles,
                traffic_bytes=timeline.traffic_bytes,
                mode=timeline.comm_mode,
            )
        return timeline

    def _layer_timeline(self, lp: LayerPlan) -> LayerTimeline:
        chip = self.chip
        compute_cycles = max(
            (self._core_model.compute_cycles(w) for w in lp.workloads()), default=0
        )
        comm_cycles, flit_hops, noc_energy, mode = self._communication(lp.traffic)

        compute_energy = sum(
            chip.compute_energy.workload_energy_j(w, self._core_model)
            for w in lp.workloads()
        )
        compute_energy += chip.compute_energy.static_energy_j(
            compute_cycles, chip.num_cores
        )

        return LayerTimeline(
            layer_name=lp.layer.name,
            compute_cycles=compute_cycles,
            comm_cycles=comm_cycles,
            traffic_bytes=lp.traffic.total_bytes,
            flit_hops=flit_hops,
            noc_energy=noc_energy,
            compute_energy_j=compute_energy,
            comm_mode=mode,
        )

    def _communication(
        self, traffic: TrafficMatrix
    ) -> tuple[int, int, EnergyBreakdown, str]:
        """(core cycles, flit hops, NoC energy, mode) for one layer's burst."""
        chip = self.chip
        cfg = chip.noc
        if traffic.total_bytes == 0:
            return 0, 0, EnergyBreakdown(0, 0, 0, 0), "none"

        total_flits = int(message_flits(traffic.bytes_matrix, cfg).sum())
        mode = self.config.comm_mode
        if mode == "auto":
            mode = "cycle" if total_flits <= self.config.max_cycle_sim_flits else "scaled-cycle"

        if mode == "cycle":
            noc_cycles, flit_hops, energy = self._cycle_sim(traffic)
            return noc_cycles * cfg.core_clock_divider, flit_hops, energy, "cycle"

        if mode == "analytical":
            noc_cycles = self._drain_estimate(traffic).cycles
        else:
            # scaled-cycle: simulate a scaled pattern and extrapolate linearly
            # in load above the zero-load head latency.
            scale = self.config.max_cycle_sim_flits / total_flits
            scaled_cycles, _, _ = self._cycle_sim(traffic.scaled(scale))
            head = self._drain_estimate(traffic).head_latency
            noc_cycles = int(max(0, scaled_cycles - head) / scale) + head
        # Energy and flit-hops follow the real traffic exactly (analytical
        # accounting).
        energy = chip.noc_energy.analytical_energy(traffic, chip.mesh, cfg)
        flit_hops = traffic.total_flit_hops(chip.mesh, cfg)
        return noc_cycles * cfg.core_clock_divider, flit_hops, energy, mode

    def _drain_estimate(self, traffic: TrafficMatrix) -> AnalyticalEstimate:
        """Analytical estimate for one burst, memoized when comm_cache is on."""
        chip = self.chip
        if self.config.comm_cache:
            return memoized_drain_estimate(chip.mesh, chip.noc, traffic)
        return estimate_drain_cycles(traffic, chip.mesh, chip.noc)

    def _cycle_sim(self, traffic: TrafficMatrix) -> tuple[int, int, EnergyBreakdown]:
        chip = self.chip
        memo = self.config.comm_cache
        stats, hit = memoized_drain(chip.mesh, chip.noc, traffic, memo=memo)
        if memo:
            if hit:
                self._memo_hits += 1
            else:
                self._memo_misses += 1
        energy = chip.noc_energy.simulation_energy(stats, chip.mesh.num_nodes)
        return stats.cycles, stats.flit_hops, energy


def memoized_drain(
    mesh: Mesh2D, noc: NoCConfig, traffic: TrafficMatrix, memo: bool = True
) -> tuple[NoCStats, bool]:
    """Cycle-level drain of one burst, read from the drain memo when it can be.

    Returns the drain's stats and whether they came from the memo.  A memo
    entry holds only the drain time, flit-hops and energy events, so a hit's
    packet counts and latencies read zero.  ``memo=False`` always simulates
    and writes nothing.  A profiled drain needs the cycle-level run for its
    per-link counts, so memo reads are bypassed while NoC profiling is on
    (entries are still written; the returned numbers are identical either
    way).
    """
    profiling = nocprof.noc_profiling_enabled()
    key = None
    if memo:
        key = drain_memo_key(mesh, noc, traffic)
        entry = None if profiling else _load_drain_memo(key)
        if entry is not None:
            cycles, flit_hops, events = entry
            METRICS.inc("cache.drain_memo.hit")
            METRICS.inc("sim.drain_cycles", cycles)
            with span("sim.drain", cached=True) as sp:
                sp.set(cycles=cycles, flit_hops=flit_hops)
            stats = NoCStats(
                cycles=cycles,
                packets_delivered=0,
                flits_delivered=0,
                flit_hops=flit_hops,
                avg_packet_latency=0.0,
                max_packet_latency=0,
                energy=events,
            )
            return stats, True
        METRICS.inc("cache.drain_memo.miss")

    profile = nocprof.global_profile(mesh.width, mesh.height) if profiling else None
    with span("sim.drain", cached=False) as sp:
        sim = NoCSimulator(mesh, noc, profile=profile)
        sim.inject(traffic.to_packets(noc))
        stats = sim.run()
        sp.set(cycles=stats.cycles, flit_hops=stats.flit_hops)
    METRICS.inc("sim.drain_cycles", stats.cycles)
    if key is not None:
        # The analytical estimate rides along in the same entry (cheap to
        # compute next to a cycle-level run, and it saves calibration
        # sampling a recompute later — see memoized_drain_estimate).
        est = estimate_drain_cycles(traffic, mesh, noc)
        _merge_drain_entry(
            key,
            {
                "cycles": stats.cycles,
                "flit_hops": stats.flit_hops,
                "energy": {f: getattr(stats.energy, f) for f in _ENERGY_FIELDS},
                "analytical": {f: getattr(est, f) for f in _ANALYTICAL_FIELDS},
            },
        )
    return stats, False


def _load_drain_memo(key: str) -> tuple[int, int, EnergyEvents] | None:
    """Validated memo entry ``(cycles, flit_hops, energy)``, or None.

    Schema violations (missing keys, wrong types, stray fields from an old
    format) are treated as cache misses, so a corrupt or stale entry can
    never poison a run — it is simply re-simulated and overwritten.
    """
    data = _cache().load_json(key)
    if data is None:
        return None
    try:
        cycles = data["cycles"]
        flit_hops = data["flit_hops"]
        raw = data["energy"]
        if not isinstance(cycles, int) or not isinstance(flit_hops, int):
            return None
        counts = {f: raw[f] for f in _ENERGY_FIELDS}
        if any(not isinstance(v, int) for v in counts.values()):
            return None
        return cycles, flit_hops, EnergyEvents(**counts)
    except (KeyError, TypeError):
        return None
