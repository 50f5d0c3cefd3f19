"""Sim-time serving telemetry: windowed time-series over request events.

One :class:`ServeTimeSeries` accumulates the per-request events of one
serving run — arrivals, batch dispatches, completions — into fixed-width
**sim-time windows** (cycle-aligned, not wall-clock), yielding per-window
arrival/completion rates, queue depth, per-replica-group utilization,
nearest-rank latency percentiles, and SLO burn rate — plus, for pipelined
MCM clusters (``stages > 0``), per-stage busy cycles per window and
cumulative per-stage occupancy / bubble fractions (idle share relative to
the bottleneck stage), fed through :meth:`ServeTimeSeries.on_stage_busy`
and retained as intervals for the Perfetto per-chip tracks.  End-of-run aggregate
views hide warmup transients, queue buildup, and burn-rate spikes; the
series is the time-resolved lens every scale-out PR debugs through.

Memory is bounded no matter how many requests a run serves:

* **Window coalescing.** At most ``MAX_WINDOWS`` windows are retained.  When
  a run outlives its window budget, adjacent window pairs merge and the
  window width doubles — the series keeps *full* coverage of the run at
  progressively coarser resolution instead of silently dropping history
  (``coalesced`` in the export counts the doublings).
* **Reservoir-sampled latencies.** Each window keeps at most
  ``WINDOW_RESERVOIR`` latency samples (uniform reservoir, seeded — runs are
  reproducible), and the run-wide percentile state at most
  ``CUMULATIVE_RESERVOIR``.  While the observation count fits the reservoir
  the percentiles are **exact** nearest-rank values (``percentiles_exact``
  in the export) and match :class:`repro.serve.slo.SLOReport` digit for
  digit; past it they are sampled estimates.
* **Request lifecycles.** The first ``REQUEST_CAP`` per-request
  ``(rid, arrival, start, finish, replica, batch_size)`` tuples are retained
  for the Chrome trace exporter (:mod:`repro.obs.chrometrace`); the rest
  are counted in ``requests_dropped``.

Like tracing, collection is **off by default**: the serving simulator checks
:func:`timeseries_enabled` once per run and pays one ``is None`` branch per
event when disabled, building no series
(``tests/obs/test_disabled_telemetry.py``).
Series are registered process-globally (:func:`start_series` /
:func:`global_timeseries`) so :func:`repro.obs.export_trace` bundles them
into the JSONL trace, and worker processes ship them back through
:mod:`repro.obs.payload` in input order — a parallel sweep's series are
byte-identical to a serial run's.
"""

from __future__ import annotations

import random
from typing import Any

from .metrics import percentile

__all__ = [
    "Reservoir",
    "ServeTimeSeries",
    "enable_timeseries",
    "disable_timeseries",
    "timeseries_enabled",
    "timeseries_config",
    "start_series",
    "global_timeseries",
    "clear_timeseries",
    "adopt_timeseries",
    "MAX_WINDOWS",
    "WINDOW_RESERVOIR",
    "CUMULATIVE_RESERVOIR",
    "REQUEST_CAP",
    "SLO_BUDGET",
    "SEED",
]

# Series settings.  Only the window width is configurable
# (:func:`enable_timeseries`); tests shrink these by monkeypatching, and a
# series reads them once, when it is built.
#: Retained-window budget; must be even so coalescing merges exact pairs.
MAX_WINDOWS = 256
#: Per-window latency reservoir capacity.
WINDOW_RESERVOIR = 256
#: Run-wide latency reservoir capacity (exact percentiles up to this count).
CUMULATIVE_RESERVOIR = 4096
#: Per-request lifecycle tuples kept for Chrome trace export.
REQUEST_CAP = 20000
#: SLO error budget: burn rate 1.0 == violating this fraction of requests.
SLO_BUDGET = 0.01
#: Reservoir RNG seed.
SEED = 0
#: Initial window width when none is configured (auto mode coalesces up).
DEFAULT_WINDOW_CYCLES = 4096


class Reservoir:
    """Uniform reservoir sample (algorithm R) with a deterministic RNG.

    While ``count <= capacity`` every observation is retained, so
    :meth:`quantile` is the exact nearest-rank percentile; past capacity the
    sample stays uniform over the stream.  The RNG is seeded per reservoir,
    so identical event streams produce identical samples — serial and
    parallel runs export byte-identical series.
    """

    __slots__ = ("capacity", "count", "samples", "_rng", "_seed")

    def __init__(self, capacity: int, seed: Any = 0) -> None:
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.samples: list[float] = []
        self._seed = str(seed)
        self._rng = random.Random(self._seed)

    def add(self, value: float) -> None:
        self.count += 1
        if len(self.samples) < self.capacity:
            self.samples.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < self.capacity:
                self.samples[j] = value

    @property
    def exact(self) -> bool:
        """True while no observation has been evicted."""
        return self.count <= self.capacity

    def quantile(self, pct: float) -> float:
        """Nearest-rank percentile over the retained sample (0.0 if empty)."""
        if not self.samples:
            return 0.0
        return percentile(self.samples, pct)

    def absorb(self, other: "Reservoir") -> None:
        """Fold another reservoir in (window coalescing).

        The union of both samples is kept when it fits; otherwise it is
        down-sampled with an RNG seeded from both reservoirs' identities, so
        merging is deterministic for deterministic streams.
        """
        combined = self.samples + other.samples
        self.count += other.count
        merged_seed = f"{self._seed}|{other._seed}|{self.count}"
        if len(combined) > self.capacity:
            combined = random.Random(merged_seed).sample(combined, self.capacity)
        self.samples = combined
        self._seed = merged_seed
        self._rng = random.Random(self._seed)


class _Window:
    """One sim-time window's accumulating counters (mutable, internal)."""

    __slots__ = (
        "start", "end", "arrivals", "completions", "dispatches", "violations",
        "queue_depth_end", "queue_depth_max", "busy", "stage_busy", "latencies",
    )

    def __init__(self, start: int, end: int, depth: int, reservoir: Reservoir) -> None:
        self.start = start
        self.end = end
        self.arrivals = 0
        self.completions = 0
        self.dispatches = 0
        self.violations = 0
        self.queue_depth_end = depth
        self.queue_depth_max = depth
        self.busy: dict[int, int] = {}
        #: (replica, stage) -> busy cycles; only fed by pipelined clusters.
        self.stage_busy: dict[tuple[int, int], int] = {}
        self.latencies = reservoir

    def merge(self, other: "_Window") -> None:
        """Coalesce the immediately following window into this one."""
        self.end = other.end
        self.arrivals += other.arrivals
        self.completions += other.completions
        self.dispatches += other.dispatches
        self.violations += other.violations
        self.queue_depth_end = other.queue_depth_end
        self.queue_depth_max = max(self.queue_depth_max, other.queue_depth_max)
        for replica, cycles in other.busy.items():
            self.busy[replica] = self.busy.get(replica, 0) + cycles
        for key, cycles in other.stage_busy.items():
            self.stage_busy[key] = self.stage_busy.get(key, 0) + cycles
        self.latencies.absorb(other.latencies)


class ServeTimeSeries:
    """Windowed sim-time telemetry of one serving run.

    Fed by :class:`repro.serve.simulator.ServeSimulator` through three event
    hooks (:meth:`on_arrival`, :meth:`on_dispatch`, :meth:`on_completion`)
    whose call order mirrors the deterministic event loop exactly, then
    sealed with :meth:`finalize` and serialized with :meth:`to_dict`.
    """

    def __init__(
        self,
        label: str,
        groups: int,
        window_cycles: int | None = None,
        slo_cycles: int | None = None,
        attrs: dict[str, Any] | None = None,
        stages: int = 0,
    ) -> None:
        if window_cycles is not None and window_cycles <= 0:
            raise ValueError(
                f"window_cycles must be positive, got {window_cycles} "
                "(zero-width windows would never close)"
            )
        if MAX_WINDOWS < 2 or MAX_WINDOWS % 2:
            raise ValueError(f"MAX_WINDOWS must be even and >= 2, got {MAX_WINDOWS}")
        self.label = label
        self.groups = max(1, groups)
        self.initial_window_cycles = window_cycles
        self.max_windows = MAX_WINDOWS
        self.window_reservoir = WINDOW_RESERVOIR
        self.request_cap = REQUEST_CAP
        self.slo_cycles = slo_cycles
        self.slo_budget = SLO_BUDGET
        self.seed = SEED
        self.attrs = dict(attrs or {})
        #: Pipeline stages per replica group (0 = one-stage groups, no stage keys).
        self.stages = max(0, stages)

        self._width = window_cycles or DEFAULT_WINDOW_CYCLES
        self._coalesced = 0
        self._origin: int | None = None
        self._windows: list[_Window] = []
        self._cur: _Window | None = None
        self._reservoir_seq = 0
        #: open busy intervals [(start, end, replica)] awaiting window close.
        self._active: list[tuple[int, int, int]] = []
        #: open per-stage busy intervals [(start, end, replica, stage)].
        self._stage_active: list[tuple[int, int, int, int]] = []
        self._queue_depth = 0
        self._finalized = False

        # Exact run-wide aggregates (independent of sampling/coalescing).
        self._cum_latency = Reservoir(CUMULATIVE_RESERVOIR, seed=(self.seed, "cum"))
        self._arrivals = 0
        self._completions = 0
        self._dispatches = 0
        self._violations = 0
        self._lat_sum = 0
        self._lat_max = 0
        self._queue_sum = 0
        self._queue_depth_max = 0
        self._busy_total: dict[int, int] = {}
        self._stage_busy_total: dict[tuple[int, int], int] = {}
        #: first `REQUEST_CAP` (start, end, replica, stage) stage intervals,
        #: kept for the Perfetto per-chip tracks.
        self._stage_intervals: list[tuple[int, int, int, int]] = []
        self._stage_intervals_dropped = 0
        self._first_arrival: int | None = None
        self._last_finish: int | None = None
        self._requests: list[tuple[int, int, int, int, int, int]] = []
        self._requests_dropped = 0

    # -- window machinery ----------------------------------------------------------

    def _new_reservoir(self) -> Reservoir:
        self._reservoir_seq += 1
        return Reservoir(self.window_reservoir, seed=(self.seed, self._reservoir_seq))

    def _ensure_window(self, cycle: int) -> _Window:
        if self._cur is None:
            self._origin = cycle
            self._cur = _Window(
                cycle, cycle + self._width, self._queue_depth, self._new_reservoir()
            )
        self._advance(cycle)
        return self._cur

    def _advance(self, cycle: int) -> None:
        """Close every window that ends at or before ``cycle``."""
        while cycle >= self._cur.end:
            if len(self._windows) >= self.max_windows:
                self._coalesce()
                # The still-open window widens with the new resolution; its
                # start sits on an even boundary (max_windows is even), so
                # alignment is preserved.  Re-check against the wider end.
                self._cur.end = self._cur.start + self._width
                continue
            self._close_current()

    def _close_current(self) -> None:
        window = self._cur
        self._attribute_busy(window)
        window.queue_depth_end = self._queue_depth
        self._windows.append(window)
        self._cur = _Window(
            window.end, window.end + self._width, self._queue_depth,
            self._new_reservoir(),
        )

    def _coalesce(self) -> None:
        """Merge adjacent window pairs and double the window width."""
        merged: list[_Window] = []
        for i in range(0, len(self._windows) - 1, 2):
            first, second = self._windows[i], self._windows[i + 1]
            first.merge(second)
            merged.append(first)
        self._windows = merged
        self._width *= 2
        self._coalesced += 1

    def _attribute_busy(self, window: _Window) -> None:
        """Charge open busy intervals for their overlap with ``window``."""
        still_active: list[tuple[int, int, int]] = []
        for start, end, replica in self._active:
            overlap = min(end, window.end) - max(start, window.start)
            if overlap > 0:
                window.busy[replica] = window.busy.get(replica, 0) + overlap
            if end > window.end:
                still_active.append((start, end, replica))
        self._active = still_active
        if self._stage_active:
            still_staged: list[tuple[int, int, int, int]] = []
            for start, end, replica, stage in self._stage_active:
                overlap = min(end, window.end) - max(start, window.start)
                if overlap > 0:
                    key = (replica, stage)
                    window.stage_busy[key] = window.stage_busy.get(key, 0) + overlap
                if end > window.end:
                    still_staged.append((start, end, replica, stage))
            self._stage_active = still_staged

    # -- event hooks (called by the serve simulator) -------------------------------

    def on_arrival(self, cycle: int) -> None:
        window = self._ensure_window(cycle)
        window.arrivals += 1
        self._arrivals += 1
        self._queue_depth += 1
        window.queue_depth_max = max(window.queue_depth_max, self._queue_depth)
        self._queue_depth_max = max(self._queue_depth_max, self._queue_depth)
        if self._first_arrival is None or cycle < self._first_arrival:
            self._first_arrival = cycle

    def on_dispatch(self, cycle: int, replica: int, duration: int, batch_size: int) -> None:
        window = self._ensure_window(cycle)
        window.dispatches += 1
        self._dispatches += 1
        self._queue_depth -= batch_size
        self._active.append((cycle, cycle + duration, replica))
        self._busy_total[replica] = self._busy_total.get(replica, 0) + duration

    def on_stage_busy(self, start: int, end: int, replica: int, stage: int) -> None:
        """Record one pipeline stage's busy window for one batch.

        Fed at dispatch time by the serving loop for pipelined clusters
        (``stages > 0``); like replica busy intervals, the window overlap
        is attributed when windows close.
        """
        if end <= start:
            return
        self._ensure_window(start)
        self._stage_active.append((start, end, replica, stage))
        key = (replica, stage)
        self._stage_busy_total[key] = self._stage_busy_total.get(key, 0) + (end - start)
        if len(self._stage_intervals) < self.request_cap:
            self._stage_intervals.append((start, end, replica, stage))
        else:
            self._stage_intervals_dropped += 1

    def on_completion(
        self, rid: int, arrival: int, start: int, finish: int,
        replica: int, batch_size: int,
    ) -> None:
        window = self._ensure_window(finish)
        latency = finish - arrival
        window.completions += 1
        window.latencies.add(latency)
        self._completions += 1
        self._cum_latency.add(latency)
        self._lat_sum += latency
        self._lat_max = max(self._lat_max, latency)
        self._queue_sum += start - arrival
        if self.slo_cycles is not None and latency > self.slo_cycles:
            window.violations += 1
            self._violations += 1
        if self._last_finish is None or finish > self._last_finish:
            self._last_finish = finish
        if len(self._requests) < self.request_cap:
            self._requests.append((rid, arrival, start, finish, replica, batch_size))
        else:
            self._requests_dropped += 1

    def on_completion_batch(
        self, lo: int, hi: int, arrivals: list[int], finish: int,
        start: int, replica: int,
    ) -> None:
        """One batch's completions — rids ``lo..hi-1`` in rid order.

        Bit-identical to ``hi - lo`` :meth:`on_completion` calls (the
        columnar loop's batches are contiguous rid ranges, and the object
        loop completes a batch in exactly that order); batching the
        crossing into the telemetry module keeps the fastpath's per-request
        call overhead off the hot loop.
        """
        batch_size = hi - lo
        for rid in range(lo, hi):
            self.on_completion(rid, arrivals[rid], start, finish, replica, batch_size)

    def finalize(self) -> None:
        """Seal the series: close the trailing partial window."""
        if self._finalized:
            return
        self._finalized = True
        if self._cur is not None:
            self._attribute_busy(self._cur)
            self._cur.queue_depth_end = self._queue_depth
            self._windows.append(self._cur)
            self._cur = None

    # -- export --------------------------------------------------------------------

    def _window_dict(self, w: _Window) -> dict[str, Any]:
        width = w.end - w.start
        busy_total = sum(w.busy.values())
        has_lat = w.latencies.count > 0
        burn: float | None = None
        if self.slo_cycles is not None and w.completions:
            burn = round(w.violations / w.completions / self.slo_budget, 4)
        out = {
            "start": w.start,
            "end": w.end,
            "arrivals": w.arrivals,
            "completions": w.completions,
            "dispatches": w.dispatches,
            "violations": w.violations,
            "queue_depth_end": w.queue_depth_end,
            "queue_depth_max": w.queue_depth_max,
            "busy_cycles": {str(r): w.busy[r] for r in sorted(w.busy)},
            "utilization": round(busy_total / (width * self.groups), 6),
            "p50": int(w.latencies.quantile(50)) if has_lat else None,
            "p95": int(w.latencies.quantile(95)) if has_lat else None,
            "p99": int(w.latencies.quantile(99)) if has_lat else None,
            "latency_count": w.latencies.count,
            "latency_samples": len(w.latencies.samples),
            "arrival_rate_per_megacycle": round(w.arrivals * 1e6 / width, 4),
            "completion_rate_per_megacycle": round(w.completions * 1e6 / width, 4),
            "slo_burn_rate": burn,
        }
        if self.stages:
            out["stage_busy_cycles"] = {
                f"{r}/{s}": w.stage_busy[(r, s)] for r, s in sorted(w.stage_busy)
            }
        return out

    def _cumulative_dict(self) -> dict[str, Any]:
        n = self._completions
        span = 0
        if self._first_arrival is not None and self._last_finish is not None:
            span = self._last_finish - self._first_arrival
        busy = sum(self._busy_total.values())
        good = n - self._violations
        out = {
            "arrivals": self._arrivals,
            "requests": n,
            "dispatches": self._dispatches,
            "violations": self._violations,
            "violation_rate": self._violations / n if n else 0.0,
            "p50": int(self._cum_latency.quantile(50)) if n else 0,
            "p95": int(self._cum_latency.quantile(95)) if n else 0,
            "p99": int(self._cum_latency.quantile(99)) if n else 0,
            "percentiles_exact": self._cum_latency.exact,
            "mean_latency": self._lat_sum / n if n else 0.0,
            "max_latency": self._lat_max,
            "mean_queue_cycles": self._queue_sum / n if n else 0.0,
            "queue_depth_max": self._queue_depth_max,
            "first_arrival": self._first_arrival,
            "last_finish": self._last_finish,
            "makespan": span,
            "throughput_per_megacycle": n * 1e6 / span if span else 0.0,
            "goodput_per_megacycle": (
                good * 1e6 / span
                if span and self.slo_cycles is not None
                else (n * 1e6 / span if span else 0.0)
            ),
            "utilization": busy / (span * self.groups) if span else 0.0,
            "busy_cycles": {str(r): self._busy_total[r] for r in sorted(self._busy_total)},
        }
        if self.stages:
            per_stage = {s: 0 for s in range(self.stages)}
            for (_, stage), cycles in self._stage_busy_total.items():
                per_stage[stage] = per_stage.get(stage, 0) + cycles
            peak = max(per_stage.values(), default=0)
            out["stage_busy_cycles"] = {str(s): per_stage[s] for s in sorted(per_stage)}
            out["stage_occupancy"] = {
                str(s): (per_stage[s] / (span * self.groups) if span else 0.0)
                for s in sorted(per_stage)
            }
            # Bubble = idle share relative to the bottleneck stage: the
            # slowest stage is never bubbled, faster stages wait on it.
            out["stage_bubble_fraction"] = {
                str(s): (1.0 - per_stage[s] / peak if peak else 0.0)
                for s in sorted(per_stage)
            }
        return out

    def to_dict(self) -> dict[str, Any]:
        """Serialize (finalizing first) into the JSONL trace-record shape."""
        self.finalize()
        out = {
            "type": "timeseries",
            "label": self.label,
            "groups": self.groups,
            "attrs": self.attrs,
            "window_cycles": self._width,
            "initial_window_cycles": self.initial_window_cycles,
            "coalesced": self._coalesced,
            "max_windows": self.max_windows,
            "origin": self._origin,
            "slo_target_cycles": self.slo_cycles,
            "slo_budget": self.slo_budget,
            "requests_recorded": len(self._requests),
            "requests_dropped": self._requests_dropped,
            "requests": [list(r) for r in self._requests],
            "windows": [self._window_dict(w) for w in self._windows],
            "cumulative": self._cumulative_dict(),
        }
        if self.stages:
            out["stages"] = self.stages
            out["stage_intervals"] = [list(i) for i in self._stage_intervals]
            out["stage_intervals_dropped"] = self._stage_intervals_dropped
        return out


# -- process-global collection state ---------------------------------------------------

_enabled = False
_config: dict[str, Any] = {}
#: Locally collected series plus adopted worker exports, in creation order.
_series: list[ServeTimeSeries | dict] = []


def enable_timeseries(window_cycles: int | None = None) -> None:
    """Turn per-run time-series collection on.

    ``window_cycles`` pins the initial window width of every subsequently
    started series (``None``: :data:`DEFAULT_WINDOW_CYCLES`, coarsening as
    the run outlives :data:`MAX_WINDOWS`).
    """
    global _enabled, _config
    _config = {"window_cycles": window_cycles}
    _enabled = True


def disable_timeseries() -> None:
    global _enabled
    _enabled = False


def timeseries_enabled() -> bool:
    return _enabled


def timeseries_config() -> dict[str, Any]:
    """The active series configuration (for shipping to worker processes)."""
    return dict(_config)


def start_series(
    label: str,
    groups: int,
    slo_cycles: int | None = None,
    attrs: dict[str, Any] | None = None,
    stages: int = 0,
) -> ServeTimeSeries:
    """Create and register a series under the enabled configuration."""
    series = ServeTimeSeries(
        label=label, groups=groups, slo_cycles=slo_cycles, attrs=attrs,
        stages=stages, **_config,
    )
    _series.append(series)
    return series


def global_timeseries() -> list[dict[str, Any]]:
    """Every collected series as export records, in collection order."""
    return [s if isinstance(s, dict) else s.to_dict() for s in _series]


def clear_timeseries() -> None:
    _series.clear()


def adopt_timeseries(record: dict[str, Any]) -> None:
    """Append a series exported by a worker process (cross-process merge).

    Payloads are merged in task input order (:mod:`repro.obs.payload`), so
    the adopted sequence matches the serial run's collection order exactly.
    """
    _series.append(record)
