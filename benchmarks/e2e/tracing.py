"""Per-layer attribution from outside the program: span wrappers on public callables.

:class:`Tracer` replaces each callable named in :data:`TARGETS` with a
wrapper that records one span per call — name, layer, pass, id, parent,
start and end in nanoseconds — on a thread-local stack, so nesting gives
every span its parent.  A module-level function is replaced in every
``repro.*`` module that holds it (``from x import f`` copies the
reference); a method is replaced on its class.  :meth:`Tracer.restore`
puts every original back.  The program's own ``repro.obs`` tracing stays
off: these spans come only from the benchmark.

Spans are recorded only inside op windows (:meth:`Tracer.window`), the same
regions the untraced run times.  A span's self time is its duration minus
the durations of its direct children; the window time covered by no span
is reported as ``unattributed``, so per pass the self times plus
``unattributed`` add up to the pass wall time exactly.

Counts and ratios come from public return values (``NoCStats``,
``SimulationResult.drain_memo_*``, ``ServeResult.columns``) and from
deltas of the public ``repro.obs.METRICS`` snapshot.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

import numpy as np

#: (metric name, layer, ``module:qualname``).  Several callables may share one
#: metric name: they are one layer boundary (e.g. every plan builder).
TARGETS = (
    ("experiments.run_one", "experiments", "repro.experiments.runner:run_one"),
    ("train.fit", "train", "repro.train.trainer:Trainer.fit"),
    ("train.sparsify", "train", "repro.train.sparsify:train_sparsified"),
    ("datasets.generate", "datasets", "repro.datasets.synthetic:SyntheticImageDataset.generate"),
    ("nn.accuracy", "nn", "repro.nn.network:Sequential.accuracy"),
    ("noc.run", "noc", "repro.noc.network:NoCSimulator.run"),
    ("noc.to_packets", "noc", "repro.noc.traffic:TrafficMatrix.to_packets"),
    ("noc.flit_hops", "noc", "repro.noc.traffic:TrafficMatrix.total_flit_hops"),
    ("noc.energy", "noc", "repro.noc.energy:NoCEnergyModel.analytical_energy"),
    ("noc.estimate", "noc", "repro.noc.analytical:estimate_drain_cycles"),
    ("accel.compute_cycles", "accel", "repro.accel.core:CoreModel.compute_cycles"),
    ("partition.build", "partition", "repro.partition.traditional:build_traditional_plan"),
    ("partition.build", "partition", "repro.partition.structure:build_structure_plan"),
    ("partition.build", "partition", "repro.partition.degree:build_degree_plan"),
    ("partition.build", "partition", "repro.partition.sparsified:build_sparsified_plan"),
    ("sim.simulate", "sim", "repro.sim.engine:InferenceSimulator.simulate"),
    ("cache.load", "experiments.cache", "repro.experiments.cache:load_json"),
    ("cache.load", "experiments.cache", "repro.experiments.cache:load_state"),
    ("cache.save", "experiments.cache", "repro.experiments.cache:save_json"),
    ("cache.save", "experiments.cache", "repro.experiments.cache:save_state"),
    ("plancost.oracle_build", "plancost", "repro.plancost.oracle:PlanCostOracle.__init__"),
    ("plancost.batch_cost", "plancost", "repro.plancost.oracle:PlanCostOracle.batch_cost"),
    ("plancost.calibrate", "plancost", "repro.plancost.calibrate:calibrate"),
    ("search.layer_degrees", "search", "repro.search.layerdp:search_layer_degrees"),
    ("search.stage_split", "search", "repro.search.stagedp:search_stage_split"),
    ("mcm.service", "mcm", "repro.mcm.service:mcm_service"),
    ("serve.run", "serve", "repro.serve.simulator:ServeSimulator.run"),
    ("serve.slo", "serve", "repro.serve.slo:evaluate_slo"),
    ("parallel.pmap", "parallel", "repro.parallel.pool:pmap"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

#: Derived per-layer metrics beyond ``<span>.calls/.s/.self_s``, with units.
DERIVED = (
    ("noc.flits_per_s", "1/s"),
    ("noc.to_packets.packets", "count"),
    ("sim.drain_memo.hit_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("plancost.batch_cost.candidates_per_s", "1/s"),
    ("search.oracle_gap", "ratio"),
    ("search.engine_worse", "count"),
    ("search.searched_speedup", "x"),
    ("serve.fastpath_share", "ratio"),
    ("serve.queue_wait.p99_cycles", "cycles"),
    ("serve.batch_size.mean", "count"),
    ("serve.utilization", "ratio"),
    ("serve.backpressure_cycles", "cycles"),
    ("serve.memory_channel.wait_cycles", "cycles"),
    ("serve.max_rate_per_mcycle", "req/Mcycle"),
    ("serve.goodput_per_mcycle", "req/Mcycle"),
    ("parallel.serial_share", "ratio"),
    ("unattributed.s", "s"),
    ("trace_overhead", "ratio"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the trace run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


def layer_table(spans: list[tuple], windows: list[tuple]) -> tuple[dict, int, int]:
    """Per-name ``[calls, total_ns, self_ns]`` plus unattributed and wall ns.

    ``spans`` are ``(name, layer, pass, id, parent, start_ns, end_ns)``;
    ``windows`` are ``(pass, start_ns, end_ns)`` op windows.  Children of
    one parent never overlap (one thread, properly nested calls), so self
    time is duration minus the children's summed durations.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[4] is not None:
            child_ns[s[4]] += s[6] - s[5]
    rows: dict[str, list[int]] = {}
    root_ns = 0
    for name, _, _, sid, parent, start, end in spans:
        row = rows.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[sid]
        if parent is None:
            root_ns += end - start
    wall_ns = sum(end - start for _, start, end in windows)
    return rows, wall_ns - root_ns, wall_ns


def _resolve(path: str):
    module_name, qualname = path.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _metric_sum(section: dict, name: str) -> float:
    """Sum of a counter over all its label sets."""
    return sum(v for k, v in section.items() if k == name or k.startswith(name + "{"))


def _snapshot_delta(before: dict, after: dict) -> dict:
    counters = {
        k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()
    }
    hists = {
        k: h["total"] - before["histograms"].get(k, {"total": 0})["total"]
        for k, h in after["histograms"].items()
    }
    return {"counters": counters, "hist_totals": hists}


class Tracer:
    """Installs span wrappers, records spans inside op windows, summarizes."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.windows: list[tuple] = []
        self.pass_label: str | None = None
        self._recording = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._predicted: dict[int, tuple[object, float]] = {}
        self._gaps: list[float] = []
        self._serve_runs: list[tuple[bool, int, int, float, float]] = []
        self._metric_deltas: list[dict] = []

    # -- wrappers ---------------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, layer, self.pass_label, sid, parent, start, end))
            if observe is not None:
                observe(result, args)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target with its wrapper (idempotent per install/restore)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m]
        for name, layer, path in TARGETS:
            owner, attr = _resolve(path)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapper = type(raw)(self._wrap(name, layer, raw.__func__))
                else:
                    wrapper = self._wrap(name, layer, raw)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        """Put every original callable back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def traced_pass(self, label: str):
        """Install wrappers for one pass and collect its METRICS delta."""
        from repro.obs import METRICS

        self.pass_label = label
        before = METRICS.snapshot()
        self.install()
        try:
            yield
        finally:
            self.restore()
            self._metric_deltas.append(_snapshot_delta(before, METRICS.snapshot()))
            self.pass_label = None

    @contextmanager
    def window(self):
        """One op window: spans are recorded only inside these."""
        start = time.perf_counter_ns()
        self._recording = True
        try:
            yield
        finally:
            self._recording = False
            self.windows.append((self.pass_label, start, time.perf_counter_ns()))

    # -- observers (public return values) ---------------------------------------------

    def _observe_noc_run(self, stats, args) -> None:
        self._counts["noc.flits"] += stats.flits_delivered

    def _observe_noc_to_packets(self, packets, args) -> None:
        self._counts["noc.to_packets.packets"] += len(packets)

    def _observe_plancost_batch_cost(self, costs, args) -> None:
        self._counts["plancost.candidates"] += len(costs)

    def _observe_search_layer_degrees(self, found, args) -> None:
        self._predicted[id(found.plan)] = (found.plan, found.predicted_cycles)

    def _observe_sim_simulate(self, result, args) -> None:
        self._counts["sim.memo_hits"] += result.drain_memo_hits
        self._counts["sim.memo_misses"] += result.drain_memo_misses
        hit = self._predicted.pop(id(args[1]), None)
        if hit is not None and hit[0] is args[1]:
            self._gaps.append(result.total_cycles / hit[1])

    def _observe_serve_run(self, result, args) -> None:
        cols = result.columns
        if cols is not None:
            waits = cols.start - cols.arrival
            n = len(waits)
            rank = -(-99 * n // 100) - 1
            wait_p99 = int(np.partition(waits, rank)[rank]) if n else 0
            batch_total = int(cols.batch_size.sum())
        else:
            waits = sorted(r.queue_cycles for r in result.records)
            n = len(waits)
            wait_p99 = waits[-(-99 * n // 100) - 1] if n else 0
            batch_total = sum(r.batch_size for r in result.records)
        self._serve_runs.append((cols is not None, wait_p99, n, batch_total, result.utilization))

    # -- summaries --------------------------------------------------------------------

    def pass_rows(self, label: str) -> tuple[dict, int, int]:
        """:func:`layer_table` of one traced pass."""
        return layer_table(
            [s for s in self.spans if s[2] == label],
            [w for w in self.windows if w[0] == label],
        )

    def metrics(self, extras: dict, overhead: float) -> dict[str, float]:
        """Every per-layer metric over all traced passes (names: :func:`per_layer_units`)."""
        rows, unattributed_ns, _ = layer_table(self.spans, self.windows)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            calls, total, own = rows.get(name, [0, 0, 0])
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total / 1e9
            out[f"{name}.self_s"] = own / 1e9
        counts = self._counts
        run_s = out["noc.run.s"]
        out["noc.flits_per_s"] = counts["noc.flits"] / run_s if run_s else 0.0
        out["noc.to_packets.packets"] = counts["noc.to_packets.packets"]
        drains = counts["sim.memo_hits"] + counts["sim.memo_misses"]
        out["sim.drain_memo.hit_ratio"] = counts["sim.memo_hits"] / drains if drains else 0.0
        deltas = [d["counters"] for d in self._metric_deltas]
        hits = sum(_metric_sum(d, "cache.artifact.hit") + _metric_sum(d, "cache.memo.hit")
                   for d in deltas)
        misses = sum(_metric_sum(d, "cache.artifact.miss") for d in deltas)
        out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        batch_s = out["plancost.batch_cost.s"]
        out["plancost.batch_cost.candidates_per_s"] = (
            counts["plancost.candidates"] / batch_s if batch_s else 0.0
        )
        out["search.oracle_gap"] = (
            math.exp(sum(map(math.log, self._gaps)) / len(self._gaps)) if self._gaps else 0.0
        )
        out["search.engine_worse"] = extras.get("engine_worse", 0)
        out["search.searched_speedup"] = extras.get("searched_speedup", 0.0)
        runs = self._serve_runs
        requests = sum(r[2] for r in runs)
        out["serve.fastpath_share"] = sum(r[0] for r in runs) / len(runs) if runs else 0.0
        out["serve.queue_wait.p99_cycles"] = median(r[1] for r in runs) if runs else 0
        out["serve.batch_size.mean"] = sum(r[3] for r in runs) / requests if requests else 0.0
        out["serve.utilization"] = sum(r[4] for r in runs) / len(runs) if runs else 0.0
        for key in ("serve.backpressure_cycles", "serve.memory_channel.wait_cycles"):
            source = key.replace("serve.backpressure", "serve.pipeline.backpressure")
            out[key] = sum(d["hist_totals"].get(source, 0) for d in self._metric_deltas)
        out["serve.max_rate_per_mcycle"] = extras.get("max_rate_per_mcycle", 0.0)
        out["serve.goodput_per_mcycle"] = extras.get("goodput_per_mcycle", 0.0)
        serial = sum(_metric_sum(d, "parallel.dispatch{path=serial}") for d in deltas)
        dispatched = sum(_metric_sum(d, "parallel.dispatch") for d in deltas)
        out["parallel.serial_share"] = serial / dispatched if dispatched else 0.0
        out["unattributed.s"] = unattributed_ns / 1e9
        out["trace_overhead"] = overhead
        return out

    def write_jsonl(self, path, workload: str) -> None:
        """Export every span as one JSON object per line."""
        keys = ("name", "layer", "pass", "id", "parent", "start_ns", "end_ns")
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps({"workload": workload, **dict(zip(keys, s))}) + "\n")
