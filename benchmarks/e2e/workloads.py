"""The four end-to-end workloads: what one pass runs and how its outputs are checked.

A workload is built once per process by ``setup`` (imports, specs, clusters,
the serving service memo) and then run pass after pass.  A pass is a list of
:class:`Op` — one experiment, plan item, search or serving run each.  An op's
``run`` is the timed call into the program; its ``summarize`` turns the raw
return value into plain JSON data (integers, strings, exact floats) outside
the timed region, so digesting and checking never count as program time.

Seeds: ``tables`` and ``plans`` take no random input (their outputs do not
depend on ``--seed``); the serving workloads draw every arrival stream from
the seed.  Golden digests therefore apply to tables and plans at every seed
and to the serving ops at :data:`DEFAULT_SEED` only; each serving workload
also runs small reference streams at the default seed, outside the timed
region, whose digests are checked at every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Traced callables are reached through their module (``search.search_...``),
# never imported by name here: the tracer patches ``repro.*`` modules only.
from repro import plancost, search
from repro.accel.chip import ChipConfig
from repro.experiments import FAST, run_all
from repro.mcm.topology import McmTopology
from repro.models.zoo import get_spec
from repro.serve import (
    SLO,
    ClosedLoopWorkload,
    Cluster,
    MMPPWorkload,
    PoissonWorkload,
    build_mcm_cluster,
    build_replica_plan,
    make_scheduler,
    service_for_plan,
    simulate_serving,
)
from repro.sim.engine import InferenceSimulator, SimConfig

DEFAULT_SEED = 0


@dataclass
class Op:
    """One unit of user-visible work inside a pass."""

    label: str
    run: Callable[[], Any]
    summarize: Callable[[Any], dict]


@dataclass
class Workload:
    """A built workload: its ops per pass plus its output checks.

    ``reference()`` runs fixed-seed streams outside the timed region and
    returns their summarized outputs, which ``golden.json`` pins whatever
    ``--seed`` is.  ``checks(outputs, reference)`` receives the cold pass's
    summarized outputs (label -> dict) and the reference outputs (empty when
    not run) and returns ``(name, ok, detail)`` triples.  ``golden(outputs)``
    selects the simulated outputs that ``golden.json`` pins at the default
    seed; ``sim_cycles(outputs)`` is the workload's headline simulated
    latency; ``extras(outputs)`` adds named simulated figures.
    """

    name: str
    seeded: bool
    ops: list[Op]
    checks: Callable[[dict, dict], list[tuple[str, bool, str]]]
    golden: Callable[[dict], dict]
    sim_cycles: Callable[[dict], float]
    extras: Callable[[dict], dict] = field(default=lambda outputs: {})
    reference: Callable[[], dict] = field(default=lambda: {})


def digest(obj: Any) -> str:
    """Stable short digest of plain JSON data."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def geomean(values) -> float:
    values = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _table_rows(text: str, first: str) -> list[list[str]]:
    """Whitespace-split body rows of a rendered table whose first cell is ``first``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == [first])
    return [line.split() for line in lines[start + 2 :] if line.strip()]


# -- tables ---------------------------------------------------------------------------


def build_tables(seed: int, smoke: bool) -> Workload:
    """The researcher's first run: ``run_all(FAST, ("table6", "motivation"))``.

    Each experiment is one op, called exactly as ``run_all`` calls it with
    one worker.  The smoke size drops table6, the only experiment that trains.
    """
    names = ("motivation",) if smoke else ("table6", "motivation")

    def op(name: str) -> Op:
        return Op(
            label=name,
            run=lambda: run_all(FAST, (name,), workers=1)[name],
            summarize=lambda text: {"text": text},
        )

    def motivation_ints(outputs: dict) -> list[list[int]]:
        rows = _table_rows(outputs["motivation"]["text"], "network")
        return [[int(r[1]), int(r[2]), int(r[4])] for r in rows]

    def checks(outputs: dict, reference: dict) -> list[tuple[str, bool, str]]:
        if "table6" not in outputs:
            return []
        traffic: dict[str, dict[str, int]] = {}
        for r in _table_rows(outputs["table6"]["text"], "cores"):
            traffic.setdefault(r[0], {})[r[1]] = int(r[3].rstrip("%"))
        out = []
        for cores, t in sorted(traffic.items()):
            ok = t["ss_mask"] <= t["ss"] <= t["baseline"]
            out.append((f"shape.table6.c{cores}", ok, f"traffic {t}"))
        return out

    return Workload(
        name="tables",
        seeded=False,
        ops=[op(n) for n in names],
        checks=checks,
        golden=lambda outputs: {"motivation": motivation_ints(outputs), **{
            name: out["text"] for name, out in outputs.items() if name != "motivation"
        }},
        sim_cycles=lambda outputs: geomean(r[0] for r in motivation_ints(outputs)),
    )


# -- plans ----------------------------------------------------------------------------


PLAN_MODELS = ("mlp", "lenet", "convnet", "alexnet", "caffenet")
PLAN_CORES = (4, 8, 16, 32)


def build_plans(seed: int, smoke: bool) -> Workload:
    """Plan building, simulation, calibration and both searches.

    Per pass: traditional, structure and searched-degree plans for every
    (model, cores) point, vgg19 at 16 cores (the largest working set),
    ``calibrate(k=8)`` per model, and ``search_stage_split`` at 2 and 4
    chips under both geometry schemes.
    """
    models = ("mlp", "lenet") if smoke else PLAN_MODELS
    cores_list = (4, 16) if smoke else PLAN_CORES
    specs = {m: get_spec(m) for m in models + (() if smoke else ("vgg19",))}
    sims = {c: InferenceSimulator(ChipConfig.table2(c), SimConfig()) for c in cores_list}
    sims.setdefault(16, InferenceSimulator(ChipConfig.table2(16), SimConfig()))
    topologies = {chips: McmTopology.build(chips) for chips in (2, 4)}

    def plan_item(model: str, cores: int, kind: str) -> Op:
        def run():
            if kind == "searched":
                found = search.search_layer_degrees(specs[model], cores)
                return found, sims[cores].simulate(found.plan)
            return None, sims[cores].simulate(build_replica_plan(specs[model], cores, kind))

        def summarize(raw) -> dict:
            found, result = raw
            out = {"cycles": result.total_cycles}
            if found is not None:
                out["degrees"] = list(found.degrees)
            return out

        return Op(f"plan.{model}.c{cores}.{kind}", run, summarize)

    def calibrate_op(model: str) -> Op:
        k = 2 if smoke else 8
        return Op(
            f"calibrate.{model}",
            lambda: plancost.calibrate(specs[model], 16, k=k),
            lambda rep: {"engine_cycles": [s.engine_cycles for s in rep.samples]},
        )

    def stage_op(model: str, chips: int, scheme: str) -> Op:
        return Op(
            f"stages.{model}.x{chips}.{scheme}",
            lambda: search.search_stage_split(specs[model], topologies[chips], scheme),
            lambda r: {
                "sizes": list(r.searched_sizes),
                "interval": r.interval_cycles,
                "latency": r.latency_cycles,
                "balanced_interval": r.balanced_interval,
            },
        )

    ops = [
        plan_item(m, c, kind)
        for m in models
        for c in cores_list
        for kind in ("traditional", "structure", "searched")
    ]
    if not smoke:
        ops += [plan_item("vgg19", 16, kind) for kind in ("traditional", "structure")]
    ops += [calibrate_op(m) for m in models]
    chip_counts = (2,) if smoke else (2, 4)
    schemes = ("traditional",) if smoke else ("traditional", "structure")
    ops += [stage_op(m, ch, s) for m in models for ch in chip_counts for s in schemes]

    def speedups(outputs: dict) -> list[float]:
        return [
            outputs[f"plan.{m}.c{c}.traditional"]["cycles"]
            / outputs[f"plan.{m}.c{c}.searched"]["cycles"]
            for m in models
            for c in cores_list
        ]

    return Workload(
        name="plans",
        seeded=False,
        ops=ops,
        checks=lambda outputs, reference: [],
        golden=lambda outputs: outputs,
        sim_cycles=lambda outputs: geomean(
            out["cycles"] for label, out in outputs.items() if label.startswith("plan.")
        ),
        extras=lambda outputs: {
            "searched_speedup": geomean(speedups(outputs)),
            "engine_worse": sum(s < 1 for s in speedups(outputs)),
        },
    )


# -- serving helpers ------------------------------------------------------------------


MIX = {"lenet": 0.7, "convnet": 0.3}
SLO_FACTOR = 5


def spec_cluster(mix: dict[str, float], total: int, group: int, scheme: str = "traditional",
                 memory_channels: int | None = None) -> Cluster:
    """Replica-group cluster serving every model of ``mix`` (services memoized)."""
    services = {
        m: service_for_plan(build_replica_plan(get_spec(m), group, scheme), model=m)
        for m in mix
    }
    return Cluster(total, group, services, scheme=scheme, memory_channels=memory_channels)


def mean_latency(cluster, mix: dict[str, float]) -> float:
    """Mix-weighted unloaded latency in cycles."""
    total = sum(mix.values())
    return sum(w * cluster.unloaded_latency(m) for m, w in mix.items()) / total


def record_table(result) -> np.ndarray:
    """Records as an int64 table in completion order, whichever loop ran.

    Columns: rid, model index (sorted names), arrival, start, finish,
    replica, batch size.  Equal tables mean equal record lists.
    """
    cols = result.columns
    if cols is not None:
        lengths = cols.order_hi - cols.order_lo
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        rid = np.repeat(cols.order_lo - offsets, lengths) + np.arange(int(lengths.sum()))
        remap = np.argsort(np.argsort(np.asarray(cols.models)))
        model = remap[cols.model_id[rid]]
        return np.stack([rid, model, cols.arrival[rid], cols.start[rid],
                         cols.finish[rid], cols.replica[rid], cols.batch_size[rid]])
    records = result.records
    names = sorted({r.model for r in records})
    index = {m: i for i, m in enumerate(names)}
    return np.array(
        [[r.rid, index[r.model], r.arrival, r.start, r.finish, r.replica, r.batch_size]
         for r in records],
        dtype=np.int64,
    ).reshape(-1, 7).T


def nearest_rank_p99(latencies: np.ndarray) -> int:
    n = len(latencies)
    return int(np.sort(latencies)[-(-99 * n // 100) - 1])


def serve_summary(raw) -> dict:
    """Digest, p99 and its independent nearest-rank recomputation."""
    result, report = raw
    table = record_table(result)
    latencies = table[4] - table[2]
    return {
        "records": hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest()[:16],
        "requests": int(table.shape[1]),
        "p99": report.p99,
        "p99_nearest_rank": nearest_rank_p99(latencies),
        "goodput_per_mcycle": report.goodput_per_megacycle,
        "fastpath": result.columns is not None,
    }


def _p99_checks(outputs: dict, reference: dict) -> list[tuple[str, bool, str]]:
    """``SLOReport.p99`` equals the nearest-rank p99 of the records, every run."""
    out = []
    for label, o in [*outputs.items(), *(("reference." + k, v) for k, v in reference.items())]:
        for i, run in enumerate(o.get("steps", [o])):
            ok = run["p99"] == run["p99_nearest_rank"]
            out.append((f"p99.{label}.{i}", ok, f"{run['p99']} vs {run['p99_nearest_rank']}"))
    return out


# -- serve-open -----------------------------------------------------------------------


def build_serve_open(seed: int, smoke: bool) -> Workload:
    """Open-loop Poisson/MMPP serving through the columnar fast path.

    Five cluster x scheduler combos; each runs Poisson at 0.5, 0.8 and 0.95
    of capacity, MMPP with a time-average of 0.7, and a bisection for the
    highest rate that meets the SLO without a growing backlog.
    """
    n = 2_000 if smoke else 25_000
    step_n = 1_000 if smoke else 5_000
    steps = 3 if smoke else 8
    lenet_only = {"lenet": 1.0}
    combos = {
        "lenet-fifo": (spec_cluster(lenet_only, 16, 4), lenet_only, "fifo", None),
        "lenet-batch": (spec_cluster(lenet_only, 16, 4), lenet_only, "batch", None),
        "convnet-structure-fifo": (
            spec_cluster({"convnet": 1.0}, 16, 16, "structure"), {"convnet": 1.0}, "fifo", None,
        ),
        "mix-sjf": (spec_cluster(MIX, 16, 4), MIX, "sjf", None),
        "mix-priority": (spec_cluster(MIX, 16, 4), MIX, "priority", {"convnet": 1}),
    }
    ops = []
    for ci, (name, (cluster, mix, sched, prio)) in enumerate(combos.items()):
        latency = mean_latency(cluster, mix)
        capacity = cluster.num_groups * 1e6 / latency
        slo = SLO(int(SLO_FACTOR * latency))

        def poisson(load, k, n=n, cluster=cluster, mix=mix, sched=sched, prio=prio,
                    capacity=capacity, slo=slo, ci=ci):
            return lambda: simulate_serving(
                cluster, make_scheduler(sched),
                PoissonWorkload(load * capacity, n, seed=seed * 1000 + ci * 10 + k,
                                mix=mix, priorities=prio),
                slo=slo,
            )

        for k, load in enumerate((0.5, 0.8, 0.95)):
            ops.append(Op(f"{name}.poisson{load}", poisson(load, k), serve_summary))
        ops.append(Op(
            f"{name}.mmpp0.7",
            lambda cluster=cluster, mix=mix, sched=sched, prio=prio, capacity=capacity,
            slo=slo, ci=ci: simulate_serving(
                cluster, make_scheduler(sched),
                MMPPWorkload(0.4 * capacity, 1.0 * capacity, n,
                             mean_dwell_cycles=40 * latency, seed=seed * 1000 + ci * 10 + 3,
                             mix=mix, priorities=prio),
                slo=slo,
            ),
            serve_summary,
        ))
        ops.append(Op(
            f"{name}.max_rate",
            lambda cluster=cluster, mix=mix, sched=sched, prio=prio, capacity=capacity,
            slo=slo, ci=ci: max_rate(cluster, mix, sched, prio, capacity, slo,
                                     seed * 1000 + ci * 10 + 4, step_n, steps),
            lambda steps_out: {
                "rate": steps_out["rate"],
                "steps": [serve_summary(raw) | {"rate": r, "ok": ok}
                          for r, ok, raw in steps_out["steps"]],
            },
        ))

    def reference() -> dict:
        """One default-seed stream per combo, on the fast path and the object loop."""
        out = {}
        for ci, (name, (cluster, mix, sched, prio)) in enumerate(combos.items()):
            latency = mean_latency(cluster, mix)
            runs = [
                simulate_serving(
                    cluster, make_scheduler(sched),
                    PoissonWorkload(0.8 * cluster.num_groups * 1e6 / latency, step_n,
                                    seed=DEFAULT_SEED * 1000 + ci * 10 + 5,
                                    mix=mix, priorities=prio),
                    slo=SLO(int(SLO_FACTOR * latency)), fastpath=mode,
                )
                for mode in ("auto", "off")
            ]
            fast, slow = (serve_summary(raw) for raw in runs)
            out[name] = fast | {"object_loop_records": slow["records"],
                                "object_loop_fastpath": slow["fastpath"]}
        return out

    def checks(outputs: dict, reference: dict) -> list[tuple[str, bool, str]]:
        out = _p99_checks(outputs, reference)
        for name, o in reference.items():
            ok = o["fastpath"] and not o["object_loop_fastpath"] and (
                o["records"] == o["object_loop_records"])
            out.append((f"fastpath_equals_object_loop.{name}", ok, f"{o['requests']} records"))
        return out

    return Workload(
        name="serve-open",
        seeded=True,
        ops=ops,
        checks=checks,
        golden=lambda outputs: outputs,
        sim_cycles=lambda outputs: geomean(
            o["p99"] for label, o in outputs.items() if not label.endswith(".max_rate")
        ),
        extras=lambda outputs: {
            "max_rate_per_mcycle": geomean(
                o["rate"] for label, o in outputs.items() if label.endswith(".max_rate")
            ),
        },
        reference=reference,
    )


def max_rate(cluster, mix, sched, prio, capacity, slo, seed, n, steps) -> dict:
    """Bisect for the highest Poisson rate meeting the SLO without a growing backlog.

    A rate qualifies when its p99 meets the SLO and the mean queue wait of
    the last tenth of the stream is at most twice that of the middle tenth
    (a queue that keeps growing fails the second test even while p99 holds).
    """
    lo, hi = 0.25 * capacity, 1.5 * capacity
    best = lo
    out = []
    for _ in range(steps):
        rate = (lo + hi) / 2
        result, report = simulate_serving(
            cluster, make_scheduler(sched),
            PoissonWorkload(rate, n, seed=seed, mix=mix, priorities=prio), slo=slo,
        )
        cols = result.columns
        wait = cols.start - cols.arrival  # by rid, i.e. arrival order
        middle = wait[int(0.45 * n) : int(0.55 * n)].mean()
        tail = wait[int(0.9 * n) :].mean()
        ok = bool(report.p99 <= slo.target_cycles and tail <= 2 * max(middle, 1.0))
        out.append((rate, ok, (result, report)))
        if ok:
            best, lo = rate, rate
        else:
            hi = rate
    return {"rate": best, "steps": out}


# -- serve-closed ---------------------------------------------------------------------


def build_serve_closed(seed: int, smoke: bool) -> Workload:
    """Closed-loop clients through the object loop.

    Pipelined MCM releases and backpressure, a shared memory channel, and a
    two-model mix; each config runs four times with independent client streams.
    """
    clients, per_client = (8, 50) if smoke else (32, 64)
    lenet_only = {"lenet": 1.0}
    convnet_only = {"convnet": 1.0}
    configs = {
        "convnet-mcm2x2-searched-batch": (
            build_mcm_cluster(get_spec("convnet"), 4, stages=2, stage_split="searched"),
            convnet_only, "batch",
        ),
        "lenet-mcm4x1-fifo": (build_mcm_cluster(get_spec("lenet"), 4, stages=4), lenet_only, "fifo"),
        "lenet-mem1-batch": (spec_cluster(lenet_only, 16, 4, memory_channels=1), lenet_only, "batch"),
        "mix-sjf": (spec_cluster(MIX, 16, 4), MIX, "sjf"),
    }
    def closed(cluster, mix, sched, clients, per_client, seed):
        latency = mean_latency(cluster, mix)
        return lambda: simulate_serving(
            cluster, make_scheduler(sched),
            ClosedLoopWorkload(clients, per_client, think_cycles=4 * latency,
                               seed=seed, mix=mix),
            slo=SLO(int(SLO_FACTOR * latency)),
        )

    ops = [
        Op(f"{name}.{rep}", closed(*config, clients, per_client, seed * 1000 + ci * 10 + rep),
           serve_summary)
        for ci, (name, config) in enumerate(configs.items())
        for rep in range(4)
    ]

    def reference() -> dict:
        """One small default-seed run per config."""
        return {
            name: serve_summary(closed(*config, 8, 32, DEFAULT_SEED * 1000 + ci * 10 + 9)())
            for ci, (name, config) in enumerate(configs.items())
        }

    return Workload(
        name="serve-closed",
        seeded=True,
        ops=ops,
        checks=_p99_checks,
        golden=lambda outputs: outputs,
        sim_cycles=lambda outputs: geomean(o["p99"] for o in outputs.values()),
        extras=lambda outputs: {
            "goodput_per_mcycle": geomean(o["goodput_per_mcycle"] for o in outputs.values()),
        },
        reference=reference,
    )


BUILDERS = {
    "tables": build_tables,
    "plans": build_plans,
    "serve-open": build_serve_open,
    "serve-closed": build_serve_closed,
}
