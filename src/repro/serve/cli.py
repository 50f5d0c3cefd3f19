"""``repro-serve`` — run one serving configuration (or the Table S1 sweep).

Single-configuration mode serves a seeded request stream against one
replica-group layout and prints the run summary plus the SLO report::

    repro-serve --network convnet --cores 16 --group-cores 4 \\
        --scheme structure --scheduler batch --rate 40 --requests 200

``--sweep`` instead runs the Table S1 arrival-rate x scheme x group-size
sweep and prints the latency-throughput Pareto table; ``--workers N``
shards its configurations across worker processes (output is byte-identical
to serial).  ``--trace`` / ``--metrics`` behave exactly like
``repro-experiments``: spans + metrics + per-run serve time-series
(+ NoC profiles, when any plan needed fresh cycle-level drains) go to a
JSONL file summarizable with ``scripts/report_trace.py``.  ``--perfetto``
additionally (or instead) writes the same state as a Chrome trace-event
file that opens in https://ui.perfetto.dev — one sim-time track per replica
group with flow arrows from each arrival into the batch that served it.
``--ts-window`` pins the time-series window width in cycles (default: 4096,
auto-coarsening to keep at most 256 windows).

``--chips N`` (N > 1) switches both modes to multi-chip-module serving via
:mod:`repro.mcm`: ``--stages`` chips form one pipeline (default: all of
them), the rest replicate it, and ``--interchip-*`` override the link
timing.  ``--sweep`` then runs the Table MCM single-chip-vs-MCM race::

    repro-serve --chips 4 --stages 2 --scheduler batch --rate 60 --trace t.jsonl
    repro-serve --chips 4 --sweep --profile fast
"""

from __future__ import annotations

import argparse
import sys

from .. import obs
from ..cli import add_workers_flag, apply_workers
from ..models.zoo import SPEC_BUILDERS, get_spec
from .cluster import build_mcm_cluster, build_spec_cluster
from .scheduler import SCHEDULERS, make_scheduler
from .simulator import simulate_serving
from .slo import SLO
from .workload import ClosedLoopWorkload, LoadGenerator, MMPPWorkload, PoissonWorkload

__all__ = ["main"]

#: Single-run flags and their defaults (``None``: derived later).  A sweep
#: serves its own networks, load, schemes and group sizes, keeps summary
#: records and picks its serving loop, so it rejects these flags rather
#: than ignore them.
_SINGLE_RUN_DEFAULTS = {
    "network": "convnet",
    "workload": "poisson",
    "rate": 20.0,
    "burst_rate": None,
    "requests": 200,
    "clients": 8,
    "think": 1e6,
    "scheme": "traditional",
    "group_cores": None,
    "records": "full",
    "fastpath": "auto",
}

#: Single-run flags only some load generators read, and those generators.
_WORKLOAD_FLAGS = {
    "rate": ("poisson", "mmpp"),
    "burst_rate": ("mmpp",),
    "clients": ("closed",),
    "think": ("closed",),
}

#: Sweep-only flags and their defaults.  A single run is one simulation:
#: it has no size profile and nothing to shard across workers.
_SWEEP_DEFAULTS = {"profile": "paper", "workers": None}

#: The --interchip-* overrides (multi-chip runs only).
_INTERCHIP_FLAGS = {
    "interchip_bytes_per_cycle": "bytes_per_cycle",
    "interchip_hop_latency": "hop_latency_cycles",
    "interchip_sync_overhead": "sync_overhead_cycles",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Request-level serving simulation on the Learn-to-Scale chip.",
    )
    parser.add_argument(
        "--network", default=None, choices=sorted(SPEC_BUILDERS),
        help="model-zoo network to serve (default: convnet; single runs only)",
    )
    parser.add_argument(
        "--cores", type=int, default=16,
        help="chip cores (per-chip cores when --chips > 1)",
    )
    parser.add_argument(
        "--group-cores", type=int, default=None,
        help="cores per replica group (default: --cores, one model-parallel "
        "group; 1 = data parallel; single-chip single runs only)",
    )
    parser.add_argument(
        "--chips", type=int, default=1,
        help="chips on the MCM package (> 1 switches to mesh-of-meshes "
        "pipelined serving via repro.mcm)",
    )
    parser.add_argument(
        "--stages", type=int, default=None,
        help="pipeline depth in chips (default: --chips, one package-wide "
        "pipeline; --chips/--stages pipelines serve as replica groups; "
        "single runs only)",
    )
    parser.add_argument(
        "--search-stages", action="store_true",
        help="pick the pipeline's stage boundaries with the repro.search "
        "stage DP instead of the MAC-balanced split (--chips > 1 only; "
        "never worse than balanced on the measured interval)",
    )
    parser.add_argument(
        "--interchip-bytes-per-cycle", type=int, default=None, metavar="B",
        help="inter-chip link bandwidth in bytes per NoC cycle",
    )
    parser.add_argument(
        "--interchip-hop-latency", type=int, default=None, metavar="CYCLES",
        help="inter-chip per-hop head latency in NoC cycles",
    )
    parser.add_argument(
        "--interchip-sync-overhead", type=int, default=None, metavar="CYCLES",
        help="inter-chip fixed synchronization overhead in NoC cycles",
    )
    parser.add_argument(
        "--memory-channels", type=int, default=None, metavar="M",
        help="shared DRAM channels serializing input streaming across "
        "replica groups (default: one independent channel per group)",
    )
    parser.add_argument(
        "--scheme", default=None, choices=("traditional", "structure"),
        help="partitioning scheme inside each replica group (default: "
        "traditional; single runs only)",
    )
    parser.add_argument(
        "--scheduler", default="fifo", choices=SCHEDULERS, help="dispatch policy"
    )
    parser.add_argument(
        "--batch-size", type=int, default=4,
        help="max batch size for --scheduler batch",
    )
    parser.add_argument(
        "--workload", default=None, choices=("poisson", "mmpp", "closed"),
        help="load generator (default: poisson; single runs only)",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="open-loop arrival rate in requests per megacycle (default: 20; "
        "poisson and mmpp single runs only)",
    )
    parser.add_argument(
        "--burst-rate", type=float, default=None,
        help="mmpp burst-state rate (default: 8x --rate; mmpp single runs only)",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="open-loop request count (default: 200; single runs only)",
    )
    parser.add_argument(
        "--clients", type=int, default=None,
        help="closed-loop client population (default: 8; closed single runs "
        "only)",
    )
    parser.add_argument(
        "--think", type=float, default=None,
        help="closed-loop mean think time in cycles (default: 1e6; closed "
        "single runs only)",
    )
    parser.add_argument(
        "--slo-factor", type=float, default=2.0,
        help="SLO target as a multiple of the unloaded latency",
    )
    parser.add_argument(
        "--fastpath", default=None, choices=("auto", "off", "force"),
        help="serving-loop implementation: auto = columnar fast path when "
        "eligible (default), off = object loop, force = error when the fast "
        "path cannot run (single runs only)",
    )
    parser.add_argument(
        "--records", default=None, choices=("full", "summary"),
        help="summary drops per-request records after SLO scoring (default: "
        "full; flat memory for huge runs; single runs only, sweeps always "
        "run summary-only)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the Table S1 rate x scheme x group-size sweep instead",
    )
    parser.add_argument(
        "--profile", default=None, choices=("paper", "fast"),
        help="sweep size profile (default: paper; --sweep only)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL trace (spans + metrics + time-series + NoC "
        "profiles) to PATH",
    )
    parser.add_argument(
        "--perfetto", metavar="PATH", default=None,
        help="write a Chrome trace-event file for ui.perfetto.dev to PATH",
    )
    parser.add_argument(
        "--ts-window", type=int, default=None, metavar="CYCLES",
        help="time-series window width in sim cycles (default: auto; needs "
        "--trace or --perfetto)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the metrics snapshot after the run",
    )
    add_workers_flag(parser)
    return parser


def _build_workload(args: argparse.Namespace) -> LoadGenerator:
    mix = {args.network: 1.0}
    if args.workload == "poisson":
        return PoissonWorkload(
            rate_per_megacycle=args.rate,
            num_requests=args.requests,
            seed=args.seed,
            mix=mix,
        )
    if args.workload == "mmpp":
        return MMPPWorkload(
            calm_rate=args.rate,
            burst_rate=args.burst_rate or 8 * args.rate,
            num_requests=args.requests,
            seed=args.seed,
            mix=mix,
        )
    per_client = max(1, args.requests // args.clients)
    return ClosedLoopWorkload(
        clients=args.clients,
        requests_per_client=per_client,
        think_cycles=args.think,
        seed=args.seed,
        mix=mix,
    )


def _interchip_link(args: argparse.Namespace):
    """An InterChipLink from the --interchip-* overrides (None = defaults)."""
    overrides = {
        field: getattr(args, dest)
        for dest, field in _INTERCHIP_FLAGS.items()
        if getattr(args, dest) is not None
    }
    if not overrides:
        return None
    from ..mcm.topology import InterChipLink

    return InterChipLink(**overrides)


def _run_single(args: argparse.Namespace) -> int:
    spec = get_spec(args.network)
    if args.chips > 1:
        cluster = build_mcm_cluster(
            spec,
            args.chips,
            cores_per_chip=args.cores,
            stages=args.stages,
            scheme=args.scheme,
            link=_interchip_link(args),
            memory_channels=args.memory_channels,
            stage_split="searched" if args.search_stages else "balanced",
        )
    else:
        cluster = build_spec_cluster(
            spec, args.cores, args.group_cores, scheme=args.scheme,
            memory_channels=args.memory_channels,
        )
    slo = SLO(int(args.slo_factor * cluster.unloaded_latency(spec.name)))
    scheduler = make_scheduler(args.scheduler, max_batch=args.batch_size)
    result, report = simulate_serving(
        cluster, scheduler, _build_workload(args), slo=slo,
        fastpath=args.fastpath, records=args.records,
    )
    print(cluster.describe())
    if args.chips > 1:
        svc = cluster.service(spec.name)
        plan = cluster.plans[spec.name]
        print(plan.topology.describe())
        sizes = "/".join(str(len(s.layers)) for s in plan.stages)
        kind = "searched" if args.search_stages else "balanced"
        print(f"  stage split [{sizes}] ({kind})")
        for i, (stage, transfer) in enumerate(
            zip(svc.stage_cycles, svc.transfer_cycles)
        ):
            print(
                f"  stage {i}: compute {stage:,} cycles, "
                f"inbound transfer {transfer:,} cycles"
            )
        print(
            f"  steady-state interval {svc.interval_cycles:,} cycles "
            f"(input load {svc.input_load_cycles:,})"
        )
    print(
        f"unloaded latency {cluster.unloaded_latency(spec.name):,} cycles, "
        f"capacity {cluster.capacity_per_megacycle(spec.name):.1f} req/Mcycle"
    )
    print(result.summary())
    print()
    assert report is not None
    print(report.render())
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from ..experiments import get_profile

    if args.chips > 1:
        from ..experiments.table_mcm import render_table_mcm, run_table_mcm

        rows = run_table_mcm(
            get_profile(args.profile),
            chips=args.chips,
            cores_per_chip=args.cores,
            scheduler=args.scheduler,
            max_batch=args.batch_size,
            slo_factor=args.slo_factor,
            seed=args.seed,
            workers=args.workers,
            link=_interchip_link(args),
            memory_channels=args.memory_channels,
        )
        print(render_table_mcm(rows))
        return 0
    from ..experiments.tableS1 import render_tableS1, run_tableS1

    rows = run_tableS1(
        get_profile(args.profile),
        num_cores=args.cores,
        scheduler=args.scheduler,
        max_batch=args.batch_size,
        slo_factor=args.slo_factor,
        seed=args.seed,
        workers=args.workers,
        memory_channels=args.memory_channels,
    )
    print(render_tableS1(rows, scheduler=args.scheduler))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for dest in ("cores", "group_cores", "chips", "stages"):
        value = getattr(args, dest)
        if value is not None and value < 1:
            parser.error(f"--{dest.replace('_', '-')} must be >= 1, got {value}")
    if args.search_stages and (args.chips == 1 or args.sweep):
        parser.error("--search-stages requires --chips > 1 and a single run")
    if args.stages is not None and args.sweep:
        parser.error("--stages requires a single run (--sweep races every stage count)")
    if not args.sweep:
        workload = args.workload or _SINGLE_RUN_DEFAULTS["workload"]
        for dest, readers in _WORKLOAD_FLAGS.items():
            if getattr(args, dest) is not None and workload not in readers:
                parser.error(
                    f"--{dest.replace('_', '-')} requires --workload "
                    f"{' or '.join(readers)} (--workload {workload} never reads it)"
                )
    for dest, default in _SINGLE_RUN_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.sweep:
            parser.error(
                f"--{dest.replace('_', '-')} requires a single run (--sweep "
                "picks its own networks, load, schemes, group sizes, records "
                "and serving loop)"
            )
    for dest, default in _SWEEP_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif not args.sweep:
            parser.error(f"--{dest} requires --sweep (a single run is one simulation)")
    apply_workers(args.workers)
    if args.ts_window is not None and not (args.trace or args.perfetto):
        parser.error("--ts-window requires --trace or --perfetto")
    if args.chips == 1:
        if args.stages is not None:
            parser.error("--stages requires --chips > 1")
        for dest in _INTERCHIP_FLAGS:
            if getattr(args, dest) is not None:
                parser.error(f"--{dest.replace('_', '-')} requires --chips > 1")
        if args.group_cores is None:
            args.group_cores = args.cores
        if args.cores % args.group_cores:
            parser.error(
                f"--group-cores {args.group_cores} does not tile --cores {args.cores}"
            )
    elif args.group_cores is not None:
        parser.error(
            "--group-cores requires --chips 1 (an MCM's replica groups are "
            "its --stages pipelines)"
        )
    elif args.stages is not None and args.chips % args.stages:
        parser.error(
            f"--stages {args.stages} does not tile --chips {args.chips}"
        )

    traced = bool(args.trace or args.perfetto)
    if traced:
        obs.enable_tracing()
        obs.enable_noc_profiling()
        obs.enable_timeseries(window_cycles=args.ts_window)
    try:
        status = _run_sweep(args) if args.sweep else _run_single(args)
    finally:
        if traced:
            if args.trace:
                path = obs.export_trace(args.trace)
                print(f"[trace written to {path}]")
            if args.perfetto:
                path = obs.export_perfetto(args.perfetto)
                print(f"[perfetto trace written to {path}]")
            obs.disable_tracing()
            obs.disable_noc_profiling()
            obs.disable_timeseries()
            obs.clear_timeseries()
    if args.metrics:
        print(obs.METRICS.render())
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
