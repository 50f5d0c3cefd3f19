"""Table MCM (beyond the paper) — single-chip groups vs pipelined MCM scale-out.

The Table S1 sweep stops at one 16-core chip.  This axis races the same
Poisson stream over two families on **one global Pareto frontier**:

* **single-chip replica groups** — the chip split into 16 / 4 / 1-core
  groups under the traditional and structure schemes (Table S1's axes);
* **pipelined MCM** — ``chips`` chips joined by inter-chip links
  (:mod:`repro.mcm`), carved into ``pipelines x stages`` layouts: every
  divisor of the chip count is a stage depth, from ``stages = 1`` (pure
  chip replication) to ``stages = chips`` (one package-wide pipeline).

Rates are multiples of the full-chip traditional model-parallel capacity;
the shared SLO is ``slo_factor`` x the *slowest* configuration's unloaded
latency, so goodput is comparable across families.  Because an MCM
pipeline's steady-state interval is a fraction of the whole-network
latency, pipelined configurations keep completing within SLO at rates
where every single-chip layout has saturated — the scale-out claim
``tests/experiments/test_table_mcm.py`` holds on both profiles.

Unlike Table S1's per-scheme frontiers, the frontier here is **global**:
the question is "what would a deployer run", and the answer is allowed to
be "a different family".

Table S1 is this sweep over the single-chip family alone
(:func:`~repro.experiments.tableS1.run_tableS1`): :func:`serving_sweep` is
the one configuration list, latency stage, row loop and ``pmap`` pair both
tables run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Hashable

from ..analysis.pareto import pareto_flags
from ..analysis.tables import render_table
from ..mcm.topology import InterChipLink
from ..models.spec import NetworkSpec
from ..models.zoo import get_spec
from ..parallel import pmap
from ..serve.cluster import build_mcm_cluster, build_spec_cluster
from ..serve.scheduler import make_scheduler
from ..serve.simulator import simulate_serving
from ..serve.slo import SLO
from ..serve.workload import PoissonWorkload
from .config import ExperimentProfile, PAPER

__all__ = ["TableMcmRow", "serving_sweep", "run_table_mcm", "render_table_mcm"]

SERVE_NETWORK = "convnet"
DEFAULT_CHIPS = 4
DEFAULT_GROUP_SIZES = (16, 4, 1)
#: Load factors reach past single-chip saturation so the MCM headroom shows.
DEFAULT_LOAD_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0, 6.0)
FAST_LOAD_FACTORS = (0.25, 1.0, 6.0)

#: ("chip", scheme, group_cores) | ("mcm", scheme, stages)
_Config = tuple[str, str, int]


@dataclass(frozen=True)
class TableMcmRow:
    """One (family, scheme, layout, arrival rate) operating point."""

    kind: str  # "chip" | "mcm"
    scheme: str
    chips: int
    stages: int  # pipeline depth (1 for single-chip rows)
    replicas: int  # concurrent groups: chip replica groups or pipelines
    group_cores: int  # cores one request's group spans
    load_factor: float  # offered rate / one full-chip MP replica's capacity
    rate_per_megacycle: float
    p50: int
    p99: int
    throughput: float  # completions per megacycle
    goodput: float  # SLO-met completions per megacycle
    violation_rate: float
    utilization: float
    pareto: bool  # on its sweep's (goodput up, p99 down) frontier

    @property
    def config(self) -> str:
        """Layout label: ``16c x 1`` groups or ``2s x 2p`` pipelines."""
        if self.kind == "chip":
            return f"{self.group_cores}c x {self.replicas}"
        return f"{self.stages}s x {self.replicas}p"


def _configurations(
    chips: int,
    schemes: tuple[str, ...],
    group_sizes: tuple[int, ...],
    stage_counts: tuple[int, ...],
) -> list[_Config]:
    configs: list[_Config] = []
    for scheme in schemes:
        for g in group_sizes:
            # A 1-core group has nothing to partition: structure degenerates
            # to traditional, so only report it once.
            if scheme == "structure" and g == 1:
                continue
            configs.append(("chip", scheme, g))
    for scheme in schemes:
        for stages in stage_counts:
            if chips % stages:
                raise ValueError(f"stage count {stages} does not tile {chips} chips")
            configs.append(("mcm", scheme, stages))
    return configs


def _build_cluster(
    config: _Config,
    spec: NetworkSpec,
    cores_per_chip: int,
    chips: int,
    link: InterChipLink | None,
    memory_channels: int | None,
):
    kind, scheme, n = config
    if kind == "chip":
        return build_spec_cluster(
            spec, cores_per_chip, n, scheme=scheme, memory_channels=memory_channels
        )
    return build_mcm_cluster(
        spec,
        chips,
        cores_per_chip=cores_per_chip,
        stages=n,
        scheme=scheme,
        link=link,
        memory_channels=memory_channels,
    )


def _config_latency(
    config: _Config,
    spec: NetworkSpec,
    cores_per_chip: int,
    chips: int,
    link: InterChipLink | None,
    memory_channels: int | None,
) -> int:
    cluster = _build_cluster(config, spec, cores_per_chip, chips, link, memory_channels)
    return cluster.unloaded_latency(spec.name)


def _config_rows(
    config: _Config,
    spec: NetworkSpec,
    cores_per_chip: int,
    chips: int,
    link: InterChipLink | None,
    memory_channels: int | None,
    base_rate: float,
    slo: SLO,
    load_factors: tuple[float, ...],
    num_requests: int,
    scheduler: str,
    max_batch: int,
    seed: int,
) -> list[TableMcmRow]:
    """All load points of one configuration."""
    kind, scheme, n = config
    cluster = _build_cluster(config, spec, cores_per_chip, chips, link, memory_channels)
    rows: list[TableMcmRow] = []
    for factor in load_factors:
        rate = factor * base_rate
        workload = PoissonWorkload(
            rate_per_megacycle=rate,
            num_requests=num_requests,
            seed=seed + 1000 * int(factor * 100),
            mix={spec.name: 1.0},
        )
        # Summary mode drops per-request storage once the SLO is scored,
        # keeping the sweep's memory flat at any request count.
        _, report = simulate_serving(
            cluster,
            make_scheduler(scheduler, max_batch=max_batch),
            workload,
            slo=slo,
            records="summary",
        )
        assert report is not None
        rows.append(
            TableMcmRow(
                kind=kind,
                scheme=scheme,
                chips=1 if kind == "chip" else chips,
                stages=1 if kind == "chip" else n,
                replicas=cluster.num_groups,
                group_cores=cluster.group_cores,
                load_factor=factor,
                rate_per_megacycle=rate,
                p50=report.p50,
                p99=report.p99,
                throughput=report.throughput_per_megacycle,
                goodput=report.goodput_per_megacycle,
                violation_rate=report.violation_rate,
                utilization=report.utilization,
                pareto=False,
            )
        )
    return rows


def serving_sweep(
    name: str,
    frontier: Callable[[TableMcmRow], Hashable],
    *,
    profile: ExperimentProfile,
    chips: int,
    cores_per_chip: int,
    group_sizes: tuple[int, ...],
    stage_counts: tuple[int, ...],
    schemes: tuple[str, ...],
    load_factors: tuple[float, ...],
    num_requests: int | None,
    scheduler: str,
    max_batch: int,
    slo_factor: float,
    seed: int,
    workers: int | None,
    link: InterChipLink | None,
    memory_channels: int | None,
) -> list[TableMcmRow]:
    """Serve one Poisson stream per (configuration, load factor) and flag
    the Pareto frontier within each ``frontier(row)`` group.

    The configurations are the chip's replica groups per scheme, then the
    MCM layouts of every stage count (none when ``stage_counts`` is empty).
    Rates are multiples of one full-chip traditional replica's capacity;
    the shared SLO is ``slo_factor`` x the *slowest* configuration's
    unloaded latency.  Two ``pmap`` stages, labelled by ``name``: every
    configuration's unloaded latency first (the SLO needs the global
    maximum), then every configuration's load points.  Within one process
    the second stage's cluster rebuild hits the in-process service memo;
    across processes it hits the persistent drain-time cache.
    """
    if num_requests is None:
        num_requests = 150 if profile.name == "fast" else 600
    spec = get_spec(SERVE_NETWORK)
    configs = _configurations(chips, schemes, group_sizes, stage_counts)
    yardstick: _Config = ("chip", "traditional", cores_per_chip)
    latency_configs = configs + ([] if yardstick in configs else [yardstick])
    build_args = dict(
        spec=spec,
        cores_per_chip=cores_per_chip,
        chips=chips,
        link=link,
        memory_channels=memory_channels,
    )
    latencies = dict(
        zip(
            latency_configs,
            pmap(
                functools.partial(_config_latency, **build_args),
                latency_configs,
                workers=workers,
                label=f"{name}.latency",
            ),
        )
    )
    slo = SLO(
        target_cycles=int(slo_factor * max(latencies[c] for c in configs)), name=name
    )
    per_config = pmap(
        functools.partial(
            _config_rows,
            base_rate=1e6 / latencies[yardstick],
            slo=slo,
            load_factors=tuple(load_factors),
            num_requests=num_requests,
            scheduler=scheduler,
            max_batch=max_batch,
            seed=seed,
            **build_args,
        ),
        configs,
        workers=workers,
        label=f"{name}.sweep",
    )
    rows = [row for rows_ in per_config for row in rows_]

    flags = [False] * len(rows)
    groups: dict[Hashable, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(frontier(row), []).append(i)
    for members in groups.values():
        points = [(rows[i].goodput, float(rows[i].p99)) for i in members]
        for i, flag in zip(members, pareto_flags(points)):
            flags[i] = flag
    return [replace(r, pareto=f) for r, f in zip(rows, flags)]


def run_table_mcm(
    profile: ExperimentProfile = PAPER,
    chips: int = DEFAULT_CHIPS,
    cores_per_chip: int = 16,
    group_sizes: tuple[int, ...] = DEFAULT_GROUP_SIZES,
    stage_counts: tuple[int, ...] | None = None,
    schemes: tuple[str, ...] = ("traditional", "structure"),
    load_factors: tuple[float, ...] | None = None,
    num_requests: int | None = None,
    scheduler: str = "fifo",
    max_batch: int = 4,
    slo_factor: float = 2.0,
    seed: int = 0,
    workers: int | None = None,
    link: InterChipLink | None = None,
    memory_channels: int | None = None,
) -> list[TableMcmRow]:
    """Sweep rate x scheme x {single-chip groups, pipelined MCM layouts}.

    ``stage_counts`` defaults to every divisor of ``chips``: 1 (pure chip
    replication) through ``chips`` (one package-wide pipeline).
    """
    if load_factors is None:
        fast = profile.name == "fast"
        load_factors = FAST_LOAD_FACTORS if fast else DEFAULT_LOAD_FACTORS
    if stage_counts is None:
        stage_counts = tuple(s for s in range(1, chips + 1) if chips % s == 0)
    return serving_sweep(
        "tableMCM",
        # ONE global frontier across both families — the deployer's view.
        lambda row: None,
        profile=profile,
        chips=chips,
        cores_per_chip=cores_per_chip,
        group_sizes=group_sizes,
        stage_counts=tuple(stage_counts),
        schemes=schemes,
        load_factors=load_factors,
        num_requests=num_requests,
        scheduler=scheduler,
        max_batch=max_batch,
        slo_factor=slo_factor,
        seed=seed,
        workers=workers,
        link=link,
        memory_channels=memory_channels,
    )


def render_table_mcm(rows: list[TableMcmRow]) -> str:
    return render_table(
        [
            "kind", "scheme", "layout", "chips", "load", "rate/Mcyc",
            "p50 cyc", "p99 cyc", "tput/Mcyc", "goodput", "viol %", "util %",
            "pareto",
        ],
        [
            [
                r.kind,
                r.scheme,
                r.config,
                r.chips,
                f"{r.load_factor:g}x",
                f"{r.rate_per_megacycle:.0f}",
                f"{r.p50:,}",
                f"{r.p99:,}",
                f"{r.throughput:.1f}",
                f"{r.goodput:.1f}",
                f"{r.violation_rate:.0%}",
                f"{r.utilization:.0%}",
                "*" if r.pareto else "",
            ]
            for r in rows
        ],
        title=(
            "Table MCM — single-chip replica groups vs pipelined MCM "
            f"({SERVE_NETWORK}, Poisson arrivals, one global Pareto frontier)"
        ),
    )
