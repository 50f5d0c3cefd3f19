"""Table S1 (beyond the paper) — serving latency-throughput Pareto frontier.

The paper's §I QoS claim — model parallelism wins response time, input-level
parallelism wins throughput — evaluated under *load*: a Poisson request
stream is served by the 16-core chip partitioned into replica groups of
16 / 4 / 1 cores (model-parallel ... data-parallel), under the traditional
and structure-level schemes, across arrival rates from idle to saturation.

Expected shape (and what the seeded test asserts): at low arrival rates the
full-chip model-parallel plans hold the lowest p99 response time; past a
replica configuration's capacity its queue — and therefore its tail — blows
up, so at high rates the many-small-replica (data-parallel) configurations
keep the higher goodput.  The frontier column marks the per-scheme
Pareto-optimal (goodput, p99) points a deployer would actually pick.

Geometry-only plans (no training): the structure scheme groups every
eligible conv layer replica-wide, which is the paper's Parallel#1 transform
without the retraining step — its accuracy cost is Table III/IV's subject,
not this table's.

The sweep itself is Table MCM's
(:func:`~repro.experiments.table_mcm.serving_sweep`) over the single-chip
family only, so both tables share one configuration list, row loop and
row type.
"""

from __future__ import annotations

from ..analysis.tables import render_table
from .config import ExperimentProfile, PAPER
from .table_mcm import DEFAULT_GROUP_SIZES, SERVE_NETWORK, TableMcmRow, serving_sweep

__all__ = ["run_tableS1", "render_tableS1"]

DEFAULT_LOAD_FACTORS = (0.2, 0.6, 1.2, 2.0)
FAST_LOAD_FACTORS = (0.2, 2.0)


def run_tableS1(
    profile: ExperimentProfile = PAPER,
    num_cores: int = 16,
    group_sizes: tuple[int, ...] = DEFAULT_GROUP_SIZES,
    schemes: tuple[str, ...] = ("traditional", "structure"),
    load_factors: tuple[float, ...] | None = None,
    num_requests: int | None = None,
    scheduler: str = "fifo",
    max_batch: int = 4,
    slo_factor: float = 2.0,
    seed: int = 0,
    workers: int | None = None,
    memory_channels: int | None = None,
) -> list[TableMcmRow]:
    """Sweep arrival rate x scheme x replica-group size on one chip.

    Rates are expressed as multiples (``load_factors``) of the full-chip
    traditional model-parallel configuration's capacity, so the sweep spans
    the same relative operating range at any chip size.  The shared SLO —
    ``slo_factor`` x the *slowest* configuration's unloaded latency — is the
    loosest target every configuration can meet when idle, making goodput
    comparable across them.
    """
    if load_factors is None:
        fast = profile.name == "fast"
        load_factors = FAST_LOAD_FACTORS if fast else DEFAULT_LOAD_FACTORS
    return serving_sweep(
        "tableS1",
        # The frontier is computed within each scheme: geometry-only
        # structure pays no accuracy cost here, so a global frontier would
        # trivially be all-structure and hide the replica-size crossover the
        # table is about.
        lambda row: row.scheme,
        profile=profile,
        chips=1,
        cores_per_chip=num_cores,
        group_sizes=group_sizes,
        stage_counts=(),
        schemes=schemes,
        load_factors=load_factors,
        num_requests=num_requests,
        scheduler=scheduler,
        max_batch=max_batch,
        slo_factor=slo_factor,
        seed=seed,
        workers=workers,
        link=None,
        memory_channels=memory_channels,
    )


def render_tableS1(rows: list[TableMcmRow], scheduler: str = "fifo") -> str:
    """Table S1 as text; ``scheduler`` names the policy the rows served with."""
    return render_table(
        [
            "scheme", "grp cores", "replicas", "load", "rate/Mcyc",
            "p50 cyc", "p99 cyc", "tput/Mcyc", "goodput", "viol %", "util %",
            "pareto",
        ],
        [
            [
                r.scheme,
                r.group_cores,
                r.replicas,
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
            "Table S1 — serving QoS: latency-throughput Pareto frontier "
            f"({SERVE_NETWORK}, Poisson arrivals, {scheduler.upper()} dispatch)"
        ),
    )
