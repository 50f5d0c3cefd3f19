"""Table Search (beyond the paper) — DP-searched plans raced against fixed schemes.

Every scheme the paper evaluates assigns one parallelization recipe to the
whole network.  This axis asks what the :mod:`repro.plancost` oracle buys
when a *search* picks the recipe per layer and per stage instead:

* **per-layer degrees** — the :func:`~repro.search.search_layer_degrees`
  chain DP assigns each compute layer its own degree; the searched plan and
  the traditional all-cores plan are then both measured by the exact engine,
  next to the calibration rank correlation that says how much to trust the
  oracle's ordering (``tests/plancost/test_calibrate.py`` holds it at >= 0.95);
* **MCM stage boundaries** — :func:`~repro.search.search_stage_split` races
  the min-max DP split against :func:`~repro.mcm.pipeline.\
balanced_stage_split` per (model, chips, scheme), reporting the measured
  steady-state intervals.  By construction the searched column is never
  worse; the interesting number is *how often* and *by how much* it wins
  (fat-activation boundaries are where MAC balancing loses).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..accel.chip import ChipConfig
from ..analysis.tables import render_table
from ..mcm.topology import McmTopology
from ..models.zoo import get_spec
from ..parallel import pmap
from ..partition import build_traditional_plan
from ..plancost import calibrate
from ..search import search_layer_degrees, search_stage_split
from ..sim.engine import InferenceSimulator
from .config import ExperimentProfile, PAPER

__all__ = [
    "DegreeSearchRow",
    "StageSearchRow",
    "run_table_search",
    "render_table_search",
]

DEGREE_NETWORKS = ("lenet", "convnet", "alexnet")
FAST_DEGREE_NETWORKS = ("lenet", "convnet")
STAGE_CHIP_COUNTS = (2, 4)
FAST_STAGE_CHIP_COUNTS = (4,)


@dataclass(frozen=True)
class DegreeSearchRow:
    """One model's per-layer degree search, engine-measured."""

    model: str
    num_cores: int
    degrees: tuple[int, ...]
    analytic_cycles: float  # oracle cost of the searched config
    searched_cycles: int  # exact engine, searched plan
    traditional_cycles: int  # exact engine, all-cores traditional plan
    rank_correlation: float  # oracle-vs-engine Spearman (calibration)

    @property
    def speedup(self) -> float:
        """Measured latency win of the searched plan over traditional."""
        return self.traditional_cycles / self.searched_cycles


@dataclass(frozen=True)
class StageSearchRow:
    """One (model, chips, scheme) stage-boundary race, engine-measured."""

    model: str
    chips: int
    scheme: str
    balanced_sizes: tuple[int, ...]
    searched_sizes: tuple[int, ...]
    balanced_interval: int
    searched_interval: int
    balanced_latency: int
    searched_latency: int
    used: str  # "searched" when the DP split won, else "balanced"

    @property
    def interval_speedup(self) -> float:
        return self.balanced_interval / self.searched_interval


def run_table_search(
    profile: ExperimentProfile = PAPER,
    num_cores: int = 16,
    seed: int = 0,
    workers: int | None = None,
) -> tuple[list[DegreeSearchRow], list[StageSearchRow]]:
    """Run both search races; returns (degree rows, stage rows)."""
    fast = profile.name == "fast"
    networks = FAST_DEGREE_NETWORKS if fast else DEGREE_NETWORKS
    chip_counts = FAST_STAGE_CHIP_COUNTS if fast else STAGE_CHIP_COUNTS
    schemes = ("traditional",) if fast else ("traditional", "structure")
    k = 4 if fast else 8

    degree_rows = pmap(
        functools.partial(_run_degree, num_cores=num_cores, k=k, seed=seed),
        networks,
        workers=workers,
        label="tableSearch.degree",
    )
    stage_configs = [
        (name, chips, scheme)
        for name in networks
        for chips in chip_counts
        for scheme in schemes
    ]
    stage_rows = pmap(
        _run_stage,
        stage_configs,
        workers=workers,
        label="tableSearch.stage",
    )
    return list(degree_rows), list(stage_rows)


def _run_degree(name: str, num_cores: int, k: int, seed: int) -> DegreeSearchRow:
    """Search, then measure both the searched and the traditional plan."""
    spec = get_spec(name)
    result = search_layer_degrees(spec, num_cores)
    sim = InferenceSimulator(ChipConfig.table2(num_cores))
    searched = sim.simulate(result.plan).total_cycles
    traditional = sim.simulate(build_traditional_plan(spec, num_cores)).total_cycles
    report = calibrate(spec, num_cores, k=k, seed=seed)
    return DegreeSearchRow(
        model=name,
        num_cores=num_cores,
        degrees=result.degrees,
        analytic_cycles=result.predicted_cycles,
        searched_cycles=searched,
        traditional_cycles=traditional,
        rank_correlation=report.rank_correlation,
    )


def _run_stage(config: tuple[str, int, str]) -> StageSearchRow:
    name, chips, scheme = config
    result = search_stage_split(get_spec(name), McmTopology.build(chips), scheme)
    return StageSearchRow(
        model=name,
        chips=chips,
        scheme=scheme,
        balanced_sizes=result.balanced_sizes,
        searched_sizes=result.searched_sizes,
        balanced_interval=result.balanced_interval,
        searched_interval=result.interval_cycles,
        balanced_latency=result.balanced_latency,
        searched_latency=result.latency_cycles,
        used=result.used,
    )


def render_table_search(
    results: tuple[list[DegreeSearchRow], list[StageSearchRow]],
) -> str:
    degree_rows, stage_rows = results
    degree = render_table(
        ["model", "cores", "degrees", "oracle cyc", "engine cyc",
         "traditional cyc", "speedup", "rank corr"],
        [
            [
                r.model,
                r.num_cores,
                ",".join(str(d) for d in r.degrees),
                f"{r.analytic_cycles:,.0f}",
                f"{r.searched_cycles:,}",
                f"{r.traditional_cycles:,}",
                f"{r.speedup:.2f}x",
                f"{r.rank_correlation:.3f}",
            ]
            for r in degree_rows
        ],
        title="Table Search A — per-layer degree DP vs traditional (engine-measured)",
    )
    stage = render_table(
        ["model", "chips", "scheme", "balanced", "searched", "bal interval",
         "DP interval", "speedup", "used"],
        [
            [
                r.model,
                r.chips,
                r.scheme,
                "/".join(str(n) for n in r.balanced_sizes),
                "/".join(str(n) for n in r.searched_sizes),
                f"{r.balanced_interval:,}",
                f"{r.searched_interval:,}",
                f"{r.interval_speedup:.2f}x",
                r.used,
            ]
            for r in stage_rows
        ],
        title="Table Search B — MCM stage-boundary DP vs MAC-balanced split",
    )
    return f"{degree}\n\n{stage}"
