"""Calibration: pinning the analytic oracle against the exact event engine.

The oracle's analytical drain model is a first-order estimate — at high load
it undercounts congestion, at very low load the additive head term slightly
overshoots (see :mod:`repro.noc.analytical`).  For a *search* that is fine
as long as the estimate **ranks** candidates like the engine does; for
reporting absolute cycles a scale factor is needed.  :func:`calibrate`
measures both: it samples K degree configurations per (model, mesh), costs
each through the oracle and through the exact
:class:`~repro.sim.engine.InferenceSimulator` (cycle/scaled-cycle comm, the
persistent drain memo making repeat runs free), and reports

* the engine/analytic latency **ratio** with error bars (mean ± std, min,
  max) — ``scale`` to convert oracle cycles into engine-comparable cycles;
* the **Spearman rank correlation** between the two cost vectors — the
  number ``tests/plancost/test_calibrate.py`` holds at ≥ 0.95 (k = 16) on
  lenet, convnet and alexnet, i.e. "the oracle picks (nearly) the same
  winners the engine would".

Sampling always includes the all-``num_cores`` (traditional) anchor config
plus uniform-random valid configs from a seeded generator, so reports are
reproducible byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accel.chip import ChipConfig
from ..models.spec import NetworkSpec
from ..partition.degree import build_degree_plan
from ..sim.engine import InferenceSimulator, SimConfig
from .oracle import PlanCostOracle

__all__ = [
    "CalibrationSample",
    "CalibrationReport",
    "calibrate",
    "sample_degree_configs",
    "spearman_rank_correlation",
]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks (0-based) with ties averaged, scipy-free."""
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=float)
    ranks[order] = np.arange(len(x), dtype=float)
    uniq, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    sums = np.zeros(len(uniq), dtype=float)
    np.add.at(sums, inverse, ranks)
    return sums[inverse] / counts[inverse]


def spearman_rank_correlation(a, b) -> float:
    """Spearman's rho between two cost vectors (ties averaged)."""
    ra, rb = _average_ranks(np.asarray(a)), _average_ranks(np.asarray(b))
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    denom = float(np.sqrt((ra**2).sum() * (rb**2).sum()))
    if denom == 0.0:  # a constant vector ranks everything equally
        return 1.0
    return float((ra * rb).sum() / denom)


def sample_degree_configs(
    oracle: PlanCostOracle, k: int, seed: int = 0
) -> list[tuple[int, ...]]:
    """K distinct valid degree configs: the traditional anchor + seeded draws."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    rng = np.random.default_rng(seed)
    valid_choices = [
        [oracle.degrees[pi] for pi in np.flatnonzero(oracle.valid[li])]
        for li in range(oracle.num_layers)
    ]
    if any(not c for c in valid_choices):
        raise ValueError(f"{oracle.spec.name}: a layer admits no candidate degree")
    configs: list[tuple[int, ...]] = []
    anchor = tuple(
        choices[-1] for choices in valid_choices
    )  # largest valid degree per layer ≈ the traditional plan
    seen = {anchor}
    configs.append(anchor)
    # Distinct draws; the config space can be smaller than k for tiny nets.
    attempts = 0
    while len(configs) < k and attempts < 100 * k:
        attempts += 1
        cfg = tuple(
            choices[rng.integers(len(choices))] for choices in valid_choices
        )
        if cfg in seen:
            continue
        seen.add(cfg)
        configs.append(cfg)
    return configs


@dataclass(frozen=True)
class CalibrationSample:
    """One sampled config costed both ways."""

    degrees: tuple[int, ...]
    analytic_cycles: float
    engine_cycles: int

    @property
    def ratio(self) -> float:
        """engine / analytic — how much the estimate under/overshoots."""
        return self.engine_cycles / self.analytic_cycles


@dataclass(frozen=True)
class CalibrationReport:
    """Analytic-vs-engine agreement for one (model, mesh)."""

    model: str
    num_cores: int
    samples: tuple[CalibrationSample, ...]
    ratio_mean: float
    ratio_std: float
    ratio_min: float
    ratio_max: float
    rank_correlation: float

    @property
    def scale(self) -> float:
        """Multiplier turning oracle cycles into engine-comparable cycles."""
        return self.ratio_mean

    def render(self) -> str:
        return (
            f"{self.model} x{self.num_cores}: {len(self.samples)} configs, "
            f"engine/analytic {self.ratio_mean:.3f} ± {self.ratio_std:.3f} "
            f"[{self.ratio_min:.3f}, {self.ratio_max:.3f}], "
            f"rank corr {self.rank_correlation:.3f}"
        )


def calibrate(
    spec: NetworkSpec,
    num_cores: int = 16,
    k: int = 8,
    seed: int = 0,
    degrees: tuple[int, ...] | None = None,
    chip: ChipConfig | None = None,
    sim_config: SimConfig | None = None,
) -> CalibrationReport:
    """Sample K configs through oracle and engine; report ratio + rank corr.

    The engine runs in its default ``auto`` comm mode (cycle-exact below the
    flit budget, scaled-cycle above) with the persistent drain memo on, so
    repeated calibrations of the same (model, mesh) are disk-cache hits —
    and every cycle drain leaves its analytical twin in the memo
    (:func:`~repro.sim.engine.memoized_drain_estimate`).
    """
    oracle = PlanCostOracle(spec, num_cores, degrees=degrees, chip=chip)
    configs = sample_degree_configs(oracle, k, seed=seed)
    sim = InferenceSimulator(oracle.chip, sim_config or SimConfig())
    samples = []
    for cfg in configs:
        analytic = oracle.cost(cfg)
        plan = build_degree_plan(spec, num_cores, cfg)
        engine = sim.simulate(plan).total_cycles
        samples.append(
            CalibrationSample(
                degrees=cfg, analytic_cycles=analytic, engine_cycles=engine
            )
        )
    ratios = np.asarray([s.ratio for s in samples])
    return CalibrationReport(
        model=spec.name,
        num_cores=num_cores,
        samples=tuple(samples),
        ratio_mean=float(ratios.mean()),
        ratio_std=float(ratios.std()),
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
        rank_correlation=spearman_rank_correlation(
            [s.analytic_cycles for s in samples],
            [s.engine_cycles for s in samples],
        ),
    )
