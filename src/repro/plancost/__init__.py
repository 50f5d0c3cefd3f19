"""Batched plan-cost oracle: candidate plans costed without the engine.

``repro.plancost`` turns plan costing from "one InferenceSimulator run per
candidate" into struct-of-arrays table lookups (see DESIGN.md):

* :mod:`~repro.plancost.batched` — vectorized DianNao compute cycles and
  analytical drain estimates over whole candidate grids;
* :mod:`~repro.plancost.oracle` — per-layer degree cost tables and
  gather-based ``batch_cost``;
* :mod:`~repro.plancost.calibrate` — K sampled configs through the exact
  engine: engine/analytic ratio error bars + rank correlation.
"""

from .batched import BatchedDrainEstimate, BatchedDrainModel, batched_compute_cycles
from .calibrate import (
    CalibrationReport,
    CalibrationSample,
    calibrate,
    sample_degree_configs,
    spearman_rank_correlation,
)
from .oracle import PlanCostOracle, analytic_layer_cycles, analytic_plan_cost, candidate_degrees

__all__ = [
    "BatchedDrainEstimate",
    "BatchedDrainModel",
    "batched_compute_cycles",
    "PlanCostOracle",
    "analytic_layer_cycles",
    "analytic_plan_cost",
    "candidate_degrees",
    "CalibrationReport",
    "CalibrationSample",
    "calibrate",
    "sample_degree_configs",
    "spearman_rank_correlation",
]
