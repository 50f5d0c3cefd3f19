"""Scalar reference for the analytic plan cost.

The engine's latency model with every drain replaced by its closed-form
estimate, one layer and one burst at a time: the input load, plus per layer
the busiest core's :meth:`~repro.accel.core.CoreModel.compute_cycles` and
the burst's :func:`~repro.noc.estimate_drain_cycles` times the core/NoC
clock divider.  ``test_oracle.py`` holds :class:`~repro.plancost.PlanCostOracle`
and :func:`~repro.plancost.analytic_plan_cost` equal to it.
"""

from __future__ import annotations

from repro.accel import ChipConfig
from repro.noc import estimate_drain_cycles
from repro.partition.plan import ModelParallelPlan
from repro.sim.engine import input_load_cycles


def reference_plan_cycles(plan: ModelParallelPlan, chip: ChipConfig | None = None) -> int:
    """Analytic latency of ``plan`` in core cycles, input load included."""
    chip = chip or ChipConfig.table2(plan.num_cores)
    core = chip.core_model()
    total = input_load_cycles(chip, plan.layers[0].layer.in_shape) if plan.layers else 0
    for lp in plan.layers:
        total += max((core.compute_cycles(w) for w in lp.workloads()), default=0)
        drain = estimate_drain_cycles(lp.traffic, chip.mesh, chip.noc).cycles
        total += drain * chip.noc.core_clock_divider
    return total
