"""Service-time profile of one replica group: a pipeline of one or more stages.

:class:`PipelineService` is the one service model the serving loop runs.
A single-chip replica group is its one-stage case
(:func:`repro.serve.cluster.service_for_plan`); an MCM plan is its
multi-stage case (:func:`mcm_service`):

* **latency** — one request traverses every stage serially: input load +
  sum of stage compute + sum of inter-chip transfers;
* **steady-state interval** — at full occupancy the slowest stage (compute
  plus its inbound transfer) sets the completion rhythm, so a batch of
  ``k`` costs ``latency + (k - 1) * interval``;
* **imbalance** — the slowest stage over the mean stage, in cycles, among
  the stages that compute (§II.B's load-imbalance measure);
* **occupancy** — the *first* stage drains after ``input_load + stage_0 +
  (k - 1) * interval`` cycles, at which point the pipeline front is free
  to accept the next batch while the tail is still in flight.  With one
  stage the front is the whole group, so occupancy equals the batch time
  and only the input load is amortized across a batch.

Per-stage compute comes from the single-chip cycle engine via
``service_for_plan`` (memoized): each stage is its service's
``body_cycles``.  Stage 0's DRAM input load stays the pipeline's input load;
later stages' input arrives over the inter-chip link instead, charged
separately by :meth:`McmPipelinePlan.inbound_transfer_cycles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .pipeline import McmPipelinePlan

__all__ = ["PipelineService", "mcm_service"]


@dataclass(frozen=True)
class PipelineService:
    """Service profile of one replica group (one stage per chip)."""

    model: str
    scheme: str
    chips: int
    cores_per_chip: int
    stage_cycles: tuple[int, ...]
    transfer_cycles: tuple[int, ...]
    input_load_cycles: int

    def __post_init__(self) -> None:
        if not self.stage_cycles:
            raise ValueError("pipeline needs at least one stage")
        if len(self.transfer_cycles) != len(self.stage_cycles):
            raise ValueError(
                f"{len(self.transfer_cycles)} transfers for {len(self.stage_cycles)} stages"
            )
        if min(self.stage_cycles) < 0 or min(self.transfer_cycles) < 0:
            raise ValueError("stage and transfer cycles must be non-negative")
        if self.transfer_cycles[0] != 0:
            raise ValueError("stage 0 has no inbound inter-chip transfer")
        if self.input_load_cycles < 0:
            raise ValueError(f"input load must be non-negative, got {self.input_load_cycles}")
        if self.latency_cycles <= 0:
            raise ValueError("pipeline latency must be positive")

    @property
    def cores(self) -> int:
        return self.chips * self.cores_per_chip

    @property
    def stage_count(self) -> int:
        return len(self.stage_cycles)

    # The serving loop reads these two per dispatch; the profile is frozen,
    # so each is computed once.
    @cached_property
    def latency_cycles(self) -> int:
        """Queue-free single-request response time."""
        return self.input_load_cycles + sum(self.stage_cycles) + sum(self.transfer_cycles)

    @cached_property
    def interval_cycles(self) -> int:
        """Steady-state cycles per request: slowest stage + inbound transfer."""
        return max(s + t for s, t in zip(self.stage_cycles, self.transfer_cycles))

    @property
    def body_cycles(self) -> int:
        """Latency beyond the (amortizable) input load."""
        return self.latency_cycles - self.input_load_cycles

    @property
    def imbalance(self) -> float:
        """Max over mean of the non-zero stage cycles; 1.0 is perfect balance."""
        busy = [c for c in self.stage_cycles if c]
        if not busy:
            return 1.0
        return max(busy) / (sum(busy) / len(busy))

    def batch_cycles(self, batch_size: int) -> int:
        """Finish time of a back-to-back batch relative to its start."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return self.latency_cycles + (batch_size - 1) * self.interval_cycles

    def occupancy_cycles(self, batch_size: int) -> int:
        """Cycles until the pipeline *front* can accept the next batch."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return (
            self.input_load_cycles
            + self.stage_cycles[0]
            + (batch_size - 1) * self.interval_cycles
        )


def mcm_service(plan: McmPipelinePlan, model: str | None = None) -> PipelineService:
    """Simulate each stage once (memoized) and assemble the pipeline profile."""
    # Lazy: repro.serve imports repro.mcm at module scope, not vice versa.
    from ..serve.cluster import service_for_plan

    if plan.occupied_stages == 0:
        raise ValueError(f"plan {plan.name!r} has no occupied stages")
    stage_cycles = []
    input_load = 0
    for stage in plan.stages:
        if stage.plan is None:
            stage_cycles.append(0)
            continue
        svc = service_for_plan(stage.plan, model=stage.plan.name)
        stage_cycles.append(svc.body_cycles)
        if stage.index == 0:
            input_load = svc.input_load_cycles
    return PipelineService(
        model=model or plan.name,
        scheme=plan.scheme,
        chips=plan.topology.num_chips,
        cores_per_chip=plan.topology.cores_per_chip,
        stage_cycles=tuple(stage_cycles),
        transfer_cycles=tuple(plan.inbound_transfer_cycles()),
        input_load_cycles=input_load,
    )
