"""DP over MCM stage boundaries, exact-evaluated against the balanced split.

:func:`repro.mcm.pipeline.balanced_stage_split` balances *MACs*, but a
pipeline's steady-state rate is set by the slowest stage in **cycles** —
compute plus NoC drain plus the stage's inbound inter-chip transfer, none of
which are proportional to MACs (small late layers are drain-bound, stage
boundaries after fat activations pay big transfers).  The min-max DP here
balances the real quantity:

    f[j, s] = min_i  max( f[i, s-1], body(i, j) + transfer(i) )

where ``body(i, j)`` is the analytic latency of layers ``[i, j)`` planned on
one chip (the sum of :func:`~repro.plancost.analytic_layer_cycles` over the
range, input load excluded — stage 0's load is shared and later stages
stream over the link) and ``transfer(i)`` the inter-chip cost of layer
``i-1``'s activations over one snake hop.  The ``O(L²)`` range costs come
from at most ``L`` sub-plans: every range ``[i, j)`` is a prefix of the
sub-plan of ``layers[i:]``, so one plan build and one batched drain
estimate per start layer serve every range that starts there.

The analytic costs *propose*; they never decide.  :func:`search_stage_split`
exact-evaluates every DP proposal (one per stage count ``s = 1..num_chips``)
**and** the balanced split through :func:`~repro.mcm.service.mcm_service`
— the same memoized engine path serving uses — and keeps the split with the
smallest measured interval (ties: latency, then balanced).  The returned
split is therefore *never worse* than balanced by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..mcm.pipeline import (
    McmPipelinePlan,
    balanced_stage_split,
    build_mcm_plan,
    stage_subspec,
)
from ..mcm.service import PipelineService, mcm_service
from ..mcm.topology import McmTopology
from ..models.spec import LayerSpec, NetworkSpec
from ..plancost.oracle import analytic_layer_cycles
from ..sim.engine import SimConfig

__all__ = ["StageSearchResult", "dp_stage_split", "search_stage_split"]

#: Activation width on the inter-chip wire (matches repro.mcm.pipeline).
_BYTES_PER_VALUE = 2


def dp_stage_split(
    layers: list[LayerSpec],
    num_stages: int,
    range_cost: Callable[[int, int], float],
) -> list[list[LayerSpec]]:
    """Min-max optimal contiguous split into exactly ``num_stages`` stages.

    ``range_cost(i, j)`` is the stage cost of ``layers[i:j]`` *including*
    whatever the stage pays to receive its input (0 for ``i == 0``).  Every
    returned stage is non-empty, so ``num_stages`` must not exceed the layer
    count.  Runs the classic linear-partition DP: ``O(L² · S)`` transitions
    over the ``O(L²)`` memoized range costs.
    """
    count = len(layers)
    if not 1 <= num_stages <= count:
        raise ValueError(f"cannot split {count} layers into {num_stages} stages")

    # f[s][j]: best bottleneck for layers[:j] in s stages; cut[s][j]: argmin i.
    inf = float("inf")
    f = [[inf] * (count + 1) for _ in range(num_stages + 1)]
    cut = [[0] * (count + 1) for _ in range(num_stages + 1)]
    f[0][0] = 0.0
    for s in range(1, num_stages + 1):
        # Stage s covers [i, j): i leaves s-1 stages for layers[:i].
        for j in range(s, count - (num_stages - s) + 1):
            best, best_i = inf, s - 1
            for i in range(s - 1, j):
                if f[s - 1][i] == inf:
                    continue
                bottleneck = max(f[s - 1][i], range_cost(i, j))
                if bottleneck < best:
                    best, best_i = bottleneck, i
            f[s][j], cut[s][j] = best, best_i

    bounds = [count]
    for s in range(num_stages, 0, -1):
        bounds.append(cut[s][bounds[-1]])
    bounds.reverse()
    return [layers[bounds[s] : bounds[s + 1]] for s in range(num_stages)]


@dataclass(frozen=True)
class StageSearchResult:
    """Outcome of one stage-boundary search, all numbers engine-measured."""

    model: str
    scheme: str
    num_chips: int
    cores_per_chip: int
    balanced_sizes: tuple[int, ...]
    searched_sizes: tuple[int, ...]
    balanced_interval: int
    balanced_latency: int
    interval_cycles: int
    latency_cycles: int
    used: str  # "searched" when a DP split beat balanced, else "balanced"
    plan: McmPipelinePlan
    service: PipelineService

    @property
    def interval_speedup(self) -> float:
        """Steady-state throughput win of the chosen split over balanced."""
        return self.balanced_interval / self.interval_cycles

    def describe(self) -> str:
        sizes = "/".join(str(n) for n in self.searched_sizes)
        return (
            f"{self.model} {self.scheme} x{self.num_chips}chips: "
            f"{self.used} split [{sizes}], interval {self.interval_cycles:,} "
            f"vs balanced {self.balanced_interval:,} "
            f"({self.interval_speedup:.2f}x)"
        )


def _range_cost(
    spec: NetworkSpec, topology: McmTopology, scheme: str
) -> Callable[[int, int], float]:
    """``range_cost(i, j)``: analytic stage cost of ``layers[i:j]`` on one chip.

    The body excludes the input load (stage 0's load is shared, later
    stages stream over the link); the inbound transfer of layer ``i-1``'s
    activations over one snake hop is added.  Every range ``[i, j)`` is a
    prefix of the sub-plan of ``layers[i:]``: plans are built layer by
    layer, and the structure scheme groups a conv iff an earlier conv of the
    sub-spec exists and its channels divide.  So one sub-plan per start
    layer, costed per layer, serves every range from its running sum.
    """
    # Lazy: repro.serve imports repro.mcm at module scope, not vice versa.
    from ..serve.cluster import build_replica_plan

    layers = spec.compute_layers()
    chip = topology.chip_config()
    transfers = [0] + [
        # Snake placement: consecutive occupied stages are one chip hop apart.
        topology.link.transfer_cycles(layers[i - 1].output_volume * _BYTES_PER_VALUE, 1)
        for i in range(1, len(layers))
    ]
    running: dict[int, np.ndarray] = {}

    def range_cost(i: int, j: int) -> float:
        if i not in running:
            sub = stage_subspec(spec, i, layers[i:])
            plan = build_replica_plan(sub, topology.cores_per_chip, scheme)
            running[i] = np.cumsum(analytic_layer_cycles(plan, chip=chip))
        return float(running[i][j - i - 1]) + transfers[i]

    return range_cost


def search_stage_split(
    spec: NetworkSpec,
    topology: McmTopology,
    scheme: str = "traditional",
    sim_config: SimConfig | None = None,
) -> StageSearchResult:
    """Best exact-measured stage split: DP proposals raced against balanced.

    Proposes one min-max split per stage count ``s = 1..num_chips`` from the
    analytic range costs, pads each with trailing empty stages, then
    measures every distinct candidate *and* the balanced split with
    :func:`~repro.mcm.service.mcm_service`.  Selection is on measured
    interval (tie: latency, tie: balanced), so the result is never worse
    than the balanced baseline.
    """
    layers = spec.compute_layers()
    if not layers:
        raise ValueError(f"{spec.name} has no compute layers")
    range_cost = _range_cost(spec, topology, scheme)

    balanced = balanced_stage_split(layers, topology.num_chips)
    candidates: dict[tuple[int, ...], list[list[LayerSpec]]] = {}
    for s in range(1, min(topology.num_chips, len(layers)) + 1):
        split = dp_stage_split(layers, s, range_cost)
        split += [[] for _ in range(topology.num_chips - s)]
        candidates.setdefault(tuple(len(st) for st in split), split)
    candidates.pop(tuple(len(st) for st in balanced), None)

    def measure(
        split: list[list[LayerSpec]],
    ) -> tuple[McmPipelinePlan, PipelineService]:
        plan = build_mcm_plan(spec, topology, scheme, split=split)
        return plan, mcm_service(plan, sim_config=sim_config)

    best_plan, best_svc = measure(balanced)
    balanced_interval = best_svc.interval_cycles
    balanced_latency = best_svc.latency_cycles
    used = "balanced"
    for split in candidates.values():
        plan, svc = measure(split)
        key = (svc.interval_cycles, svc.latency_cycles)
        if key < (best_svc.interval_cycles, best_svc.latency_cycles):
            best_plan, best_svc, used = plan, svc, "searched"

    return StageSearchResult(
        model=spec.name,
        scheme=scheme,
        num_chips=topology.num_chips,
        cores_per_chip=topology.cores_per_chip,
        balanced_sizes=tuple(len(st) for st in balanced),
        searched_sizes=tuple(len(st.layers) for st in best_plan.stages),
        balanced_interval=balanced_interval,
        balanced_latency=balanced_latency,
        interval_cycles=best_svc.interval_cycles,
        latency_cycles=best_svc.latency_cycles,
        used=used,
        plan=best_plan,
        service=best_svc,
    )
