"""The plan-cost oracle: whole candidate grids costed without the engine.

A per-layer parallelization search over ``L`` compute layers and ``P``
candidate degrees has ``P^L`` configurations, but its cost structure is a
chain: latency = input load + Σ compute(ℓ, p_ℓ) + Σ comm(ℓ, p_{ℓ-1} → p_ℓ).
The oracle therefore precomputes two tables —

* ``compute[ℓ, p]`` — busiest-core NFU cycles of layer ``ℓ`` at degree
  ``p``: :func:`~repro.plancost.batched.batched_compute_cycles` over the
  builder's per-core workloads
  (:func:`~repro.partition.traditional.grouped_workloads` of the
  :func:`~repro.partition.layout.degree_out_bounds` split);
* ``comm[ℓ, q, p]`` — redistribution drain cycles of the ``q → p``
  transition into layer ``ℓ``.  The traffic matrices come from the same
  splits, the builder's need rule
  (:func:`~repro.partition.traditional.grouped_needs`) and the builder's
  traffic formula: for each consumer degree ``p``, one segment sum of the
  need table serves every producer degree ``q``.  Each layer transition's
  ``(Q, P)`` grid of drain estimates is one
  :class:`~repro.plancost.batched.BatchedDrainModel` call —

after which costing a batch of configurations is pure integer gathering:
``batch_cost`` evaluates millions of candidates per second (the e2e
``plans`` workload reports ``plancost.batch_cost.candidates_per_s``).
Degrees a layer cannot take (group alignment) cost ``inf``, so searches
avoid them for free.

Since both tables come from the degree builder's own rules, the oracle is
*exact* with respect to the scalar analytic model by construction: for any
valid config, ``cost(config)`` equals the input load plus, for each layer of
``build_degree_plan(spec, num_cores, config)``, its busiest core's
``CoreModel.compute_cycles`` plus its burst's
:func:`~repro.noc.analytical.estimate_drain_cycles` times the core/NoC clock
divider — property-tested in ``tests/plancost/`` against a scalar
reference.  The gap to the engine's cycle-level drains is what
:mod:`repro.plancost.calibrate` measures.
"""

from __future__ import annotations

import numpy as np

from ..accel.chip import ChipConfig
from ..models.spec import NetworkSpec
from ..partition.degree import degree_out_bounds, valid_degree
from ..partition.layout import _layouts_traffic, producer_layout_for
from ..partition.plan import ModelParallelPlan
from ..partition.traditional import grouped_needs, grouped_workloads
from ..sim.engine import input_load_cycles
from .batched import BatchedDrainModel, batched_compute_cycles

__all__ = ["PlanCostOracle", "candidate_degrees", "analytic_layer_cycles", "analytic_plan_cost"]


def candidate_degrees(num_cores: int) -> tuple[int, ...]:
    """Default per-layer degree candidates: the divisors of ``num_cores``.

    Divisors keep every degree mesh-tileable and cover the 1 (single core,
    zero sync traffic) .. ``num_cores`` (the traditional plan) range the
    paper's scaling study spans.
    """
    if num_cores <= 0:
        raise ValueError(f"num_cores must be positive, got {num_cores}")
    return tuple(d for d in range(1, num_cores + 1) if num_cores % d == 0)


class PlanCostOracle:
    """Batched analytic plan costs for per-layer degree assignments."""

    def __init__(
        self,
        spec: NetworkSpec,
        num_cores: int = 16,
        degrees: tuple[int, ...] | None = None,
        chip: ChipConfig | None = None,
    ) -> None:
        self.chip = chip or ChipConfig.table2(num_cores)
        if self.chip.num_cores != num_cores:
            raise ValueError(
                f"chip has {self.chip.num_cores} cores, oracle asked for {num_cores}"
            )
        self.spec = spec
        self.num_cores = num_cores
        self.layers = spec.compute_layers()
        if not self.layers:
            raise ValueError(f"{spec.name} has no compute layers")
        self.degrees = (
            tuple(sorted(set(degrees)))
            if degrees is not None
            else candidate_degrees(num_cores)
        )
        if any(not 1 <= d <= num_cores for d in self.degrees):
            raise ValueError(
                f"degrees {self.degrees} outside 1..{num_cores}"
            )
        self._index = {d: i for i, d in enumerate(self.degrees)}
        self.input_load = input_load_cycles(self.chip, self.layers[0].in_shape)
        self._drain = BatchedDrainModel(self.chip.mesh, self.chip.noc)
        self._build_tables()

    # -- table construction ------------------------------------------------------------

    def _build_tables(self) -> None:
        layers, degrees, n = self.layers, self.degrees, self.num_cores
        num_layers, num_degrees = len(layers), len(degrees)

        self.valid = np.array(
            [[valid_degree(layer, d) for d in degrees] for layer in layers]
        )
        # bounds[l][p]: the builder's padded split of layer l at each valid
        # degree, shared by the compute and comm tables.
        bounds = [
            {
                pi: degree_out_bounds(layer, d, n)
                for pi, d in enumerate(degrees)
                if self.valid[li, pi]
            }
            for li, layer in enumerate(layers)
        ]

        # compute[l, p]: the busiest of the builder's per-core workloads.
        self.compute = np.full((num_layers, num_degrees), np.inf)
        for li, layer in enumerate(layers):
            for pi, out_bounds in bounds[li].items():
                works = grouped_workloads(layer, out_bounds)
                self.compute[li, pi] = batched_compute_cycles(
                    layer,
                    [w.out_channels for w in works],
                    [w.in_channels_used for w in works],
                    self.chip.core,
                    [w.repeats for w in works],
                ).max()

        # comm[l, q, p]: redistribution drains, one batched estimate per layer
        # transition over its (Q, P) grid.  For each consumer degree p, one
        # segment sum of the need table serves every producer degree q.
        # Layer 0 reads from memory: zero row.
        divider = self.chip.noc.core_clock_divider
        bpv = self.chip.bytes_per_value
        self.comm = np.full((num_layers, num_degrees, num_degrees), np.inf)
        self.comm[0] = 0.0
        for li in range(1, num_layers):
            layer, prev = layers[li], layers[li - 1]
            qs, ps = list(bounds[li - 1]), list(bounds[li])
            if not (qs and ps):
                continue
            layouts = [producer_layout_for(layer, prev, bounds[li - 1][qi], n) for qi in qs]
            stack = np.stack(  # (Q, P, N, N)
                [_layouts_traffic(layouts, grouped_needs(layer, bounds[li][pi]), bpv) for pi in ps],
                axis=1,
            )
            self.comm[li][np.ix_(qs, ps)] = self._drain.drain_cycles(stack) * divider

    # -- costing -----------------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def degree_index(self, degree: int) -> int:
        try:
            return self._index[degree]
        except KeyError:
            raise ValueError(
                f"degree {degree} not among candidates {self.degrees}"
            ) from None

    def to_indices(self, config: tuple[int, ...]) -> np.ndarray:
        """Degree tuple -> index array into the candidate axis."""
        if len(config) != self.num_layers:
            raise ValueError(
                f"config has {len(config)} degrees for {self.num_layers} layers"
            )
        return np.asarray([self.degree_index(d) for d in config], dtype=np.int64)

    def batch_cost(self, indices: np.ndarray) -> np.ndarray:
        """Latency (core cycles) of a ``(B, L)`` batch of degree-index configs.

        Pure table gathering — no python per candidate.  Configs using a
        degree a layer cannot take cost ``inf``.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[1] != self.num_layers:
            raise ValueError(
                f"expected (B, {self.num_layers}) index array, got {idx.shape}"
            )
        layer_ax = np.arange(self.num_layers)
        total = self.compute[layer_ax, idx].sum(axis=1)
        if self.num_layers > 1:
            trans_ax = np.arange(1, self.num_layers)
            total = total + self.comm[trans_ax, idx[:, :-1], idx[:, 1:]].sum(axis=1)
        return total + self.input_load

    def cost(self, config: tuple[int, ...]) -> float:
        """Latency (core cycles) of one per-layer degree assignment."""
        return float(self.batch_cost(self.to_indices(config)[None, :])[0])


def analytic_plan_cost(plan: ModelParallelPlan, chip: ChipConfig | None = None) -> int:
    """Analytic latency of an *existing* plan, batched over its layers.

    The input load plus the sum of :func:`analytic_layer_cycles`: the
    engine's latency model with every drain replaced by its closed-form
    estimate.
    """
    chip = chip or ChipConfig.table2(plan.num_cores)
    body = int(analytic_layer_cycles(plan, chip).sum())
    load = input_load_cycles(chip, plan.layers[0].layer.in_shape) if plan.layers else 0
    return load + body


def analytic_layer_cycles(
    plan: ModelParallelPlan, chip: ChipConfig | None = None
) -> np.ndarray:
    """Analytic core cycles of each layer of an *existing* plan (int64).

    A layer costs its busiest core's compute plus the drain of its
    transition burst, one batched drain estimate over the stacked
    layer-transition matrices.  Plans are built layer by layer, so layer
    ``k``'s entry depends only on layers up to ``k``: the MCM stage-boundary
    DP reads every stage range that starts at one layer from the running
    sum over one sub-plan, without an engine run each.
    """
    chip = chip or ChipConfig.table2(plan.num_cores)
    if chip.num_cores != plan.num_cores:
        raise ValueError(
            f"plan is for {plan.num_cores} cores, chip has {chip.num_cores}"
        )
    core_model = chip.core_model()
    compute = np.array(
        [
            max((core_model.compute_cycles(w) for w in lp.workloads()), default=0)
            for lp in plan.layers
        ],
        dtype=np.int64,
    )
    if not plan.layers:
        return compute
    stack = np.stack([lp.traffic.bytes_matrix for lp in plan.layers])
    drains = BatchedDrainModel(chip.mesh, chip.noc).drain_cycles(stack)
    return compute + drains * chip.noc.core_clock_divider
