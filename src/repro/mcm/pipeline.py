"""Per-chip pipeline stages: contiguous layer ranges, intra-layer inside.

:func:`balanced_stage_split` packs consecutive compute layers into
MAC-balanced stages, and :func:`build_mcm_plan` places them on chips in
snake order (consecutive stages one chip hop apart).  Every stage is
internally an intra-layer partition plan (the paper's own scheme) over the
chip's full core mesh, so the pipeline only pays the inter-chip hand-off.

The same model times §II.B's rejected alternative, layer pipelining on one
CMP: an MCM of one-core chips joined by
:meth:`~repro.mcm.topology.InterChipLink.match_noc` runs each stage whole
on one core and hands activations over at the on-chip NoC's rate
(``run_pipeline_ablation`` in :mod:`repro.experiments.ablations`).

Activation bytes crossing a stage boundary are charged exactly once, at
:meth:`~repro.mcm.topology.InterChipLink.transfer_cycles` cost — never at
the on-chip NoC rate; the intra-stage plans carry no cross-stage traffic
because each stage's sub-spec starts at its own first layer (whose input
arrives over the inter-chip link, exactly like the first layer of a
single-chip plan reads from memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..models.spec import LayerSpec, NetworkSpec
from ..partition.plan import ModelParallelPlan
from .topology import McmTopology

__all__ = ["McmStage", "McmPipelinePlan", "balanced_stage_split", "build_mcm_plan"]

#: Activation width on the inter-chip wire (16-bit fixed point, as on-chip).
_BYTES_PER_VALUE = 2


def balanced_stage_split(
    layers: list[LayerSpec], num_stages: int
) -> list[list[LayerSpec]]:
    """Pack contiguous layers into stages, greedily balancing MACs.

    Walks the layer list accumulating MACs and closes a stage when it reaches
    the ideal per-stage share, while leaving at least one layer for each
    remaining stage.  Empty trailing stages are produced when there are fewer
    layers than stages (cores idle — part of the scheme's inefficiency).
    """
    if num_stages <= 0:
        raise ValueError(f"num_stages must be positive, got {num_stages}")
    total = sum(l.macs for l in layers)
    stages: list[list[LayerSpec]] = [[] for _ in range(num_stages)]
    if not layers:
        return stages
    target = total / num_stages
    stage = 0
    acc = 0
    for i, layer in enumerate(layers):
        remaining_layers = len(layers) - i
        remaining_stages = num_stages - stage
        if stages[stage] and remaining_stages > 1:
            # Close the stage when layers are running out relative to the
            # stages left (each remaining layer then gets its own stage), or
            # when adding this layer would land farther from the per-stage
            # MAC target than closing now does.
            running_out = remaining_layers < remaining_stages
            closing_better = abs(acc + layer.macs - target) > abs(acc - target)
            if running_out or closing_better:
                stage += 1
                acc = 0
        stages[stage].append(layer)
        acc += layer.macs
    return stages


@dataclass
class McmStage:
    """A contiguous run of compute layers assigned to one chip."""

    index: int
    chip: int
    layers: list[LayerSpec] = field(default_factory=list)
    plan: ModelParallelPlan | None = None

    def __post_init__(self) -> None:
        if bool(self.layers) != (self.plan is not None):
            raise ValueError(
                f"stage {self.index}: plan must be present iff the stage has layers"
            )

    @property
    def macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def output_bytes(self) -> int:
        """Activation bytes handed to the next stage's chip."""
        if not self.layers:
            return 0
        return self.layers[-1].output_volume * _BYTES_PER_VALUE


@dataclass
class McmPipelinePlan:
    """A network mapped as per-chip pipeline stages across an MCM."""

    name: str
    scheme: str
    topology: McmTopology
    stages: list[McmStage]

    def __post_init__(self) -> None:
        if len(self.stages) != self.topology.num_chips:
            raise ValueError(
                f"{len(self.stages)} stages for {self.topology.num_chips} chips"
            )

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def occupied_stages(self) -> int:
        return sum(1 for s in self.stages if s.layers)

    def transfer_hops(self, index: int) -> int:
        """Chip hops from stage ``index`` to stage ``index + 1``."""
        if not 0 <= index < self.num_stages - 1:
            raise ValueError(f"no boundary after stage {index} of {self.num_stages}")
        return self.topology.chip_hops(self.stages[index].chip, self.stages[index + 1].chip)

    def inbound_transfer_cycles(self) -> list[int]:
        """Per-stage inbound inter-chip transfer cost, in core cycles.

        Stage 0 reads its input from memory (charged by the stage plan's
        own input load, like any single-chip run), so its inbound transfer
        is 0; stage ``i > 0`` pays its predecessor's ``output_bytes`` over
        the chip-mesh route — once, on the inter-chip link.
        """
        link = self.topology.link
        transfers = [0]
        for i in range(self.num_stages - 1):
            transfers.append(
                link.transfer_cycles(self.stages[i].output_bytes, self.transfer_hops(i))
            )
        return transfers


def stage_subspec(spec: NetworkSpec, index: int, layers: list[LayerSpec]) -> NetworkSpec:
    """A stage's layer range as a standalone spec for the plan builders.

    The sub-spec's input shape is the first stage layer's input, so the
    intra-layer plan treats the inbound activations exactly like a network
    input: streamed in, not fetched over the (intra-chip) NoC.
    """
    if not layers:
        raise ValueError("cannot build a sub-spec for an empty stage")
    return NetworkSpec(
        name=f"{spec.name}::stage{index}",
        input_shape=layers[0].in_shape,
        layers=list(layers),
    )


def build_mcm_plan(
    spec: NetworkSpec,
    topology: McmTopology,
    scheme: str = "traditional",
    split: list[list[LayerSpec]] | None = None,
) -> McmPipelinePlan:
    """Contiguous layer ranges, one per chip, in snake order.

    ``split`` defaults to the MAC-balanced :func:`balanced_stage_split`; the
    stage-boundary DP (:func:`repro.search.search_stage_split`) passes its
    own split.  Each non-empty stage gets an intra-layer plan over the chip's
    ``cores_per_chip`` cores via the same builder the serving cluster uses
    (``traditional`` or ``structure``; structure grouping is applied per
    stage sub-spec).  Networks with fewer compute layers than chips leave
    trailing chips empty — they add neither compute nor transfer cost.
    """
    # Lazy: repro.serve imports repro.mcm at module scope, not vice versa.
    from ..serve.cluster import build_replica_plan

    if split is None:
        split = balanced_stage_split(spec.compute_layers(), topology.num_chips)
    elif len(split) != topology.num_chips:
        raise ValueError(
            f"split has {len(split)} stages for {topology.num_chips} chips"
        )
    order = topology.snake_order()
    stages = []
    for i, layers in enumerate(split):
        plan = None
        if layers:
            plan = build_replica_plan(
                stage_subspec(spec, i, layers), topology.cores_per_chip, scheme
            )
        stages.append(McmStage(index=i, chip=order[i], layers=list(layers), plan=plan))
    return McmPipelinePlan(name=spec.name, scheme=scheme, topology=topology, stages=stages)
