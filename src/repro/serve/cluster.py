"""Replica groups: the one deployment model of the serving layer.

The serving simulator splits a chip's (or an MCM package's) cores into
``num_groups`` identical **replica groups**.  Each group serves one request
or batch at a time through a :class:`~repro.mcm.service.PipelineService`,
a pipeline of one or more stages with one stage per chip.  One model spans
the deployments the paper weighs (§I, §II.B) and Scope's pipelines x
replicas composition (PAPERS.md):

* ``group_cores == total_cores`` on one chip — pure model parallelism: one
  request at a time, minimal response time;
* ``group_cores == 1`` — pure input-level (data) parallelism: N concurrent
  requests, each at the single-core latency;
* groups of ``stages`` chips on an MCM (:func:`build_mcm_cluster`) —
  contiguous layer ranges pipelined across chips, replicated ``chips //
  stages`` times.

A single-chip group is the one-stage case: :func:`service_for_plan`
simulates a model-parallel plan (traditional / structure / SS / SS_Mask —
anything producing a :class:`~repro.partition.plan.ModelParallelPlan`) once,
memoized in-process on top of the engine's persistent drain-time memo, so
sweeping arrival rates is free after the first rate point.  A group
accepts its next batch once its front stage drains (``occupancy_cycles``)
and completes at most one request per ``interval_cycles``; with one stage
both coincide with the batch's completion.  Capacity is therefore
``num_groups * 1e6 / max(occupancy_cycles(1), interval_cycles)`` requests
per megacycle for every layout.

A deliberate simplification, documented here rather than hidden: replica
groups are modeled as independent chips (own mesh, own memory channel).
The ``memory_channels`` knob bounds that optimism: set to ``M``, at most
``M`` groups stream their DRAM input concurrently — a dispatch whose
channel is busy waits for the earliest channel to free before its input
load starts (compute stays independent per group).  The default (``None``)
keeps the independent-channel behavior bit-exactly.  Full memory-controller
contention inside the cycle engine is still future work — see ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel.chip import ChipConfig
from ..mcm.pipeline import McmPipelinePlan, build_mcm_plan
from ..mcm.service import PipelineService, mcm_service
from ..mcm.topology import InterChipLink, McmTopology
from ..models.spec import NetworkSpec
from ..obs import METRICS, span
from ..partition.plan import ModelParallelPlan
from ..partition.structure import build_structure_plan
from ..partition.traditional import build_traditional_plan
from ..sim.engine import InferenceSimulator

__all__ = [
    "Cluster",
    "service_for_plan",
    "build_replica_plan",
    "build_spec_cluster",
    "build_mcm_cluster",
    "default_group_map",
    "clear_service_memo",
]


#: (model, scheme, cores, per-layer plan) -> one-stage service.  A layer
#: enters the key as its spec, its per-core workloads and its traffic bytes —
#: everything the engine reads of it — so two plans share an entry only when
#: the engine would time them identically.
_SERVICE_MEMO: dict[tuple, PipelineService] = {}


def clear_service_memo() -> None:
    """Drop memoized plan services (tests)."""
    _SERVICE_MEMO.clear()


def service_for_plan(plan: ModelParallelPlan, model: str | None = None) -> PipelineService:
    """Simulate ``plan`` once (memoized) and return its one-stage service.

    The stage is everything after the input load, so a batch of ``k``
    requests costs ``input_load + k * stage``: the next input's DRAM stream
    pipelines behind the current request's compute, the amortization the
    batching scheduler exploits.  ``model`` overrides the service's model
    name when the plan's own name carries a transformation suffix (e.g.
    grouped specs).
    """
    name = model or plan.name
    key = (
        name,
        plan.scheme,
        plan.num_cores,
        tuple(
            (lp.layer, tuple(lp.core_workloads), lp.traffic.bytes_matrix.tobytes())
            for lp in plan.layers
        ),
    )
    hit = key in _SERVICE_MEMO
    METRICS.inc("serve.plan_sim.hit" if hit else "serve.plan_sim.miss")
    if not hit:
        chip = ChipConfig.table2(plan.num_cores)
        with span(
            "serve.plan_sim", model=name, scheme=plan.scheme, cores=plan.num_cores
        ):
            result = InferenceSimulator(chip).simulate(plan)
        _SERVICE_MEMO[key] = PipelineService(
            model=name,
            scheme=plan.scheme,
            chips=1,
            cores_per_chip=plan.num_cores,
            stage_cycles=(result.total_cycles - result.input_load_cycles,),
            transfer_cycles=(0,),
            input_load_cycles=result.input_load_cycles,
        )
    return _SERVICE_MEMO[key]


def default_group_map(spec: NetworkSpec, groups: int) -> dict[str, int]:
    """Conv layers (beyond the first) that can be split into ``groups``.

    Mirrors the paper's structure-level recipe: the input-facing conv layer
    is never grouped (its few input channels rarely divide, and grouping it
    would sever the raw input), and a layer qualifies only when both channel
    counts divide evenly.
    """
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    grouped: dict[str, int] = {}
    seen_conv = False
    for layer in spec.compute_layers():
        if layer.kind != "conv":
            continue
        if not seen_conv:
            seen_conv = True
            continue
        if layer.in_channels % groups == 0 and layer.out_channels % groups == 0:
            grouped[layer.name] = groups
    return grouped


def build_replica_plan(
    spec: NetworkSpec, group_cores: int, scheme: str = "traditional"
) -> ModelParallelPlan:
    """A replica group's plan for ``spec`` under a geometry-only scheme.

    ``traditional`` broadcasts between layers; ``structure`` first groups
    every eligible conv layer ``group_cores``-ways (:func:`default_group_map`).
    Trained schemes (SS / SS_Mask) carry weights, so they are built from a
    model via :func:`repro.partition.build_sparsified_plan` and passed to
    :class:`Cluster` / :func:`service_for_plan` directly.
    """
    if scheme == "traditional":
        return build_traditional_plan(spec, group_cores)
    if scheme == "structure":
        return build_structure_plan(
            spec, group_cores, group_map=default_group_map(spec, group_cores) or None
        )
    raise ValueError(
        f"unknown geometry-only scheme {scheme!r}; build trained plans "
        "(ss/ss_mask) with repro.partition.build_sparsified_plan instead"
    )


@dataclass
class Cluster:
    """The chip (or MCM package) partitioned into homogeneous replica groups.

    ``services`` maps model names to the :class:`PipelineService` every
    group uses for that model (each group can serve any model — weight
    residency across models is not modeled, see the module docstring).
    ``plans`` holds the MCM pipeline plan behind each service of a
    multi-chip cluster (empty for single-chip groups).

    ``memory_channels`` caps how many groups may stream DRAM input
    concurrently (``None`` = one independent channel per group).
    """

    total_cores: int
    group_cores: int
    services: dict[str, PipelineService]
    scheme: str = "traditional"
    memory_channels: int | None = None
    plans: dict[str, McmPipelinePlan] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.total_cores <= 0 or self.group_cores <= 0:
            raise ValueError("core counts must be positive")
        if self.memory_channels is not None and self.memory_channels <= 0:
            raise ValueError(
                f"memory_channels must be positive, got {self.memory_channels}"
            )
        if self.total_cores % self.group_cores:
            raise ValueError(
                f"{self.group_cores}-core groups do not tile {self.total_cores} cores"
            )
        if not self.services:
            raise ValueError("cluster needs at least one model service")
        for name, svc in self.services.items():
            if svc.cores != self.group_cores:
                raise ValueError(
                    f"service {name!r} simulated for {svc.cores} cores, "
                    f"groups have {self.group_cores}"
                )

    @property
    def num_groups(self) -> int:
        return self.total_cores // self.group_cores

    @property
    def stages(self) -> int:
        """Pipeline stages (chips) per replica group; 1 for a single chip."""
        return max(svc.stage_count for svc in self.services.values())

    def service(self, model: str) -> PipelineService:
        try:
            return self.services[model]
        except KeyError:
            raise KeyError(
                f"no service for model {model!r}; cluster serves {sorted(self.services)}"
            ) from None

    def unloaded_latency(self, model: str) -> int:
        """Queue-free response time of one request."""
        return self.service(model).latency_cycles

    def capacity_per_megacycle(self, model: str) -> float:
        """Peak sustainable rate if every group ran only ``model``: a group
        takes a request once its front drains and completes one per
        interval."""
        svc = self.service(model)
        return self.num_groups * 1e6 / max(svc.occupancy_cycles(1), svc.interval_cycles)

    def describe(self) -> str:
        if self.stages == 1:
            return (
                f"{self.num_groups} x {self.group_cores}-core replica groups "
                f"({self.scheme}, {self.total_cores} cores)"
            )
        return (
            f"{self.num_groups} x {self.stages}-chip pipelines "
            f"({self.scheme}, {self.group_cores // self.stages} cores/chip, "
            f"{self.total_cores} cores)"
        )


def build_spec_cluster(
    spec: NetworkSpec,
    total_cores: int,
    group_cores: int,
    scheme: str = "traditional",
    memory_channels: int | None = None,
) -> Cluster:
    """Cluster serving one network from its spec under a geometry-only scheme."""
    plan = build_replica_plan(spec, group_cores, scheme)
    svc = service_for_plan(plan, model=spec.name)
    return Cluster(
        total_cores=total_cores,
        group_cores=group_cores,
        services={spec.name: svc},
        scheme=scheme,
        memory_channels=memory_channels,
    )


def build_mcm_cluster(
    spec: NetworkSpec,
    chips: int,
    cores_per_chip: int = 16,
    stages: int | None = None,
    scheme: str = "traditional",
    link: InterChipLink | None = None,
    memory_channels: int | None = None,
    stage_split: str = "balanced",
) -> Cluster:
    """Serve one network from an MCM of ``chips`` chips.

    ``stages`` chips form one pipeline (default: all of them — a single
    package-wide pipeline); ``chips // stages`` pipelines serve in
    parallel as replica groups.  ``stage_split`` picks the layer packing:
    ``"balanced"`` (MAC-balanced, the default) or ``"searched"`` — the
    stage-boundary DP of :func:`repro.search.search_stage_split`, which is
    never worse than balanced on the measured interval.
    """
    if chips <= 0:
        raise ValueError(f"chips must be positive, got {chips}")
    stages = chips if stages is None else stages
    if stages <= 0 or chips % stages:
        raise ValueError(f"--stages {stages} does not tile {chips} chips")
    topology = McmTopology.build(stages, cores_per_chip, link=link)
    if stage_split == "searched":
        # Lazy: repro.search imports repro.serve helpers at call time.
        from ..search import search_stage_split

        result = search_stage_split(spec, topology, scheme)
        plan, svc = result.plan, result.service
    elif stage_split == "balanced":
        plan = build_mcm_plan(spec, topology, scheme)
        svc = mcm_service(plan, model=spec.name)
    else:
        raise ValueError(
            f"stage_split must be 'balanced' or 'searched', got {stage_split!r}"
        )
    return Cluster(
        total_cores=chips * cores_per_chip,
        group_cores=topology.total_cores,
        services={spec.name: svc},
        scheme=scheme,
        memory_channels=memory_channels,
        plans={spec.name: plan},
    )
