"""Replica groups: splitting the chip's cores between copies of the model.

The serving simulator treats the N-core mesh as ``N // group_cores``
independent **replica groups**.  Each group runs one model-parallel plan
(traditional / structure / SS / SS_Mask — anything producing a
:class:`~repro.partition.plan.ModelParallelPlan`) on a ``group_cores``-core
sub-chip; a request occupies exactly one group for the plan's single-pass
latency.  The two poles recover the paper's §I dichotomy:

* ``group_cores == N`` — pure model parallelism: one request at a time,
  minimal response time;
* ``group_cores == 1`` — pure input-level (data) parallelism: N concurrent
  requests, each at the single-core latency.

Per-request service times come from the existing single-pass engine.  One
simulation runs per *distinct plan* (memoized in-process, on top of the
engine's persistent drain-time memo), so sweeping arrival rates is free
after the first rate point.

A deliberate simplification, documented here rather than hidden: replica
groups are modeled as independent ``group_cores``-core chips (own mesh, own
memory channel).  The ``memory_channels`` knob bounds that optimism:
set to ``M``, at most ``M`` groups stream their DRAM input concurrently —
a dispatch whose channel is busy waits for the earliest channel to free
before its input load starts (compute stays independent per group).  The
default (``None``) keeps the independent-channel behavior bit-exactly.
Full memory-controller contention inside the cycle engine is still future
work — see ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel.chip import ChipConfig
from ..models.spec import NetworkSpec
from ..obs import METRICS, span
from ..partition.plan import ModelParallelPlan
from ..partition.structure import build_structure_plan
from ..partition.traditional import build_traditional_plan
from ..sim.engine import InferenceSimulator, SimConfig

__all__ = [
    "PlanService",
    "Cluster",
    "service_for_plan",
    "build_replica_plan",
    "build_spec_cluster",
    "default_group_map",
    "clear_service_memo",
]


@dataclass(frozen=True)
class PlanService:
    """Service-time profile of one plan on one replica group.

    ``input_load_cycles`` is the DRAM-fetch + on-chip-distribution time of
    one input; ``body_cycles`` everything after it.  A batch of ``k``
    requests pipelines the next input's DRAM stream behind the current
    request's compute, so only the first input load is exposed — the
    amortization the batching scheduler exploits.
    """

    model: str
    scheme: str
    cores: int
    latency_cycles: int
    input_load_cycles: int

    def __post_init__(self) -> None:
        if self.latency_cycles <= 0:
            raise ValueError(f"latency must be positive, got {self.latency_cycles}")
        if not 0 <= self.input_load_cycles <= self.latency_cycles:
            raise ValueError(
                f"input load ({self.input_load_cycles}) must be within the total "
                f"latency ({self.latency_cycles})"
            )

    @property
    def body_cycles(self) -> int:
        """Per-request cycles beyond the (amortizable) input load."""
        return self.latency_cycles - self.input_load_cycles

    def batch_cycles(self, batch_size: int) -> int:
        """Service time of ``batch_size`` back-to-back requests on one group."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return self.input_load_cycles + batch_size * self.body_cycles


#: (model, scheme, cores, per-layer plan, sim knobs) -> PlanService.  A
#: layer enters the key as its spec, its per-core workloads and its traffic
#: bytes — everything the engine reads of it — so two plans share an entry
#: only when the engine would time them identically.
_SERVICE_MEMO: dict[tuple, PlanService] = {}


def clear_service_memo() -> None:
    """Drop memoized plan services (tests, or after changing engine knobs)."""
    _SERVICE_MEMO.clear()


def service_for_plan(
    plan: ModelParallelPlan,
    sim_config: SimConfig | None = None,
    model: str | None = None,
) -> PlanService:
    """Simulate ``plan`` once (memoized) and return its service profile.

    ``model`` overrides the service's model name when the plan's own name
    carries a transformation suffix (e.g. grouped specs).
    """
    cfg = sim_config or SimConfig()
    name = model or plan.name
    key = (
        name,
        plan.scheme,
        plan.num_cores,
        tuple(
            (lp.layer, tuple(lp.core_workloads), lp.traffic.bytes_matrix.tobytes())
            for lp in plan.layers
        ),
        cfg.comm_mode,
        cfg.max_cycle_sim_flits,
        cfg.include_input_load,
    )
    hit = key in _SERVICE_MEMO
    METRICS.inc("serve.plan_sim.hit" if hit else "serve.plan_sim.miss")
    if not hit:
        chip = ChipConfig.table2(plan.num_cores)
        with span(
            "serve.plan_sim", model=name, scheme=plan.scheme, cores=plan.num_cores
        ):
            result = InferenceSimulator(chip, cfg).simulate(plan)
        _SERVICE_MEMO[key] = PlanService(
            model=name,
            scheme=plan.scheme,
            cores=plan.num_cores,
            latency_cycles=result.total_cycles,
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
    """The chip partitioned into homogeneous replica groups.

    ``services`` maps model names to the :class:`PlanService` every group
    uses for that model (each group can serve any model — weight residency
    across models is not modeled, see the module docstring).

    ``memory_channels`` caps how many groups may stream DRAM input
    concurrently (``None`` = one independent channel per group, the
    historical behavior, preserved bit-exactly).
    """

    total_cores: int
    group_cores: int
    services: dict[str, PlanService]
    scheme: str = "traditional"
    memory_channels: int | None = None

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

    def service(self, model: str) -> PlanService:
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
        """Peak sustainable rate if every group ran only ``model``."""
        return self.num_groups * 1e6 / self.service(model).latency_cycles

    def describe(self) -> str:
        return (
            f"{self.num_groups} x {self.group_cores}-core replica groups "
            f"({self.scheme}, {self.total_cores} cores)"
        )


def build_spec_cluster(
    spec: NetworkSpec,
    total_cores: int,
    group_cores: int,
    scheme: str = "traditional",
    sim_config: SimConfig | None = None,
    memory_channels: int | None = None,
) -> Cluster:
    """Cluster serving one network from its spec under a geometry-only scheme."""
    plan = build_replica_plan(spec, group_cores, scheme)
    svc = service_for_plan(plan, sim_config=sim_config, model=spec.name)
    return Cluster(
        total_cores=total_cores,
        group_cores=group_cores,
        services={spec.name: svc},
        scheme=scheme,
        memory_channels=memory_channels,
    )
