"""Shared machinery of the experiment runners: datasets, cached training,
scheme operating-point selection.

Training jobs funnel through :func:`repro.experiments.cache.ensure_state`
(single-flight, read-through), so the same code path serves serial runs,
``pmap``-sharded lambda grids, and concurrent experiments racing on a shared
settings key (e.g. the LeNet baseline needed by both Table IV and Table VI).
Only the winning lambda's weights are materialized in the parent — grid
points report ``(traffic_rate, lam, accuracy)`` and leave their trained state
in the artifact cache for the final rebuild.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..accel.chip import ChipConfig
from ..datasets.synthetic import (
    SyntheticImageDataset,
    synthetic_cifar10,
    synthetic_imagenet10,
    synthetic_mnist,
)
from ..models.factory import (
    build_caffenet_scaled,
    build_convnet,
    build_lenet,
    build_mlp,
    build_table3_convnet,
)
from ..nn.network import Sequential
from ..parallel import pmap
from ..partition.plan import ModelParallelPlan
from ..partition.sparsified import build_sparsified_plan
from ..sim.engine import InferenceSimulator, SimConfig
from ..sim.results import SimulationResult
from ..train.sparsify import SparsifyConfig, train_sparsified
from ..train.trainer import Trainer, train_settings
from .cache import ensure_state, settings_key
from .config import ExperimentProfile

__all__ = [
    "dataset_for",
    "build_network",
    "train_baseline",
    "SchemeOutcome",
    "run_sparsified_scheme",
    "simulator_for",
    "TABLE4_NETWORKS",
]

#: Table IV benchmark set: network name -> (dataset builder kwargs applied
#: on top of the profile sizes).
TABLE4_NETWORKS = ("mlp", "lenet", "convnet", "caffenet")


def dataset_for(network: str, profile: ExperimentProfile) -> SyntheticImageDataset:
    """The synthetic stand-in dataset each benchmark network trains on."""
    sizes = {"train_size": profile.train_size, "test_size": profile.test_size}
    if network == "mlp":
        return synthetic_mnist(flat=True, seed=profile.seed, **sizes)
    if network == "lenet":
        return synthetic_mnist(flat=False, seed=profile.seed, **sizes)
    if network == "convnet":
        return synthetic_cifar10(seed=profile.seed + 1, **sizes)
    if network in ("caffenet", "table3"):
        return synthetic_imagenet10(seed=profile.seed + 2, **sizes)
    raise ValueError(f"no dataset mapping for network {network!r}")


def build_network(network: str, seed: int = 0, **kwargs) -> Sequential:
    """Trainable benchmark model by experiment name."""
    builders = {
        "mlp": build_mlp,
        "lenet": build_lenet,
        "convnet": build_convnet,
        "caffenet": build_caffenet_scaled,
        "table3": build_table3_convnet,
    }
    try:
        builder = builders[network]
    except KeyError:
        raise ValueError(f"unknown network {network!r}; known: {sorted(builders)}") from None
    return builder(seed=seed, **kwargs)


def train_baseline(
    network: str,
    profile: ExperimentProfile,
    dataset: SyntheticImageDataset | None = None,
    **build_kwargs,
) -> tuple[Sequential, float]:
    """Train (or load from cache) the dense baseline of a benchmark network.

    Single-flight across processes: when parallel experiments race on the
    same baseline (Table IV and Table VI both need LeNet's), exactly one
    trains and the rest load its artifact.
    """
    dataset = dataset or dataset_for(network, profile)
    model = build_network(network, seed=profile.seed, **build_kwargs)
    key = settings_key(
        f"baseline-{model.name}",
        {
            "profile": profile.name,
            "train": train_settings(profile.baseline),
            "train_size": profile.train_size,
            "dataset": dataset.name,
            "seed": profile.seed,
            "build": sorted(build_kwargs.items()),
        },
    )

    def train() -> dict[str, np.ndarray]:
        Trainer(model, profile.baseline).fit(dataset)
        return model.state_dict()

    state = ensure_state(key, train)
    model.load_state_dict(state)
    model.eval()
    return model, model.accuracy(dataset.x_test, dataset.y_test)


@dataclass
class SchemeOutcome:
    """Selected operating point of one sparsified scheme."""

    scheme: str
    lam: float
    accuracy: float
    plan: ModelParallelPlan
    result: SimulationResult


def simulator_for(num_cores: int, sim_config: SimConfig | None = None) -> InferenceSimulator:
    """Table II chip + engine for a core count."""
    return InferenceSimulator(ChipConfig.table2(num_cores), sim_config)


@dataclass(frozen=True)
class _GridPoint:
    """One lambda-grid training job; deliberately small to ship.

    The dataset and baseline plan are **not** fields: they are identical for
    every point of a grid, so they ride the ``pmap`` callable (a
    ``functools.partial``), which is pickled with each pool task.  Only the
    dataset's name stays here — the cache key needs it.
    """

    network: str
    scheme: str
    num_cores: int
    profile: ExperimentProfile
    lam: float
    dataset_name: str
    build_kwargs: tuple[tuple[str, object], ...]


def _grid_point_key(point: _GridPoint, model_name: str) -> str:
    """Settings key of one (scheme, lambda) training run.

    Layout is identical to the pre-parallel runner, so existing cache
    artifacts stay valid.
    """
    profile = point.profile
    return settings_key(
        f"{point.scheme}-{model_name}-c{point.num_cores}",
        {
            "profile": profile.name,
            "lam": point.lam,
            "sparsify": train_settings(profile.sparsify),
            "finetune": train_settings(profile.finetune),
            "prune": profile.prune_rms_threshold,
            "train_size": profile.train_size,
            "dataset": point.dataset_name,
            "seed": profile.seed,
            "build": sorted(point.build_kwargs),
        },
    )


def _grid_point_state(
    point: _GridPoint, model: Sequential, dataset: SyntheticImageDataset
) -> dict[str, np.ndarray]:
    """Trained weights for one grid point: cache hit or single-flight train."""

    def train() -> dict[str, np.ndarray]:
        base_model, _ = train_baseline(
            point.network, point.profile, dataset=dataset,
            **dict(point.build_kwargs),
        )
        model.load_state_dict(base_model.state_dict())
        train_sparsified(
            model,
            dataset,
            point.num_cores,
            point.scheme,
            SparsifyConfig(
                lam_g=point.lam,
                sparsify=point.profile.sparsify,
                finetune=point.profile.finetune,
                prune_rms_threshold=point.profile.prune_rms_threshold,
            ),
        )
        return model.state_dict()

    return ensure_state(_grid_point_key(point, model.name), train)


def _run_grid_point(
    point: _GridPoint,
    dataset: SyntheticImageDataset,
    baseline_plan: ModelParallelPlan,
) -> tuple[float, float, float]:
    """Evaluate one lambda: ``(traffic_rate, lam, accuracy)``.

    ``dataset`` and ``baseline_plan`` arrive bound into the ``pmap``
    callable (pickled with each task, read-only by contract).  The trained
    state stays in the artifact cache (not the return value), so a wide grid
    holds at most one state dict in memory at a time — the parent reloads
    only the winner.
    """
    model = build_network(
        point.network, seed=point.profile.seed, **dict(point.build_kwargs)
    )
    model.load_state_dict(_grid_point_state(point, model, dataset))
    model.eval()
    acc = model.accuracy(dataset.x_test, dataset.y_test)
    plan = build_sparsified_plan(model, point.num_cores, scheme=point.scheme)
    return plan.traffic_rate_vs(baseline_plan), point.lam, acc


def run_sparsified_scheme(
    network: str,
    scheme: str,
    num_cores: int,
    profile: ExperimentProfile,
    baseline_plan: ModelParallelPlan,
    dataset: SyntheticImageDataset | None = None,
    workers: int | None = None,
    **build_kwargs,
) -> SchemeOutcome:
    """Train a scheme across the profile's lambda grid and pick its operating point.

    Mirrors the paper's protocol: each scheme is pushed to the strongest
    sparsification whose accuracy stays within the profile's tolerance of the
    dense baseline; among admissible points the one with the least NoC
    traffic wins.  Falls back to the weakest lambda when nothing is
    admissible (reported as-is rather than hidden).

    Grid points are independent train-or-load jobs, sharded across worker
    processes by :func:`repro.parallel.pmap`; ``workers=1`` (or unset without
    ``$REPRO_WORKERS``) runs them serially in-process.  The shared dataset
    and baseline plan bind into the callable, which ships with each task,
    one training run per grid point.
    """
    dataset = dataset or dataset_for(network, profile)
    base_model, base_acc = train_baseline(
        network, profile, dataset=dataset, **build_kwargs
    )
    simulator = simulator_for(num_cores)

    points = [
        _GridPoint(
            network=network,
            scheme=scheme,
            num_cores=num_cores,
            profile=profile,
            lam=lam,
            dataset_name=dataset.name,
            build_kwargs=tuple(sorted(build_kwargs.items())),
        )
        for lam in profile.lam_grid
    ]
    candidates = pmap(
        functools.partial(
            _run_grid_point, dataset=dataset, baseline_plan=baseline_plan
        ),
        points,
        workers=workers,
        label=f"lam_grid.{scheme}",
    )

    admissible = [c for c in candidates if c[2] >= base_acc - profile.accuracy_tolerance]
    rate, lam, acc = min(admissible) if admissible else candidates[0]

    winner = points[[p.lam for p in points].index(lam)]
    model = build_network(network, seed=profile.seed, **build_kwargs)
    model.load_state_dict(_grid_point_state(winner, model, dataset))
    model.eval()
    plan = build_sparsified_plan(model, num_cores, scheme=scheme)
    result = simulator.simulate(plan)
    return SchemeOutcome(scheme=scheme, lam=lam, accuracy=acc, plan=plan, result=result)
