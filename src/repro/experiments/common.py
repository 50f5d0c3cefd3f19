"""Shared machinery of the experiment runners: datasets, cached training,
scheme operating-point selection.

Training jobs funnel through :func:`repro.experiments.cache.ensure_state`
(single-flight, read-through), so the same code path serves serial runs,
``pmap``-sharded lambda grids, and concurrent experiments racing on a shared
settings key (e.g. the LeNet baseline needed by both Table IV and Table VI).
No state dict leaves a grid point: each reports ``(accuracy, plan)`` — its
sparsified plan is all the parent needs of the winner, so nothing is rebuilt
or reloaded after the grid.

Each trained state is scored once.  Its test accuracy is stored beside it in
the cache as a ``{"accuracy": float}`` JSON entry under its own key (the
state key plus ``-acc``), and every later load reads that entry instead of
re-scoring the model, so a warm run scores nothing.

Datasets are lazy: :func:`dataset_for` names the dataset up front (cache keys
read the name) and generates its arrays on first access, which only training
and scoring make.  A warm run generates nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..accel.chip import ChipConfig
from ..datasets.synthetic import (
    CIFAR10_NAME,
    IMAGENET10_NAME,
    MNIST_NAME,
    SyntheticImageDataset,
    synthetic_cifar10,
    synthetic_imagenet10,
    synthetic_mnist,
)
from ..models.factory import build_model
from ..nn.network import Sequential
from ..obs import METRICS
from ..parallel import pmap
from ..partition.plan import ModelParallelPlan
from ..partition.sparsified import build_sparsified_plan
from ..sim.engine import InferenceSimulator
from ..sim.results import SimulationResult
from ..train.sparsify import SparsifyConfig, train_sparsified
from ..train.trainer import Trainer, train_settings
from .cache import ensure_json, ensure_state, save_json, settings_key
from .config import ExperimentProfile

__all__ = [
    "LazyDataset",
    "dataset_for",
    "train_baseline",
    "SchemeOutcome",
    "run_sparsified_scheme",
    "simulator_for",
    "TABLE4_NETWORKS",
]

#: Table IV benchmark set: network name -> (dataset builder kwargs applied
#: on top of the profile sizes).
TABLE4_NETWORKS = ("mlp", "lenet", "convnet", "caffenet")


class LazyDataset:
    """A synthetic dataset named up front, generated on first array access.

    ``build`` is a picklable zero-argument builder (a ``functools.partial``
    of a ``synthetic_*`` function).  Until an array is read, the dataset
    pickles as its name and builder, so it ships to pool tasks without its
    arrays; once generated, it pickles with them.
    """

    def __init__(self, name: str, build: Callable[[], SyntheticImageDataset]) -> None:
        self.name = name
        self._build = build

    @functools.cached_property
    def data(self) -> SyntheticImageDataset:
        """The generated dataset (generated here, once)."""
        return self._build()

    x_train = property(lambda self: self.data.x_train)
    y_train = property(lambda self: self.data.y_train)
    x_test = property(lambda self: self.data.x_test)
    y_test = property(lambda self: self.data.y_test)


def dataset_for(network: str, profile: ExperimentProfile) -> LazyDataset:
    """The synthetic stand-in dataset each benchmark network trains on."""
    sizes = {"train_size": profile.train_size, "test_size": profile.test_size}
    if network in ("mlp", "lenet"):
        name, build = MNIST_NAME, functools.partial(
            synthetic_mnist, flat=network == "mlp", seed=profile.seed, **sizes
        )
    elif network == "convnet":
        name, build = CIFAR10_NAME, functools.partial(
            synthetic_cifar10, seed=profile.seed + 1, **sizes
        )
    elif network in ("caffenet", "table3"):
        name, build = IMAGENET10_NAME, functools.partial(
            synthetic_imagenet10, seed=profile.seed + 2, **sizes
        )
    else:
        raise ValueError(f"no dataset mapping for network {network!r}")
    return LazyDataset(name, build)


def _accuracy_key(state_key: str, suffix: str = "acc") -> str:
    """Cache key of a stored test accuracy of ``state_key``'s state.

    ``suffix`` names the datapath scored: ``acc`` for the float model,
    ``fixed16`` for the cores' 16-bit fixed-point datapath.  A key of its
    own, because :func:`ensure_state` and :func:`ensure_json` both claim
    ``<key>.lock``: on the state's key, a score claimed while the state's
    claim is held would wait on itself.
    """
    return f"{state_key}-{suffix}"


def _stored_accuracy(
    state_key: str, score: Callable[[], float], suffix: str = "acc"
) -> float:
    """A stored test accuracy of a trained state; ``score`` only on a miss.

    ``score`` runs when the entry is missing or unreadable — a cache written
    before scores were stored, or a corrupt entry — and its result is stored.
    """
    entry = ensure_json(
        _accuracy_key(state_key, suffix), lambda: {"accuracy": score()}
    )
    return entry["accuracy"]


def _baseline_key(
    model: Sequential, profile: ExperimentProfile, dataset: LazyDataset,
    build_kwargs: dict,
) -> str:
    """Settings key of a dense baseline's trained state."""
    return settings_key(
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


def train_baseline(
    network: str,
    profile: ExperimentProfile,
    dataset: LazyDataset | None = None,
    **build_kwargs,
) -> tuple[Sequential, float]:
    """Train (or load from cache) the dense baseline of a benchmark network.

    Single-flight across processes: when parallel experiments race on the
    same baseline (Table IV and Table VI both need LeNet's), exactly one
    trains and the rest load its artifact.  The returned test accuracy is
    the state's stored score: the loaded model is scored only when the cache
    holds no readable score for it (the cold path, or a cache written before
    scores were stored).
    """
    dataset = dataset or dataset_for(network, profile)
    model = build_model(network, seed=profile.seed, **build_kwargs)
    key = _baseline_key(model, profile, dataset, build_kwargs)

    def train() -> dict[str, np.ndarray]:
        Trainer(model, profile.baseline).fit(dataset)
        return model.state_dict()

    state = ensure_state(key, train)
    model.load_state_dict(state)
    model.eval()
    accuracy = _stored_accuracy(
        key, lambda: model.accuracy(dataset.x_test, dataset.y_test)
    )
    return model, accuracy


@dataclass
class SchemeOutcome:
    """Selected operating point of one sparsified scheme."""

    scheme: str
    lam: float
    accuracy: float
    plan: ModelParallelPlan
    result: SimulationResult


def simulator_for(num_cores: int) -> InferenceSimulator:
    """Table II chip + engine for a core count."""
    return InferenceSimulator(ChipConfig.table2(num_cores))


@dataclass(frozen=True)
class _GridPoint:
    """One lambda-grid training job; deliberately small to ship.

    The dataset is **not** a field: it is identical for every point of a
    grid, so it rides the ``pmap`` callable (a ``functools.partial``), which
    is pickled with each pool task.  Only the dataset's name stays here —
    the cache key needs it.  ``mask_exponent`` is SS_Mask's distance
    exponent; the mask-exponent ablation is the only caller that moves it
    off 1.0.
    """

    network: str
    scheme: str
    num_cores: int
    profile: ExperimentProfile
    lam: float
    dataset_name: str
    build_kwargs: tuple[tuple[str, object], ...] = ()
    mask_exponent: float = 1.0


def _grid_point_key(point: _GridPoint, model_name: str) -> str:
    """Settings key of one (scheme, lambda) training run.

    Layout is identical to the pre-parallel runner, so existing cache
    artifacts stay valid; the mask exponent joins the settings only when it
    is not the default 1.0, so every default point keeps its key.
    """
    profile = point.profile
    settings = {
        "profile": profile.name,
        "lam": point.lam,
        "sparsify": train_settings(profile.sparsify),
        "finetune": train_settings(profile.finetune),
        "prune": profile.prune_rms_threshold,
        "train_size": profile.train_size,
        "dataset": point.dataset_name,
        "seed": profile.seed,
        "build": sorted(point.build_kwargs),
    }
    if point.mask_exponent != 1.0:
        settings["mask_exponent"] = point.mask_exponent
    return settings_key(f"{point.scheme}-{model_name}-c{point.num_cores}", settings)


def _grid_point_state(
    point: _GridPoint, model: Sequential, dataset: LazyDataset
) -> dict[str, np.ndarray]:
    """Trained weights for one grid point: cache hit or single-flight train.

    Training stores the closing test accuracy of :func:`train_sparsified`
    before the state itself, so a process waiting on the state's claim finds
    the score too.
    """
    key = _grid_point_key(point, model.name)

    def train() -> dict[str, np.ndarray]:
        base_model, _ = train_baseline(
            point.network, point.profile, dataset=dataset,
            **dict(point.build_kwargs),
        )
        model.load_state_dict(base_model.state_dict())
        result = train_sparsified(
            model,
            dataset,
            point.num_cores,
            point.scheme,
            SparsifyConfig(
                lam_g=point.lam,
                sparsify=point.profile.sparsify,
                finetune=point.profile.finetune,
                prune_rms_threshold=point.profile.prune_rms_threshold,
                mask_exponent=point.mask_exponent,
            ),
        )
        save_json(_accuracy_key(key), {"accuracy": result.accuracy})
        return model.state_dict()

    return ensure_state(key, train)


def _run_grid_point(
    point: _GridPoint, dataset: LazyDataset
) -> tuple[float, ModelParallelPlan]:
    """One lambda's ``(accuracy, sparsified plan)``.

    ``dataset`` arrives bound into the ``pmap`` callable (pickled with each
    task, read-only by contract).  The trained state stays in the artifact
    cache, not the return value, so a wide grid holds at most one state dict
    in memory at a time; the plan carries everything the caller needs of
    the winner.  ``accuracy`` is the point's stored score, written when it
    trained; the loaded model is scored only when that entry is missing or
    unreadable.
    """
    model = build_model(
        point.network, seed=point.profile.seed, **dict(point.build_kwargs)
    )
    model.load_state_dict(_grid_point_state(point, model, dataset))
    model.eval()
    acc = _stored_accuracy(
        _grid_point_key(point, model.name),
        lambda: model.accuracy(dataset.x_test, dataset.y_test),
    )
    return acc, build_sparsified_plan(model, point.num_cores, scheme=point.scheme)


def run_sparsified_scheme(
    network: str,
    scheme: str,
    num_cores: int,
    profile: ExperimentProfile,
    baseline_plan: ModelParallelPlan,
    baseline_accuracy: float,
    dataset: LazyDataset | None = None,
    workers: int | None = None,
    **build_kwargs,
) -> SchemeOutcome:
    """Train a scheme across the profile's lambda grid and pick its operating point.

    Mirrors the paper's protocol: each scheme is pushed to the strongest
    sparsification whose accuracy stays within the profile's tolerance of the
    dense baseline (``baseline_accuracy``, the caller's stored score); among
    admissible points the one with the least NoC traffic wins.  When nothing
    is admissible it falls back to the grid's first lambda and counts
    ``experiments.operating_point.fallback{scheme=}`` in the global metrics
    registry.

    Grid points are independent train-or-load jobs, sharded across worker
    processes by :func:`repro.parallel.pmap`; ``workers=1`` (or unset) runs
    them serially in-process.  The shared dataset binds into the callable,
    which ships with each task, one training run per grid point; each task
    returns its plan, and the winner's is the one simulated.
    """
    dataset = dataset or dataset_for(network, profile)
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
    outcomes = pmap(
        functools.partial(_run_grid_point, dataset=dataset),
        points,
        workers=workers,
        label=f"lam_grid.{scheme}",
    )
    candidates = [
        (plan.traffic_rate_vs(baseline_plan), point.lam, acc)
        for point, (acc, plan) in zip(points, outcomes)
    ]
    floor = baseline_accuracy - profile.accuracy_tolerance
    admissible = [i for i, c in enumerate(candidates) if c[2] >= floor]
    if admissible:
        best = min(admissible, key=candidates.__getitem__)
    else:
        METRICS.inc("experiments.operating_point.fallback", scheme=scheme)
        best = 0

    _, lam, acc = candidates[best]
    plan = outcomes[best][1]
    result = simulator_for(num_cores).simulate(plan)
    return SchemeOutcome(scheme=scheme, lam=lam, accuracy=acc, plan=plan, result=result)
