"""The SS and SS_Mask training recipes (§IV.C, Table IV).

Both schemes fine-tune a pretrained dense baseline with group Lasso over the
core-block partition of every sparsifiable weight tensor:

* **SS** — every off-diagonal block shares one sparsity strength
  (``uniform_strength``); the network learns *some* communication-reduced
  structure, blind to where the cores sit in the mesh.
* **SS_Mask** — each block's strength scales with the NoC hop distance
  between producer and consumer core (``distance_strength_mask``), so the
  blocks that would cause long-distance traffic are pruned first and the
  surviving traffic stays between adjacent cores.

After the group-Lasso phase, blocks whose RMS magnitude fell below the prune
threshold are hard-zeroed, the zero pattern is frozen, and the network is
fine-tuned to recover accuracy — the standard prune-and-finetune protocol of
Wen et al. (2016), which the paper builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.synthetic import SyntheticImageDataset
from ..nn.network import Sequential
from ..nn.regularizers import GroupLassoRegularizer
from ..nn.sparsity import CoreBlockPartition
from ..partition.distance import distance_strength_mask, uniform_strength
from ..partition.sparsified import layer_block_partitions
from .trainer import TrainConfig, Trainer, TrainHistory

__all__ = ["SparsifyConfig", "SparsifyResult", "train_sparsified"]


@dataclass(frozen=True)
class SparsifyConfig:
    """Hyper-parameters of the sparsify-and-finetune protocol."""

    lam_g: float = 2e-4  # group-Lasso weight (lambda_g in eq. 1)
    sparsify: TrainConfig = field(
        default_factory=lambda: TrainConfig(epochs=8, lr=0.02)
    )
    finetune: TrainConfig = field(
        default_factory=lambda: TrainConfig(epochs=4, lr=0.01)
    )
    prune_rms_threshold: float = 1e-3
    mask_exponent: float = 1.0  # distance exponent for SS_Mask

    def __post_init__(self) -> None:
        if self.lam_g < 0:
            raise ValueError(f"lam_g must be non-negative, got {self.lam_g}")
        if self.prune_rms_threshold < 0:
            raise ValueError("prune_rms_threshold must be non-negative")


@dataclass
class SparsifyResult:
    """Outcome of one sparsified-training run."""

    model: Sequential
    partitions: dict[str, CoreBlockPartition]
    sparsify_history: TrainHistory
    finetune_history: TrainHistory
    pruned_blocks: dict[str, np.ndarray]  # per-parameter (P, P) bool masks
    accuracy: float

    @property
    def offdiag_zero_fraction(self) -> float:
        """Mean fraction of off-diagonal blocks pruned across parameters."""
        fracs = []
        for name, partition in self.partitions.items():
            p = partition.num_cores
            off = ~np.eye(p, dtype=bool)
            fracs.append(float(np.mean(self.pruned_blocks[name][off])))
        return float(np.mean(fracs)) if fracs else 0.0


def _strength_matrix(scheme: str, num_cores: int, exponent: float) -> np.ndarray:
    if scheme == "ss":
        return uniform_strength(num_cores)
    if scheme == "ss_mask":
        return distance_strength_mask(num_cores, exponent=exponent)
    raise ValueError(f"scheme must be 'ss' or 'ss_mask', got {scheme!r}")


def train_sparsified(
    model: Sequential,
    dataset: SyntheticImageDataset,
    num_cores: int,
    scheme: str,
    config: SparsifyConfig | None = None,
    verbose: bool = False,
) -> SparsifyResult:
    """Run the full sparsify-prune-finetune protocol on a pretrained model.

    ``model`` is modified in place (train on a copy via ``load_state_dict``
    when the original must be preserved).  ``scheme`` selects between the
    uniform-strength **SS** and distance-masked **SS_Mask** variants.
    """
    config = config or SparsifyConfig()
    partitions = layer_block_partitions(model, num_cores)
    if not partitions:
        raise ValueError(
            f"model {model.name!r} has no sparsifiable layers for {num_cores} cores"
        )
    strength = _strength_matrix(scheme, num_cores, config.mask_exponent)
    regularizer = GroupLassoRegularizer(partitions, lam=config.lam_g, strength=strength)

    # Phase 1: group-Lasso training with proximal steps (drives exact zeros).
    trainer = Trainer(model, config.sparsify, regularizer=regularizer, use_prox=True)
    sparsify_history = trainer.fit(dataset, verbose=verbose)

    # Phase 2: hard-prune low-RMS blocks (diagonal protected: it carries no
    # communication cost, so zeroing it buys nothing and costs accuracy).
    pruned: dict[str, np.ndarray] = {}
    for name, partition in partitions.items():
        param = model.get_parameter(name)
        pruned[name] = partition.prune_blocks(
            param.data, config.prune_rms_threshold, protect_diagonal=True
        )

    # Phase 3: fine-tune with the zero pattern frozen.
    keep_masks = {name: ~mask for name, mask in pruned.items()}

    def freeze_zeros(m: Sequential) -> None:
        for pname, keep in keep_masks.items():
            partitions[pname].apply_block_mask(m.get_parameter(pname).data, keep)

    freeze_zeros(model)
    finetune_trainer = Trainer(model, config.finetune, post_step=freeze_zeros)
    finetune_history = finetune_trainer.fit(dataset, verbose=verbose)

    return SparsifyResult(
        model=model,
        partitions=partitions,
        sparsify_history=sparsify_history,
        finetune_history=finetune_history,
        pruned_blocks=pruned,
        accuracy=model.accuracy(dataset.x_test, dataset.y_test),
    )

