"""Training procedures: baseline training and the SS / SS_Mask recipes."""

from .sparsify import SparsifyConfig, SparsifyResult, train_sparsified
from .trainer import TrainConfig, TrainHistory, Trainer

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "Trainer",
    "SparsifyConfig",
    "SparsifyResult",
    "train_sparsified",
]
