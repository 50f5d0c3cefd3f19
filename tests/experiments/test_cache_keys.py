"""Cache-key stability: training settings must not perturb existing hashes.

The keys pinned here were computed from the seed code.  Runs must keep
minting byte-identical keys so every existing ``.repro_cache`` artifact
stays valid.
"""

from __future__ import annotations

from repro.experiments.cache import settings_key
from repro.experiments.common import dataset_for
from repro.experiments.config import FAST
from repro.train.trainer import train_settings

#: Keys minted by the seed code (FAST profile, mlp, no build kwargs).
GOLDEN_BASELINE_KEY = "baseline-mlp-6041e4698ffd"
GOLDEN_GRID_KEY = "ss-mlp-c16-8a2725feb16a"


def _baseline_key(profile) -> str:
    dataset = dataset_for("mlp", profile)
    return settings_key(
        "baseline-mlp",
        {
            "profile": profile.name,
            "train": train_settings(profile.baseline),
            "train_size": profile.train_size,
            "dataset": dataset.name,
            "seed": profile.seed,
            "build": [],
        },
    )


def _grid_key(profile) -> str:
    dataset = dataset_for("mlp", profile)
    return settings_key(
        "ss-mlp-c16",
        {
            "profile": profile.name,
            "lam": 0.1,
            "sparsify": train_settings(profile.sparsify),
            "finetune": train_settings(profile.finetune),
            "prune": profile.prune_rms_threshold,
            "train_size": profile.train_size,
            "dataset": dataset.name,
            "seed": profile.seed,
            "build": [],
        },
    )


class TestDefaultDtypeKeysUnchanged:
    def test_baseline_key_matches_seed(self):
        assert _baseline_key(FAST) == GOLDEN_BASELINE_KEY

    def test_grid_point_key_matches_seed(self):
        assert _grid_key(FAST) == GOLDEN_GRID_KEY
