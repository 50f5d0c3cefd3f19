"""A warm re-run answers from the cache.

Once a cold ``run_all(FAST)`` has filled the artifact cache, re-running it
(in-process memo dropped, as a new command would) generates no dataset,
trains nothing, scores nothing and runs no cycle-level NoC drain, builds one
model per cached state it loads, and renders the same tables.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticImageDataset, synthetic_mnist
from repro.experiments.cache import clear_memo
from repro.experiments.common import dataset_for
from repro.experiments.config import FAST
from repro.experiments.runner import EXPERIMENTS, run_all, run_one
from repro.experiments.table6 import run_table6
from repro.nn.network import Sequential
from repro.noc.network import NoCSimulator
from repro.obs import METRICS
from repro.train.trainer import Trainer

#: The work a warm run must leave to the cache.
CACHED_WORK = ("generate", "fit", "accuracy", "noc_run")


def _spy(mp: pytest.MonkeyPatch, calls: Counter, owner, attr: str, label: str) -> None:
    """Count every call of ``owner.attr`` under ``label``."""
    raw = owner.__dict__[attr]
    static = isinstance(raw, staticmethod)
    fn = raw.__func__ if static else raw

    def counting(*args, **kwargs):
        calls[label] += 1
        return fn(*args, **kwargs)

    mp.setattr(owner, attr, staticmethod(counting) if static else counting)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Cold ``run_all(FAST)`` tables, then warm tables and call counts per experiment."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("warm_path")))
        clear_memo()
        cold = run_all(FAST, workers=1)
        clear_memo()
        calls: Counter = Counter()
        with pytest.MonkeyPatch.context() as spies:
            _spy(spies, calls, SyntheticImageDataset, "generate", "generate")
            _spy(spies, calls, Trainer, "fit", "fit")
            _spy(spies, calls, Sequential, "accuracy", "accuracy")
            _spy(spies, calls, NoCSimulator, "run", "noc_run")
            _spy(spies, calls, Sequential, "__init__", "build")
            warm, counts = {}, {}
            for name in EXPERIMENTS:
                calls.clear()
                warm[name] = run_one(name, FAST, workers=1)
                counts[name] = Counter(calls)
        yield cold, warm, counts
    clear_memo()


class TestWarmRunAll:
    def test_warm_run_generates_trains_scores_and_drains_nothing(self, runs):
        _, _, counts = runs
        leftover = {
            name: {work: c[work] for work in CACHED_WORK if c[work]}
            for name, c in counts.items()
        }
        assert {name: work for name, work in leftover.items() if work} == {}

    def test_warm_tables_equal_cold(self, runs):
        cold, warm, _ = runs
        assert warm == cold

    def test_one_model_build_per_cached_state(self, runs):
        _, _, counts = runs
        # Per core count: the baseline, then one grid point per scheme.
        assert counts["table6"]["build"] <= 6
        # Per network: the same three.
        assert counts["table4"]["build"] <= 12

    def test_table6_still_reaches_the_pool(self, runs):
        # pmap runs serially, silently, when its callable does not pickle.
        def dispatches():
            return (
                METRICS.counter("parallel.dispatch", path="pool"),
                METRICS.counter("parallel.dispatch.serial", reason="unpicklable"),
            )

        pool, unpicklable = dispatches()
        clear_memo()
        parallel = run_table6(FAST, workers=2)
        assert dispatches() == (pool + 1, unpicklable)
        clear_memo()
        assert run_table6(FAST, workers=1) == parallel


class TestLazyDataset:
    def test_unmaterialized_dataset_pickles_without_generating(self, monkeypatch):
        calls: Counter = Counter()
        _spy(monkeypatch, calls, SyntheticImageDataset, "generate", "generate")
        dataset = dataset_for("lenet", FAST)
        assert dataset.name == "synthetic-mnist"
        blob = pickle.dumps(dataset)
        assert calls["generate"] == 0
        assert len(blob) < 1024  # a name and a builder, no arrays

        shipped = pickle.loads(blob)
        reference = synthetic_mnist(
            train_size=FAST.train_size, test_size=FAST.test_size, seed=FAST.seed
        )
        calls.clear()
        for attr in ("x_train", "y_train", "x_test", "y_test"):
            np.testing.assert_array_equal(
                getattr(shipped, attr), getattr(reference, attr)
            )
        assert calls["generate"] == 1  # generated once, on first access
        assert shipped.name == reference.name

    @pytest.mark.parametrize("network", ["mlp", "lenet", "convnet", "caffenet", "table3"])
    def test_name_matches_the_generated_dataset(self, network):
        dataset = dataset_for(network, FAST)
        assert dataset.data.name == dataset.name
