"""Each trained state is scored once: its test accuracy is stored beside it.

Cold runs score each state when it is trained and store the score in the
artifact cache; warm runs read the stored scores and score nothing.  A cache
without scores (written before scores were stored) or with a corrupt score
entry scores once more, and the result is the same.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import cache
from repro.experiments.common import train_baseline
from repro.experiments.config import FAST
from repro.experiments.table4 import run_network
from repro.nn.network import Sequential
from repro.obs import METRICS


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cache.clear_memo()
    yield
    cache.clear_memo()


@pytest.fixture
def score_calls(monkeypatch):
    """Counts every ``Sequential.accuracy`` call from here on."""
    calls = []
    original = Sequential.accuracy

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Sequential, "accuracy", counting)
    return calls


def _warm(fn, calls):
    """Run ``fn`` the way a re-run command does: disk cache, empty memo."""
    cache.clear_memo()
    calls.clear()
    return fn()


def _accuracy_entries():
    return sorted(cache.cache_dir().glob("*-acc.json"))


class TestOneScorePerState:
    def test_cold_scores_each_state_once_and_warm_scores_nothing(self, score_calls):
        cold = run_network("mlp", FAST, num_cores=16)
        # The baseline, then one grid point per scheme (FAST has one lambda).
        assert len(score_calls) == 3
        assert len(_accuracy_entries()) == 3

        warm = _warm(lambda: run_network("mlp", FAST, num_cores=16), score_calls)
        assert score_calls == []
        # Dataclass equality covers the exact accuracy floats.
        assert warm == cold

    def test_cache_without_scores_scores_each_state_once(self, score_calls):
        # Every cache written before scores were stored looks like this.
        cold = run_network("mlp", FAST, num_cores=16)
        for path in _accuracy_entries():
            path.unlink()

        stale = _warm(lambda: run_network("mlp", FAST, num_cores=16), score_calls)
        assert len(score_calls) == 3
        assert len(_accuracy_entries()) == 3
        assert stale == cold

        again = _warm(lambda: run_network("mlp", FAST, num_cores=16), score_calls)
        assert score_calls == []
        assert again == cold


class TestCorruptScoreEntry:
    def test_truncated_entry_is_counted_recomputed_and_rewritten(self, score_calls):
        _, acc = train_baseline("mlp", FAST)
        (path,) = _accuracy_entries()
        path.write_text(path.read_text()[:5])
        corrupt = METRICS.counter("cache.artifact.corrupt", kind="json")

        _, rescored = _warm(lambda: train_baseline("mlp", FAST), score_calls)
        # Counted (the claim's double-check reads the entry a second time).
        assert METRICS.counter("cache.artifact.corrupt", kind="json") > corrupt
        assert len(score_calls) == 1
        assert rescored == acc
        assert json.loads(path.read_text()) == {"accuracy": acc}

        _, again = _warm(lambda: train_baseline("mlp", FAST), score_calls)
        assert score_calls == []
        assert again == acc
