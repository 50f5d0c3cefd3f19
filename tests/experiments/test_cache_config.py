"""Tests for the experiment cache and profiles."""

import numpy as np
import pytest

from repro.experiments.cache import (
    cache_dir,
    ensure_json,
    load_state,
    save_state,
    settings_key,
)
from repro.experiments.config import FAST, PAPER, get_profile


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestSettingsKey:
    def test_stable(self):
        assert settings_key("a", {"x": 1}) == settings_key("a", {"x": 1})

    def test_settings_change_key(self):
        assert settings_key("a", {"x": 1}) != settings_key("a", {"x": 2})

    def test_name_sanitized(self):
        key = settings_key("we/ird name!", {})
        assert "/" not in key and " " not in key


class TestStateCache:
    def test_roundtrip(self):
        state = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        save_state("k1", state)
        loaded = load_state("k1")
        np.testing.assert_array_equal(loaded["w"], state["w"])

    def test_missing(self):
        assert load_state("nope") is None

    def test_corrupt_returns_none(self):
        path = cache_dir() / "bad.npz"
        path.write_bytes(b"not a zip")
        assert load_state("bad") is None


class TestJsonCache:
    def test_computes_once(self):
        calls = []

        def compute():
            calls.append(1)
            return {"v": 42}

        assert ensure_json("j1", compute) == {"v": 42}
        assert ensure_json("j1", compute) == {"v": 42}
        assert len(calls) == 1


class TestProfiles:
    def test_lookup(self):
        assert get_profile("paper") is PAPER
        assert get_profile("fast") is FAST

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_profile("slow")

    def test_fast_is_smaller(self):
        assert FAST.train_size < PAPER.train_size
        assert FAST.baseline.epochs < PAPER.baseline.epochs
