"""Atomic artifact writes: a failed save never clobbers an existing entry."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import cache
from repro.obs import METRICS


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def no_tmp_files(cache_dir) -> bool:
    return not list(cache_dir.glob("*.tmp"))


class TestAtomicJson:
    def test_save_then_load(self, cache_dir):
        cache.save_json("entry", {"x": 1})
        assert cache.load_json("entry") == {"x": 1}
        assert no_tmp_files(cache_dir)

    def test_failed_write_keeps_old_entry(self, cache_dir, monkeypatch):
        cache.save_json("entry", {"generation": 1})

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cache.json, "dump", boom)
        with pytest.raises(OSError, match="disk full"):
            cache.save_json("entry", {"generation": 2})
        assert cache.load_json("entry") == {"generation": 1}
        assert no_tmp_files(cache_dir)

    def test_unserializable_payload_keeps_old_entry(self, cache_dir):
        cache.save_json("entry", {"ok": True})
        with pytest.raises(TypeError):
            cache.save_json("entry", {"bad": object()})
        assert cache.load_json("entry") == {"ok": True}
        assert no_tmp_files(cache_dir)
        # The file on disk is still complete, valid JSON (not truncated).
        assert json.loads((cache_dir / "entry.json").read_text()) == {"ok": True}


class TestAtomicState:
    def test_save_then_load(self, cache_dir):
        state = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        cache.save_state("model", state)
        loaded = cache.load_state("model")
        assert set(loaded) == {"w", "b"}
        assert np.array_equal(loaded["w"], state["w"])
        assert no_tmp_files(cache_dir)

    def test_failed_write_keeps_old_entry(self, cache_dir, monkeypatch):
        old = {"w": np.ones(4)}
        cache.save_state("model", old)

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cache.np, "savez", boom)
        with pytest.raises(OSError, match="disk full"):
            cache.save_state("model", {"w": np.zeros(4)})
        loaded = cache.load_state("model")
        assert np.array_equal(loaded["w"], old["w"])
        assert no_tmp_files(cache_dir)


class TestLoadMetrics:
    def test_hit_and_miss_counters(self, cache_dir, monkeypatch):
        # Disable the in-process memo so every load exercises the disk path
        # (memoized loads count cache.memo.* instead, covered elsewhere).
        monkeypatch.setattr(cache, "MEMO_CAPACITY", {"state": 0, "json": 0})
        METRICS.reset()
        assert cache.load_json("absent") is None
        cache.save_json("present", {"x": 1})
        cache.load_json("present")
        assert cache.load_state("absent") is None
        counters = METRICS.snapshot()["counters"]
        assert counters["cache.artifact.miss{kind=json}"] == 1
        assert counters["cache.artifact.hit{kind=json}"] == 1
        assert counters["cache.artifact.miss{kind=state}"] == 1
