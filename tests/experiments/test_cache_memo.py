"""In-process read-through memo and single-flight wrappers over the disk cache."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments import cache
from repro.obs import METRICS
from repro.parallel import pmap


@pytest.fixture(autouse=True)
def fresh_memo(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.clear_memo()
    METRICS.reset()
    yield
    cache.clear_memo()


class TestJsonMemo:
    def test_save_primes_memo(self):
        cache.save_json("entry", {"x": 1})
        assert cache.load_json("entry") == {"x": 1}
        assert METRICS.counter("cache.memo.hit", kind="json") == 1
        # The memo hit never touched the disk counters.
        assert METRICS.counter("cache.artifact.hit", kind="json") == 0

    def test_memo_hit_matches_disk_round_trip(self):
        # numpy scalars are serialized via default=float; a memo hit must
        # return the same coerced values a fresh disk read would.
        cache.save_json("entry", {"x": np.float64(1.5), "n": 3})
        memo_value = cache.load_json("entry")
        cache.clear_memo()
        disk_value = cache.load_json("entry")
        assert memo_value == disk_value
        assert type(memo_value["x"]) is float

    def test_memo_values_are_isolated_copies(self):
        cache.save_json("entry", {"inner": {"x": 1}})
        first = cache.load_json("entry")
        first["inner"]["x"] = 999
        assert cache.load_json("entry") == {"inner": {"x": 1}}

    def test_eviction_falls_back_to_disk(self, monkeypatch):
        monkeypatch.setitem(cache.MEMO_CAPACITY, "json", 1)
        cache.save_json("a", {"k": "a"})
        cache.save_json("b", {"k": "b"})  # capacity 1: evicts "a"
        assert cache.load_json("a") == {"k": "a"}
        assert METRICS.counter("cache.artifact.hit", kind="json") == 1

    def test_memo_scoped_by_cache_dir(self, tmp_path, monkeypatch):
        cache.save_json("entry", {"x": 1})
        other = tmp_path / "other"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(other))
        # Same key, different directory: must miss, not serve the stale memo.
        assert cache.load_json("entry") is None


class TestStateMemo:
    def test_memo_hit_returns_equal_arrays(self):
        state = {"w": np.arange(6.0).reshape(2, 3)}
        cache.save_state("model", state)
        loaded = cache.load_state("model")
        assert METRICS.counter("cache.memo.hit", kind="state") == 1
        assert np.array_equal(loaded["w"], state["w"])

    def test_memoized_arrays_are_read_only(self):
        cache.save_state("model", {"w": np.ones(4)})
        loaded = cache.load_state("model")
        with pytest.raises(ValueError):
            loaded["w"][0] = 2.0

    def test_disabled_memo_always_reads_disk(self, monkeypatch):
        monkeypatch.setitem(cache.MEMO_CAPACITY, "state", 0)
        cache.save_state("model", {"w": np.ones(4)})
        cache.load_state("model")
        cache.load_state("model")
        assert METRICS.counter("cache.artifact.hit", kind="state") == 2
        assert METRICS.counter("cache.memo.hit", kind="state") == 0


class TestCorruptArtifacts:
    def test_truncated_npz_is_a_counted_miss(self):
        path = cache.save_state("model", {"w": np.arange(1000.0)})
        path.write_bytes(path.read_bytes()[:200])
        cache.clear_memo()
        assert cache.load_state("model") is None
        assert METRICS.counter("cache.artifact.miss", kind="state") == 1
        assert METRICS.counter("cache.artifact.corrupt", kind="state") == 1
        assert "state 0/1 hit/miss (+0 memo, 1 corrupt)" in cache.cache_summary()

    @pytest.mark.parametrize("content", [b"not json {", b"\xff\xfe\x00", b"[1, 2]"])
    def test_non_json_entry_is_a_counted_miss(self, content):
        (cache.cache_dir() / "entry.json").write_bytes(content)
        assert cache.load_json("entry") is None
        assert METRICS.counter("cache.artifact.miss", kind="json") == 1
        assert METRICS.counter("cache.artifact.corrupt", kind="json") == 1

    def test_absent_artifact_is_a_plain_miss(self):
        assert cache.load_state("absent") is None
        assert cache.load_json("absent") is None
        for kind in ("state", "json"):
            assert METRICS.counter("cache.artifact.miss", kind=kind) == 1
            assert METRICS.counter("cache.artifact.corrupt", kind=kind) == 0


class TestEnsure:
    def test_ensure_state_computes_once(self):
        calls = []

        def compute():
            calls.append(1)
            return {"w": np.full(3, 7.0)}

        first = cache.ensure_state("model", compute)
        second = cache.ensure_state("model", compute)
        assert len(calls) == 1
        assert np.array_equal(first["w"], second["w"])
        # The artifact landed on disk, not just in the memo.
        cache.clear_memo()
        assert cache.load_state("model") is not None

    def test_ensure_json_round_trips(self):
        value = cache.ensure_json("entry", lambda: {"x": np.float64(2.5)})
        assert value == {"x": 2.5}
        assert type(value["x"]) is float
        assert cache.ensure_json("entry", lambda: {"x": 0.0}) == {"x": 2.5}


class TestSummary:
    def test_summary_mentions_all_families(self):
        cache.save_json("entry", {"x": 1})
        cache.load_json("entry")
        line = cache.cache_summary()
        assert line.startswith("[cache]")
        for token in (
            "state", "json", "memo", "corrupt", "acquired", "contended", "stale_takeover"
        ):
            assert token in line

    def test_parallel_line_names_serial_fallbacks(self, monkeypatch):
        assert cache.cache_summary().splitlines()[1] == "[parallel] dispatch serial=0 pool=0"
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="clamping to 1"):
            assert pmap(abs, [-1, -2], workers=2) == [1, 2]
        assert pmap(abs, [-3]) == [3]
        line = cache.cache_summary().splitlines()[1]
        assert line == (
            "[parallel] dispatch serial=2 pool=0 (serial reasons: cpu_clamp×1 single_item×1)"
        )
