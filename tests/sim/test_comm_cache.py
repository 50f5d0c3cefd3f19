"""Persistent drain-time memoization in the inference engine.

The memo layer must be invisible in the numbers (warm runs reproduce cold
runs exactly), keyed so that *any* change to the network or the traffic
invalidates the entry, and robust to corrupt cache files.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro.sim.engine as engine_mod
from repro.experiments import cache
from repro.models import get_spec
from repro.noc import Mesh2D, NoCConfig, TrafficMatrix, uniform_random_traffic
from repro.partition import build_traditional_plan
from repro.sim.engine import InferenceSimulator, SimConfig, drain_memo_key


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture(scope="module")
def plan():
    return build_traditional_plan(get_spec("lenet"), 16)


def timeline_numbers(result):
    return [
        (t.layer_name, t.compute_cycles, t.comm_cycles, t.flit_hops, t.noc_energy)
        for t in result.layers
    ]


class TestWarmRuns:
    def test_warm_run_is_identical(self, cache_dir, chip16, plan):
        sim = InferenceSimulator(chip16, SimConfig())
        cold = sim.simulate(plan)
        assert list(cache_dir.glob("noc-drain-*.json")), "cold run wrote no entries"
        warm = sim.simulate(plan)
        assert timeline_numbers(cold) == timeline_numbers(warm)

    def test_warm_run_skips_cycle_simulation(self, cache_dir, chip16, plan, monkeypatch):
        sim = InferenceSimulator(chip16, SimConfig())
        sim.simulate(plan)

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("warm run must not construct a NoCSimulator")

        monkeypatch.setattr(engine_mod, "NoCSimulator", boom)
        sim.simulate(plan)  # served entirely from the memo

    def test_memo_matches_uncached(self, cache_dir, chip16, plan, monkeypatch):
        cached = InferenceSimulator(chip16, SimConfig()).simulate(plan)
        warm = InferenceSimulator(chip16, SimConfig()).simulate(plan)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir / "fresh"))
        uncached = InferenceSimulator(chip16, SimConfig()).simulate(plan)
        assert uncached.drain_memo_hits == 0
        assert timeline_numbers(cached) == timeline_numbers(uncached)
        assert timeline_numbers(warm) == timeline_numbers(uncached)

    def test_entry_holds_the_drain_only(self, cache_dir, chip16, plan):
        """A cold drain writes its cycles, flit-hops and energy events."""
        InferenceSimulator(chip16, SimConfig()).simulate(plan)
        for path in cache_dir.glob("noc-drain-*.json"):
            assert set(json.loads(path.read_text())) == {"cycles", "flit_hops", "energy"}


class TestMemoCounters:
    """SimulationResult surfaces how many drains came from the memo."""

    def test_cold_run_is_all_misses(self, cache_dir, chip16, plan):
        cold = InferenceSimulator(chip16, SimConfig()).simulate(plan)
        assert cold.drain_memo_hits == 0
        assert cold.drain_memo_misses > 0
        assert cold.drain_memo_hit_rate == 0.0

    def test_warm_run_is_all_hits(self, cache_dir, chip16, plan):
        sim = InferenceSimulator(chip16, SimConfig())
        cold = sim.simulate(plan)
        warm = sim.simulate(plan)
        assert warm.drain_memo_misses == 0
        assert warm.drain_memo_hits == cold.drain_memo_misses
        assert warm.drain_memo_hit_rate == 1.0


class TestKeying:
    def test_key_is_deterministic(self, cache_dir):
        mesh = Mesh2D(4, 4)
        traffic = uniform_random_traffic(16, 10_000, seed=5)
        assert drain_memo_key(mesh, NoCConfig(), traffic) == drain_memo_key(
            mesh, NoCConfig(), traffic
        )

    def test_key_is_pinned(self, cache_dir):
        """Caches filled by earlier versions stay warm: the key never moves."""
        traffic = uniform_random_traffic(16, 10_000, seed=5)
        assert drain_memo_key(Mesh2D(4, 4), NoCConfig(), traffic) == "noc-drain-abbbf700891d"

    def test_every_noc_field_changes_key(self, cache_dir):
        mesh = Mesh2D(4, 4)
        traffic = uniform_random_traffic(16, 10_000, seed=5)
        base_cfg = NoCConfig()
        base = drain_memo_key(mesh, base_cfg, traffic)
        for field in dataclasses.fields(NoCConfig):
            value = getattr(base_cfg, field.name)
            bumped = value * 2 if isinstance(value, (int, float)) else value
            changed = dataclasses.replace(base_cfg, **{field.name: bumped})
            assert drain_memo_key(mesh, changed, traffic) != base, field.name

    def test_mesh_shape_changes_key(self, cache_dir):
        traffic = uniform_random_traffic(16, 10_000, seed=5)
        assert drain_memo_key(Mesh2D(4, 4), NoCConfig(), traffic) != drain_memo_key(
            Mesh2D(8, 2), NoCConfig(), traffic
        )

    def test_traffic_bytes_change_key(self, cache_dir):
        mesh = Mesh2D(4, 4)
        traffic = uniform_random_traffic(16, 10_000, seed=5)
        perturbed = TrafficMatrix(
            traffic.bytes_matrix + np.eye(16, dtype=traffic.bytes_matrix.dtype) * 0,
            label=traffic.label,
        )
        # Identical bytes -> identical key even through a fresh array object.
        assert drain_memo_key(mesh, NoCConfig(), perturbed) == drain_memo_key(
            mesh, NoCConfig(), traffic
        )
        bumped_m = traffic.bytes_matrix.copy()
        bumped_m[0, 1] += 64
        bumped = TrafficMatrix(bumped_m, label=traffic.label)
        assert drain_memo_key(mesh, NoCConfig(), bumped) != drain_memo_key(
            mesh, NoCConfig(), traffic
        )


class TestCorruptEntries:
    def _one_layer_plan(self, plan):
        """The busiest layer only — enough to exercise a single memo entry."""
        lp = max(plan.layers, key=lambda l: l.traffic.total_bytes)
        return lp

    def _corrupt_all(self, cache_dir, payload: str):
        entries = list(cache_dir.glob("noc-drain-*.json"))
        assert entries
        for path in entries:
            path.write_text(payload)
        # Mutating cache files behind the cache's back requires dropping the
        # in-process read-through memo, or loads keep serving the old values.
        cache.clear_memo()

    @pytest.mark.parametrize(
        "payload",
        [
            "{ not json",
            json.dumps([1, 2, 3]),
            json.dumps({"cycles": "many", "flit_hops": 3, "energy": {}}),
            json.dumps({"cycles": 10}),
            json.dumps(
                {
                    "cycles": 10,
                    "flit_hops": 3,
                    "energy": {"buffer_writes": 1},  # missing counters
                }
            ),
        ],
    )
    def test_corrupt_entry_falls_back_to_simulation(
        self, cache_dir, chip16, plan, payload
    ):
        sim = InferenceSimulator(chip16, SimConfig())
        cold = sim.simulate(plan)
        self._corrupt_all(cache_dir, payload)
        recovered = sim.simulate(plan)
        assert timeline_numbers(recovered) == timeline_numbers(cold)
        # The bad entries were overwritten with valid ones.
        for path in cache_dir.glob("noc-drain-*.json"):
            data = json.loads(path.read_text())
            assert isinstance(data["cycles"], int)

    def test_entry_with_extra_fields_still_hits(self, cache_dir, chip16, plan, monkeypatch):
        """Entries that also carry an ``analytical`` estimate (the format
        before the estimate memo went) are served without a drain."""
        sim = InferenceSimulator(chip16, SimConfig())
        cold = sim.simulate(plan)
        for path in cache_dir.glob("noc-drain-*.json"):
            data = json.loads(path.read_text())
            data["analytical"] = {"source_bound": 1, "sink_bound": 1, "link_bound": 1,
                                  "head_latency": 1}
            path.write_text(json.dumps(data))
        cache.clear_memo()

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("a hit must not construct a NoCSimulator")

        monkeypatch.setattr(engine_mod, "NoCSimulator", boom)
        warm = sim.simulate(plan)
        assert warm.drain_memo_misses == 0
        assert timeline_numbers(warm) == timeline_numbers(cold)

    def test_load_json_rejects_non_dict(self, cache_dir):
        cache.save_json("probe", {"x": 1})
        (cache_dir / "probe.json").write_text("[]")
        cache.clear_memo()
        assert cache.load_json("probe") is None
