"""NoC profiling: exact route accumulation, engine agreement, global state."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.models import get_spec
from repro.noc import (
    Mesh2D,
    NoCConfig,
    NoCSimulator,
    TrafficMatrix,
    uniform_random_traffic,
)
from repro.noc.topology import EAST, LOCAL, SOUTH
from repro.obs import NoCProfile
from repro.partition import build_traditional_plan
from repro.sim.engine import InferenceSimulator, SimConfig

from ..noc.reference import ReferenceNoCSimulator


def drain(engine_cls, mesh, traffic, config, profile=None):
    sim = engine_cls(mesh, config, profile=profile)
    packets = traffic.to_packets(config)
    sim.inject(packets)
    return sim.run(), packets


def single_flow_traffic(src: int, dst: int, num_bytes: int = 4096) -> TrafficMatrix:
    m = np.zeros((16, 16), dtype=np.int64)
    m[src, dst] = num_bytes
    return TrafficMatrix(m, label=f"{src}->{dst}")


class TestRouteAccumulation:
    def test_single_hop_east(self):
        config = NoCConfig()
        profile = NoCProfile(4, 4)
        stats, packets = drain(
            NoCSimulator, Mesh2D(4, 4), single_flow_traffic(5, 6), config, profile
        )
        flits = sum(p.num_flits for p in packets)
        assert profile.link_flits[5, EAST] == flits
        assert profile.link_flits[6, LOCAL] == flits
        assert profile.router_flits[5] == flits
        assert profile.router_flits[6] == flits
        assert profile.link_flits.sum() == 2 * flits
        assert profile.total_flit_hops == stats.flit_hops == flits
        assert profile.cycles == stats.cycles
        assert profile.runs == 1

    def test_xy_route_two_hops(self):
        # 0 (0,0) -> 5 (1,1): X first (east to node 1), then Y (south to 5).
        config = NoCConfig()
        profile = NoCProfile(4, 4)
        stats, packets = drain(
            NoCSimulator, Mesh2D(4, 4), single_flow_traffic(0, 5), config, profile
        )
        flits = sum(p.num_flits for p in packets)
        assert profile.link_flits[0, EAST] == flits
        assert profile.link_flits[1, SOUTH] == flits
        assert profile.link_flits[5, LOCAL] == flits
        assert list(np.flatnonzero(profile.router_flits)) == [0, 1, 5]
        assert profile.total_flit_hops == stats.flit_hops == 2 * flits

    def test_engines_accumulate_identical_profiles(self):
        config = NoCConfig()
        traffic = uniform_random_traffic(16, 40_000, seed=11)
        fast_profile = NoCProfile(4, 4)
        ref_profile = NoCProfile(4, 4)
        fast, _ = drain(NoCSimulator, Mesh2D(4, 4), traffic, config, fast_profile)
        ref, _ = drain(
            ReferenceNoCSimulator, Mesh2D(4, 4), traffic, config, ref_profile
        )
        assert fast == ref
        assert np.array_equal(fast_profile.link_flits, ref_profile.link_flits)
        assert np.array_equal(fast_profile.router_flits, ref_profile.router_flits)
        assert fast_profile.cycles == ref_profile.cycles

    @pytest.mark.parametrize(
        "engine_cls", [NoCSimulator, ReferenceNoCSimulator], ids=["event", "reference"]
    )
    def test_profiling_does_not_change_stats(self, engine_cls):
        config = NoCConfig()
        traffic = uniform_random_traffic(16, 40_000, seed=3)
        plain, _ = drain(engine_cls, Mesh2D(4, 4), traffic, config)
        profiled, _ = drain(
            engine_cls, Mesh2D(4, 4), traffic, config, NoCProfile(4, 4)
        )
        assert plain == profiled

    def test_profile_rejects_wrong_mesh_shape(self):
        config = NoCConfig()
        with pytest.raises(ValueError, match="mesh"):
            drain(
                NoCSimulator, Mesh2D(4, 4), single_flow_traffic(5, 6), config,
                NoCProfile(8, 8),
            )


class TestProfileData:
    def test_merge_accumulates(self):
        a, b = NoCProfile(2, 2), NoCProfile(2, 2)
        a.link_flits[1, EAST] = 5
        a.cycles, a.runs = 10, 1
        b.link_flits[1, EAST] = 7
        b.router_flits[0] = 3
        b.cycles, b.runs = 20, 2
        a.merge(b)
        assert a.link_flits[1, EAST] == 12
        assert a.router_flits[0] == 3
        assert (a.cycles, a.runs) == (30, 3)

    def test_merge_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="merge"):
            NoCProfile(2, 2).merge(NoCProfile(4, 1))

    def test_utilization_and_occupancy(self):
        p = NoCProfile(2, 2)
        p.link_flits[0, EAST] = 50
        p.router_flits[3] = 100
        p.cycles = 100
        assert p.link_utilization()[0, EAST] == 0.5
        occ = p.router_occupancy()
        assert occ.shape == (2, 2)
        assert occ[1, 1] == 1.0

    def test_zero_cycles_yields_zero_utilization(self):
        p = NoCProfile(2, 2)
        p.link_flits[0, EAST] = 9
        assert not p.link_utilization().any()

    def test_dict_round_trip(self):
        p = NoCProfile(2, 3)
        p.link_flits[4, SOUTH] = 8
        p.router_flits[4] = 8
        p.cycles, p.runs = 42, 2
        q = NoCProfile.from_dict(p.to_dict())
        assert (q.width, q.height, q.cycles, q.runs) == (2, 3, 42, 2)
        assert np.array_equal(q.link_flits, p.link_flits)
        assert np.array_equal(q.router_flits, p.router_flits)

    def test_from_dict_rejects_mismatched_arrays(self):
        bad = NoCProfile(2, 2).to_dict()
        bad["mesh"] = [4, 4]
        with pytest.raises(ValueError):
            NoCProfile.from_dict(bad)


class TestGlobalState:
    def test_enable_disable(self):
        assert not obs.noc_profiling_enabled()
        obs.enable_noc_profiling()
        assert obs.noc_profiling_enabled()
        obs.disable_noc_profiling()
        assert not obs.noc_profiling_enabled()

    def test_global_profile_is_per_shape_singleton(self):
        p = obs.nocprof.global_profile(4, 4)
        assert obs.nocprof.global_profile(4, 4) is p
        assert obs.nocprof.global_profile(8, 8) is not p

    def test_global_profiles_largest_first(self):
        obs.nocprof.global_profile(2, 2)
        obs.nocprof.global_profile(8, 8)
        obs.nocprof.global_profile(4, 4)
        sizes = [(p.width, p.height) for p in obs.nocprof.global_profiles()]
        assert sizes == [(8, 8), (4, 4), (2, 2)]


class TestEngineIntegration:
    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return tmp_path

    def test_profiled_run_bypasses_memo_but_matches(self, cache_dir, chip16):
        plan = build_traditional_plan(get_spec("lenet"), 16)
        sim = InferenceSimulator(chip16, SimConfig())
        cold = sim.simulate(plan)

        obs.enable_noc_profiling()
        profiled = sim.simulate(plan)
        # Warm entries exist, but profiling needs real drains: all misses.
        assert profiled.drain_memo_hits == 0
        assert profiled.drain_memo_misses == cold.drain_memo_misses
        mesh = chip16.mesh
        profile = obs.nocprof.global_profile(mesh.width, mesh.height)
        assert profile.runs == cold.drain_memo_misses
        assert profile.total_flit_hops > 0
        # ... and the numbers still match the memoized cold run exactly.
        assert [(t.layer_name, t.comm_cycles, t.flit_hops) for t in cold.layers] == [
            (t.layer_name, t.comm_cycles, t.flit_hops) for t in profiled.layers
        ]

        obs.disable_noc_profiling()
        warm = sim.simulate(plan)
        assert warm.drain_memo_hits == cold.drain_memo_misses
        assert profile.runs == cold.drain_memo_misses  # untouched when disabled
