"""Smoke tests of the experiment runners using the FAST profile.

These validate plumbing end-to-end (training, caching, scheme selection,
simulation, rendering) with tiny training runs; the paper-profile numbers
are produced by the benchmark harness.
"""

import dataclasses

import pytest

from repro.experiments import runner, table4, table6
from repro.experiments.ablations import (
    run_analytical_agreement,
    run_mapping_ablation,
    run_mask_exponent_ablation,
    run_noc_sensitivity,
)
from repro.experiments.config import FAST
from repro.experiments.motivation import render_motivation, run_motivation
from repro.experiments.table4 import render_table4, run_network
from repro.experiments.table6 import run_table6
from repro.experiments.runner import EXPERIMENTS, run_all, run_one
from repro.obs import METRICS


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestMotivation:
    def test_rows_and_render(self):
        rows = run_motivation()
        assert {r.network for r in rows} == {"mlp", "lenet", "convnet", "alexnet"}
        assert all(0 <= r.comm_fraction < 1 for r in rows)
        assert "AlexNet" in render_motivation(rows) or "alexnet" in render_motivation(rows)

    def test_alexnet_has_most_traffic(self):
        rows = run_motivation()
        by_net = {r.network: r.traffic_bytes for r in rows}
        assert by_net["alexnet"] == max(by_net.values())


class TestTable4MLP:
    def test_three_schemes(self):
        rows = run_network("mlp", FAST, num_cores=16)
        assert [r.scheme for r in rows] == ["baseline", "ss", "ss_mask"]
        base = rows[0]
        assert base.traffic_rate == 1.0 and base.speedup == 1.0
        for r in rows[1:]:
            assert 0.0 <= r.traffic_rate <= 1.0
            assert r.speedup >= 1.0
        assert "mlp" in render_table4(rows)

    def test_inadmissible_operating_point_is_counted_and_kept(self):
        def fallbacks():
            return [
                METRICS.counter("experiments.operating_point.fallback", scheme=scheme)
                for scheme in ("ss", "ss_mask")
            ]

        before = fallbacks()
        rows = run_network("mlp", FAST, num_cores=16)
        assert fallbacks() == before
        # No accuracy can exceed the baseline's by 1.0: nothing is admissible.
        strict = dataclasses.replace(FAST, accuracy_tolerance=-1.0)
        assert run_network("mlp", strict, num_cores=16) == rows
        assert fallbacks() == [n + 1 for n in before]

    def test_caching_speeds_second_run(self):
        import time

        t0 = time.time()
        run_network("mlp", FAST, num_cores=16)
        first = time.time() - t0
        t0 = time.time()
        run_network("mlp", FAST, num_cores=16)
        second = time.time() - t0
        assert second < first / 2


class TestTable6Small:
    def test_runs_at_four_cores(self):
        results = run_table6(FAST, core_counts=(4,))
        rows = results[4]
        assert [r.scheme for r in rows] == ["baseline", "ss", "ss_mask"]


class TestAblations:
    def test_mask_exponent(self):
        rows = run_mask_exponent_ablation(FAST, exponents=(1.0, 4.0), lam=0.3)
        assert [r.exponent for r in rows] == [1.0, 4.0]
        for r in rows:
            assert 0.0 <= r.traffic_rate <= 1.0

    def test_mapping(self):
        rows = run_mapping_ablation()
        by_key = {(r.network, r.mapping): r.total_cycles for r in rows}
        for network in ("lenet", "convnet", "alexnet"):
            assert by_key[(network, "rigid")] >= by_key[(network, "adaptive")]

    def test_noc_sensitivity(self):
        rows = run_noc_sensitivity()
        assert len(rows) == 4 * 3 * 2
        assert all(r.drain_cycles > 0 for r in rows)

    def test_analytical_agreement(self):
        rows = run_analytical_agreement()
        assert all(0.3 < r.ratio < 8 for r in rows)


class TestRunner:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_one("table99", FAST)

    def test_registry_covers_paper(self):
        assert {"table1", "table3", "table4", "table5", "table6"} <= set(EXPERIMENTS)

    def test_run_all_hands_workers_to_each_experiment(self, monkeypatch):
        """The worker count is an argument, so it must reach the grids below."""
        seen = []

        def fake_run_one(name, profile, workers=None):
            seen.append((name, workers))
            return name

        monkeypatch.setattr(runner, "_run_one", fake_run_one)
        assert run_all(FAST, ("table1",), workers=3) == {"table1": "table1"}
        assert seen == [("table1", 3)]

    def test_table4_and_table6_hand_workers_to_run_network(self, monkeypatch):
        seen = []

        def fake_run_network(network, profile, num_cores=16, workers=None):
            seen.append((network, num_cores, workers))
            return []

        monkeypatch.setattr(table4, "run_network", fake_run_network)
        monkeypatch.setattr(table6, "run_network", fake_run_network)
        table4.run_table4(FAST, networks=("mlp",), workers=3)
        table6.run_table6(FAST, core_counts=(8,), workers=3)
        assert seen == [("mlp", 16, 3), ("lenet", 8, 3)]


class TestNewAblations:
    def test_pipeline_runner(self):
        from repro.experiments.ablations import run_pipeline_ablation

        rows = run_pipeline_ablation()
        by_key = {(r.network, r.scheme): r for r in rows}
        assert by_key[("lenet", "pipeline")].single_pass_cycles > by_key[
            ("lenet", "intra-layer")
        ].single_pass_cycles

    def test_pipeline_rows_pinned(self):
        """The 16-core §II.B rows, by exact repr (so ints stay Python ints)."""
        from repro.experiments.ablations import PipelineRow, run_pipeline_ablation

        expected = [
            PipelineRow("lenet", "pipeline", 11575, 8093, 2.7907771135781383),
            PipelineRow("lenet", "intra-layer", 1811, 1811, 1.0),
            PipelineRow("convnet", "pipeline", 52273, 28539, 2.6755139582364715),
            PipelineRow("convnet", "intra-layer", 5270, 5270, 1.0),
            PipelineRow("alexnet", "pipeline", 3370448, 1047349, 2.4731805784180616),
            PipelineRow("alexnet", "intra-layer", 242103, 242103, 1.0),
        ]
        assert repr(run_pipeline_ablation()) == repr(expected)

    def test_quantization_runner(self):
        from repro.experiments.ablations import run_quantization_ablation

        rows = run_quantization_ablation(FAST, networks=("mlp",))
        (row,) = rows
        assert abs(row.fixed16_accuracy - row.float_accuracy) < 0.1

    def test_placement_runner(self):
        from repro.experiments.ablations import run_placement_ablation

        rows = run_placement_ablation(FAST, lam=0.3)
        assert len(rows) == 6
        by_key = {(r.scheme, r.placement): r for r in rows}
        for scheme in ("baseline", "ss", "ss_mask"):
            assert (
                by_key[(scheme, "optimized")].avg_hop
                <= by_key[(scheme, "identity")].avg_hop + 1e-9
            )
