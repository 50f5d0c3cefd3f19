"""Tests for the command-line entry point."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestCLI:
    def test_runs_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "vgg19" in out

    def test_runs_motivation_fast(self, capsys):
        assert main(["motivation", "--profile", "fast"]) == 0
        assert "communication" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--profile", "huge"])


class TestCLIAblations:
    def test_runs_mapping_ablation(self, capsys):
        assert main(["ablation-mapping"]) == 0
        out = capsys.readouterr().out
        assert "rigid" in out and "adaptive" in out

    def test_runs_pipeline_ablation(self, capsys):
        assert main(["ablation-pipeline"]) == 0
        assert "intra-layer" in capsys.readouterr().out


class TestCLIWorkers:
    def test_workers_flag_reaches_runner_and_prints_cache_summary(
        self, capsys, monkeypatch
    ):
        import os

        from repro import cli

        seen = []
        run_one = cli.run_one

        def spy(name, profile, workers=None):
            seen.append(workers)
            return run_one(name, profile, workers=workers)

        monkeypatch.setattr(cli, "run_one", spy)
        environ = dict(os.environ)
        assert main(["table1", "--profile", "fast", "--workers", "2"]) == 0
        assert seen == [2]
        assert dict(os.environ) == environ  # an argument, never an export
        assert "[cache]" in capsys.readouterr().out

    def test_workers_rejects_zero(self):
        with pytest.raises(SystemExit):
            main(["table1", "--workers", "0"])


class TestCLIObservability:
    @pytest.fixture(autouse=True)
    def clean_obs_state(self):
        from repro import obs

        yield
        obs.disable_tracing()
        obs.get_collector().clear()
        obs.nocprof.disable_noc_profiling()
        obs.nocprof.clear_profiles()

    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro import obs

        trace_path = tmp_path / "t.jsonl"
        assert main(
            ["motivation", "--profile", "fast", "--trace", str(trace_path), "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace_path}" in out
        assert "metrics snapshot" in out
        # The CLI turns tracing back off after the run.
        assert not obs.tracing_enabled()
        assert not obs.nocprof.noc_profiling_enabled()

        records = obs.read_jsonl(trace_path)
        spans = {r["id"]: r for r in records if r["type"] == "span"}
        names = {r["name"] for r in spans.values()}
        assert {"experiment", "sim.simulate", "simulate.layer", "sim.drain"} <= names

        # Spans nest experiment -> ... -> layer -> drain.
        drain = next(r for r in spans.values() if r["name"] == "sim.drain")
        chain = []
        while drain is not None:
            chain.append(drain["name"])
            drain = spans.get(drain["parent"])
        assert chain[-1] == "experiment"
        assert "simulate.layer" in chain

        (metrics,) = [r for r in records if r["type"] == "metrics"]
        counters = metrics["snapshot"]["counters"]
        assert "cache.drain_memo.hit" in counters
        assert "cache.drain_memo.miss" in counters
        assert counters["sim.drain_cycles"] > 0

        profiles = [r for r in records if r["type"] == "noc_profile"]
        assert profiles, "NoC profiling was enabled but exported no profiles"
        assert any(sum(map(sum, p["link_flits"])) > 0 for p in profiles)

    def test_metrics_flag_alone(self, capsys):
        assert main(["table1", "--metrics"]) == 0
        assert "metrics snapshot" in capsys.readouterr().out
