"""Smoke tests for the repro-serve command-line entry point."""

import json

import pytest

from repro.cli import serve_main
from repro.serve.cli import main
from repro.serve.cluster import clear_service_memo


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_service_memo()
    yield
    clear_service_memo()
    from repro import obs

    obs.disable_tracing()
    obs.get_collector().clear()


class TestSingleRun:
    def test_poisson_fifo_smoke(self, capsys):
        assert main(
            ["--network", "lenet", "--cores", "8", "--group-cores", "4",
             "--requests", "40", "--rate", "5", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 x 4-core" in out
        assert "p99 latency" in out
        assert "goodput" in out

    def test_batch_scheduler_and_mmpp(self, capsys):
        assert main(
            ["--network", "lenet", "--cores", "4", "--group-cores", "4",
             "--workload", "mmpp", "--scheduler", "batch", "--batch-size", "4",
             "--requests", "30", "--rate", "10"]
        ) == 0
        assert "p99 latency" in capsys.readouterr().out

    def test_closed_loop(self, capsys):
        assert main(
            ["--network", "lenet", "--cores", "4", "--group-cores", "2",
             "--workload", "closed", "--clients", "3", "--requests", "4",
             "--think", "5000"]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        assert "replica utilization" in out

    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        assert main(
            ["--network", "lenet", "--cores", "4", "--group-cores", "4",
             "--requests", "10", "--rate", "2", "--trace", str(trace), "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "serve.requests" in out
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(rec.get("name") == "serve.run" for rec in lines)

    def test_rejects_bad_geometry(self, capsys):
        with pytest.raises(SystemExit):
            main(["--cores", "16", "--group-cores", "3"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cores", "0"],
            ["--cores", "8", "--group-cores", "0"],
            ["--cores", "8", "--group-cores", "-4"],
            ["--chips", "4", "--stages", "0"],
        ],
        ids=["cores-0", "group-cores-0", "group-cores-neg", "stages-0"],
    )
    def test_rejects_nonpositive_geometry(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--network", "lenet", "--requests", "5", *flags])
        assert exc.value.code == 2
        assert f"{flags[-2]} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workload, flag",
        [
            ("poisson", ["--clients", "3"]),
            ("poisson", ["--think", "7"]),
            ("poisson", ["--burst-rate", "9"]),
            ("closed", ["--burst-rate", "9"]),
            ("mmpp", ["--clients", "3"]),
            ("closed", ["--rate", "5"]),
        ],
        ids=["clients", "think", "burst_rate", "burst_rate-closed", "clients-mmpp",
             "rate-closed"],
    )
    def test_single_run_rejects_flag_its_workload_never_reads(self, workload, flag, capsys):
        """A Poisson run printed the same output with --clients 3 --think 7
        --burst-rate 9 as without them."""
        with pytest.raises(SystemExit) as exc:
            main(["--network", "lenet", "--cores", "4", "--requests", "5",
                  "--workload", workload, *flag])
        assert exc.value.code == 2
        assert f"{flag[0]} requires --workload" in capsys.readouterr().err

    def test_group_cores_defaults_to_cores(self, capsys):
        """Without --group-cores the chip is one model-parallel group."""
        assert main(
            ["--network", "lenet", "--cores", "8", "--requests", "10", "--rate", "2"]
        ) == 0
        assert "1 x 8-core" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", [["--profile", "fast"], ["--workers", "2"]], ids=["profile", "workers"]
    )
    def test_single_run_rejects_sweep_flag(self, flag, capsys):
        """One simulation has no size profile and nothing to shard."""
        with pytest.raises(SystemExit) as exc:
            main(["--network", "lenet", "--cores", "4", "--requests", "5", *flag])
        assert exc.value.code == 2
        assert f"{flag[0]} requires --sweep" in capsys.readouterr().err

    def test_ts_window_requires_a_trace(self, capsys):
        """Time series are only collected for --trace / --perfetto."""
        with pytest.raises(SystemExit) as exc:
            main(["--network", "lenet", "--cores", "4", "--requests", "5",
                  "--ts-window", "4096"])
        assert exc.value.code == 2
        assert "--ts-window requires --trace or --perfetto" in capsys.readouterr().err


class TestSweep:
    def test_sweep_fast_profile(self, capsys):
        assert main(["--sweep", "--profile", "fast"]) == 0
        out = capsys.readouterr().out
        assert "Table S1" in out
        assert "traditional" in out and "structure" in out

    @pytest.mark.parametrize(
        "base, flag",
        [
            ([], ["--memory-channels", "1"]),
            (["--scheduler", "batch"], ["--batch-size", "1"]),
        ],
        ids=["memory_channels", "batch_size"],
    )
    def test_sweep_honours_flag(self, base, flag, capsys):
        """The single-chip sweep serves under the flag, not past it."""
        args = ["--sweep", "--profile", "fast", *base]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main(args + flag) == 0
        assert capsys.readouterr().out != default


    @pytest.mark.parametrize(
        "flag",
        [
            ["--network", "lenet"],
            ["--requests", "40"],
            ["--workload", "mmpp"],
            ["--rate", "5"],
            ["--burst-rate", "99"],
            ["--clients", "3"],
            ["--think", "5"],
            ["--scheme", "structure"],
            ["--group-cores", "4"],
            ["--records", "summary"],
            ["--fastpath", "off"],
        ],
        ids=[
            "network", "requests", "workload", "rate", "burst_rate", "clients",
            "think", "scheme", "group_cores", "records", "fastpath",
        ],
    )
    def test_sweep_rejects_single_run_flag(self, flag, capsys):
        """The sweep serves its own network and load, so the flag is an error."""
        with pytest.raises(SystemExit) as exc:
            main(["--sweep", "--profile", "fast", *flag])
        assert exc.value.code == 2
        assert f"{flag[0]} requires a single run" in capsys.readouterr().err

    def test_sweep_title_names_the_scheduler(self, capsys):
        assert main(["--sweep", "--profile", "fast", "--scheduler", "batch"]) == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert "BATCH dispatch" in title
        assert "FIFO" not in title


class TestEntryPoint:
    def test_serve_main_delegates(self, capsys):
        assert serve_main(
            ["--network", "lenet", "--cores", "4", "--group-cores", "4",
             "--requests", "5", "--rate", "2"]
        ) == 0
        assert "goodput" in capsys.readouterr().out
