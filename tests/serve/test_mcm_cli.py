"""repro-serve multi-chip-module flags: single runs, sweeps, validation."""

import pytest

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


class TestMcmSingleRun:
    def test_pipelined_run_reports_stages(self, capsys):
        assert main(
            ["--network", "lenet", "--chips", "2", "--stages", "2", "--cores", "8",
             "--requests", "20", "--rate", "10", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "2-chip MCM" in out
        assert "stage 0" in out and "stage 1" in out
        assert "steady-state interval" in out
        assert "SLO report" in out

    def test_interchip_override_reflected(self, capsys):
        args = ["--network", "lenet", "--chips", "2", "--stages", "2",
                "--cores", "4", "--requests", "10", "--rate", "5"]
        assert main(args) == 0
        base = capsys.readouterr().out
        assert main(args + ["--interchip-bytes-per-cycle", "8"]) == 0
        slow = capsys.readouterr().out
        assert "8 B/cycle" in slow
        assert base != slow

    def test_replicated_pipelines(self, capsys):
        assert main(
            ["--network", "lenet", "--chips", "4", "--stages", "2", "--cores", "4",
             "--requests", "20", "--rate", "10"]
        ) == 0
        assert "2 x 2-chip" in capsys.readouterr().out


class TestMcmValidation:
    def test_stages_without_chips_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--network", "lenet", "--stages", "2", "--cores", "8"])

    def test_stages_must_tile_chips(self, capsys):
        with pytest.raises(SystemExit):
            main(["--network", "lenet", "--chips", "4", "--stages", "3",
                  "--cores", "8"])

    def test_nonpositive_chips_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--network", "lenet", "--chips", "0", "--cores", "8"])

    def test_group_cores_rejected_with_chips(self, capsys):
        """An MCM's replica groups are its pipelines, not core groups."""
        with pytest.raises(SystemExit) as exc:
            main(["--network", "lenet", "--chips", "2", "--cores", "8",
                  "--requests", "20", "--group-cores", "4"])
        assert exc.value.code == 2
        assert "--group-cores requires --chips 1" in capsys.readouterr().err

    def test_interchip_flags_rejected_on_one_chip(self, capsys):
        """A single chip has no inter-chip link to override."""
        with pytest.raises(SystemExit) as exc:
            main(["--network", "lenet", "--cores", "8", "--requests", "20",
                  "--interchip-bytes-per-cycle", "8"])
        assert exc.value.code == 2
        assert "--interchip-bytes-per-cycle requires --chips > 1" in (
            capsys.readouterr().err
        )

    def test_stages_rejected_in_sweep(self, capsys):
        """The sweep races every stage count, so a fixed depth is an error."""
        with pytest.raises(SystemExit):
            main(["--chips", "4", "--sweep", "--stages", "2", "--profile", "fast"])


class TestMcmSweep:
    def test_sweep_fast_profile_has_global_frontier(self, capsys):
        assert main(["--sweep", "--chips", "4", "--profile", "fast"]) == 0
        out = capsys.readouterr().out
        assert "MCM" in out
        assert "frontier" in out.lower()
        # Both single-chip and pipelined rows compete in one table.
        assert "1s x" in out and "2s x" in out


class TestSearchStages:
    def test_searched_split_reported_and_not_worse(self, capsys):
        args = ["--network", "convnet", "--chips", "4", "--requests", "20",
                "--rate", "10"]
        assert main(args) == 0
        balanced = capsys.readouterr().out
        assert "(balanced)" in balanced
        assert main(args + ["--search-stages"]) == 0
        searched = capsys.readouterr().out
        assert "(searched)" in searched

        def interval(out):
            line = next(l for l in out.splitlines() if "steady-state interval" in l)
            return int(line.split("interval")[1].split("cycles")[0].replace(",", ""))

        assert interval(searched) <= interval(balanced)

    def test_search_stages_requires_chips(self, capsys):
        with pytest.raises(SystemExit):
            main(["--network", "lenet", "--search-stages"])

    def test_search_stages_rejected_in_sweep(self, capsys):
        with pytest.raises(SystemExit):
            main(["--chips", "4", "--sweep", "--search-stages", "--profile", "fast"])
