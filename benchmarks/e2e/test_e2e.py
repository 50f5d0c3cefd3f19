"""Tests of the end-to-end benchmark itself.

Run from the repository root (under a minute)::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _driver(workload: str, cwd: Path = ROOT, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_runs_at_smoke_size(workload):
    proc = _driver(workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"].keys() == run.END_TO_END.keys()
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_metric_is_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e.keys() == run.END_TO_END.keys()
    for name, m in e2e.items():
        assert NAME.match(name)
        assert m["unit"] == run.END_TO_END[name]
        assert m["better"] in ("lower", "higher")
        assert 0 <= m["bound"] <= 0.25
    layers = {m["name"]: m for m in spec["per_layer"]}
    assert layers.keys() == tracing.per_layer_units().keys()
    for name, m in layers.items():
        assert NAME.match(name)
        assert m["unit"] == tracing.per_layer_units()[name]
        assert m["better"] in ("lower", "higher")


def test_traced_run_leaves_outputs_unchanged(tmp_path):
    plain = run.measure("plans", 0, 1, False, True, tmp_path)["sessions"][0]
    traced = run.measure("plans", 0, 1, True, True, tmp_path)["sessions"][0]
    assert traced["passes"][0]["digests"] == plain["passes"][0]["digests"]
    assert traced["per_layer"]["sim.simulate.calls"] > 0


def test_wrappers_restore_the_originals(cache_dir):
    import workloads  # noqa: F401  (imports every traced repro module)

    def current() -> list:
        found = []
        for _, _, path in tracing.TARGETS:
            owner, attr = tracing._resolve(path)
            found.append(owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        return found

    def holders(fn) -> list[tuple[str, str]]:
        return [(m, k) for m, mod in sys.modules.items() if m.startswith("repro") and mod
                for k, v in vars(mod).items() if v is fn]

    before = current()
    held = [holders(fn) for fn in before]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(current(), before))
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(current(), before))
    assert [holders(fn) for fn in before] == held


def test_self_time_arithmetic_on_a_synthetic_tree():
    # a [0, 100] holds b [10, 40] and c [50, 90]; c holds d [60, 70].
    spans = [
        ("b", "x", "p", 2, 1, 10, 40),
        ("d", "x", "p", 4, 3, 60, 70),
        ("c", "x", "p", 3, 1, 50, 90),
        ("a", "x", "p", 1, None, 0, 100),
        ("b", "x", "p", 5, None, 105, 110),
    ]
    rows, unattributed, wall = tracing.layer_table(spans, [("p", 0, 120)])
    assert rows == {"a": [1, 100, 30], "b": [2, 35, 35], "c": [1, 40, 30], "d": [1, 10, 10]}
    assert unattributed == 15 and wall == 120
    assert sum(r[2] for r in rows.values()) + unattributed == wall


def test_seed_changes_the_arrival_streams(cache_dir):
    import workloads

    def first_run(seed: int) -> str:
        op = workloads.BUILDERS["serve-open"](seed, True).ops[0]
        return op.summarize(op.run())["records"]

    assert first_run(0) == first_run(0)
    assert first_run(0) != first_run(1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _driver("plans", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
