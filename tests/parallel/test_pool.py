"""pmap: ordering, dispatch, large callables, error propagation, obs merge."""

from __future__ import annotations

import functools
import os
import warnings

import numpy as np
import pytest

from repro import obs
from repro.obs import METRICS
from repro.parallel import in_worker, pmap, resolve_workers, warmpool


def _snapshot_without_parallel_keys() -> dict:
    """Metrics snapshot minus the dispatch bookkeeping pmap itself emits."""
    snap = METRICS.snapshot()
    return {
        section: {
            k: v for k, v in entries.items() if not k.startswith("parallel.")
        }
        for section, entries in snap.items()
    }


def _square(x: int) -> int:
    return x * x


def _pid_of(_: int) -> int:
    return os.getpid()


def _boom(x: int) -> int:
    if x == 3:
        raise ValueError(f"task {x} exploded")
    return x


def _nested_view(_: int) -> tuple[bool, int, list[int]]:
    """What a task launched by an outer pmap sees when it pmaps again."""
    inner = pmap(_pid_of, range(3), workers=4)
    return in_worker(), resolve_workers(4), inner


def _traced_task(x: int) -> int:
    METRICS.inc("test.pool.work")
    METRICS.observe("test.pool.item", x)
    with obs.span("child_work", item=x):
        pass
    return x


def _weights_digest(x: int, weights: np.ndarray) -> tuple:
    return x, str(weights.dtype), weights.nbytes, float(weights[x::7].sum())


class TestWorkerResolution:
    def test_default_is_serial(self):
        assert resolve_workers(None) == 1

    def test_explicit_arg_beats_env(self, monkeypatch):
        """The count is the argument; a REPRO_WORKERS export changes nothing."""
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert resolve_workers(2) == 2
        assert resolve_workers(None) == 1

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert resolve_workers(None) == 1

    def test_worker_marker_forces_serial(self, monkeypatch):
        monkeypatch.setattr(warmpool, "_in_worker", True)
        assert in_worker()
        assert resolve_workers(8) == 1

    def test_clamped_to_cpu_count_with_warning(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert resolve_workers(6) == 2

    def test_at_or_below_cpu_count_passes_through(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert resolve_workers(4) == 4
        assert resolve_workers(3) == 3

    def test_unknown_cpu_count_clamps_to_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        with pytest.warns(RuntimeWarning):
            assert resolve_workers(2) == 1


class TestPmap:
    def test_results_in_input_order(self):
        assert pmap(_square, range(8), workers=2) == [x * x for x in range(8)]

    def test_serial_path_runs_in_process(self):
        METRICS.reset()
        pids = pmap(_pid_of, range(3), workers=1)
        assert set(pids) == {os.getpid()}
        assert "parallel.pmap.pools{pool=_pid_of}" not in METRICS.snapshot()["counters"]

    def test_parallel_path_uses_other_processes(self):
        pids = pmap(_pid_of, range(8), workers=2)
        assert os.getpid() not in pids
        assert 1 <= len(set(pids)) <= 2

    def test_single_item_stays_serial(self):
        assert pmap(_pid_of, [0], workers=4) == [os.getpid()]

    def test_nested_pmap_degrades_to_serial(self):
        for marked, effective, inner_pids in pmap(_nested_view, range(2), workers=2):
            # Inside a worker the marker is set, any requested count resolves
            # to 1, and the nested pmap ran in the worker's own process.
            assert marked is True
            assert effective == 1
            assert len(set(inner_pids)) == 1
            assert os.getpid() not in inner_pids

    def test_exception_propagates(self):
        METRICS.reset()
        with pytest.raises(ValueError, match="task 3 exploded"):
            pmap(_boom, range(6), workers=2, label="boom")
        assert METRICS.counter("parallel.pmap.failed", pool="boom") == 1

    def test_pool_metrics(self):
        METRICS.reset()
        pmap(_square, range(5), workers=2, label="sq")
        assert METRICS.counter("parallel.pmap.pools", pool="sq") == 1
        assert METRICS.counter("parallel.pmap.tasks", pool="sq") == 5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_large_partial_matches_serial(self, dtype):
        # A callable closing over a dataset-sized array ships with every
        # task; workers must compute exactly what the serial loop does.
        weights = np.random.default_rng(7).standard_normal(1 << 18).astype(dtype)
        assert weights.nbytes >= 1 << 20
        fn = functools.partial(_weights_digest, weights=weights)
        METRICS.reset()
        out = pmap(fn, range(6), workers=2)
        assert METRICS.counter("parallel.dispatch", path="pool") == 1
        assert out == [fn(x) for x in range(6)]


class TestAdaptiveDispatch:
    def test_single_cpu_falls_back_to_serial(self, monkeypatch):
        # On a 1-CPU box a pool can only lose, so a 2-worker request must
        # run in-process.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        METRICS.reset()
        with pytest.warns(RuntimeWarning):
            pids = pmap(_pid_of, range(6), workers=2)
        assert set(pids) == {os.getpid()}
        assert METRICS.counter("parallel.dispatch", path="serial") == 1
        assert METRICS.counter("parallel.dispatch.serial", reason="cpu_clamp") == 1

    def test_single_item_never_warns_about_clamp(self, monkeypatch):
        # One item stays serial whatever the worker count, so asking for
        # more workers than CPUs is no oversubscription worth a warning.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        METRICS.reset()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pmap(_pid_of, [0], workers=8) == [os.getpid()]
        assert METRICS.counter("parallel.dispatch.serial", reason="single_item") == 1
        assert METRICS.counter("parallel.dispatch.serial", reason="cpu_clamp") == 0

    def test_pool_path_records_dispatch_metric(self):
        METRICS.reset()
        pmap(_square, range(6), workers=2)
        assert METRICS.counter("parallel.dispatch", path="pool") == 1
        assert METRICS.counter("parallel.dispatch", path="serial") == 0

    def test_unpicklable_callable_falls_back_to_serial(self):
        METRICS.reset()
        out = pmap(lambda x: x + 1, range(4), workers=2)
        assert out == [1, 2, 3, 4]
        assert METRICS.counter("parallel.dispatch.serial", reason="unpicklable") == 1

    def test_nested_calls_record_no_dispatch(self, monkeypatch):
        monkeypatch.setattr(warmpool, "_in_worker", True)
        METRICS.reset()
        pmap(_square, range(4), workers=4)
        assert METRICS.counter("parallel.dispatch", path="serial") == 0


class TestObsMerge:
    def test_worker_metrics_fold_into_parent(self):
        METRICS.reset()
        pmap(_traced_task, range(6), workers=2)
        assert METRICS.counter("test.pool.work") == 6

    def test_worker_spans_adopt_under_pmap_span(self):
        obs.enable_tracing()
        METRICS.reset()
        pmap(_traced_task, range(4), workers=2, label="traced")
        records = obs.get_collector().records()
        by_name = {}
        for rec in records:
            by_name.setdefault(rec["name"], []).append(rec)
        assert len(by_name["pmap"]) == 1
        pmap_id = by_name["pmap"][0]["id"]
        children = by_name["child_work"]
        assert len(children) == 4
        # Every shipped-back child root hangs off the parent's pmap span.
        assert {c["parent"] for c in children} == {pmap_id}
        # Adopted ids were remapped into the parent collector's id space.
        assert len({r["id"] for r in records}) == len(records)

    def test_merge_matches_serial_run(self):
        # Metrics and spans merged from worker payloads, in input order,
        # equal what the same tasks record when run in-process.
        obs.enable_tracing()
        METRICS.reset()
        [_traced_task(x) for x in range(12)]
        serial_metrics = _snapshot_without_parallel_keys()
        serial_spans = [
            (r["name"], r["attrs"]) for r in obs.get_collector().records()
        ]
        obs.get_collector().clear()
        METRICS.reset()
        pmap(_traced_task, range(12), workers=2)
        assert _snapshot_without_parallel_keys() == serial_metrics
        pooled_spans = [
            (r["name"], r["attrs"])
            for r in obs.get_collector().records()
            if r["name"] != "pmap"
        ]
        assert pooled_spans == serial_spans
