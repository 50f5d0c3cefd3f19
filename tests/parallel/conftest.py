"""Parallel-runner tests touch process-global obs/pool state; restore it each test."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.experiments.cache import clear_memo
from repro.parallel import warmpool


@pytest.fixture(autouse=True)
def clean_parallel_state(monkeypatch):
    # Multi-worker behavior tests must exercise real pools even on small CI
    # boxes, so pretend there are plenty of CPUs (resolve_workers clamps to
    # os.cpu_count otherwise); the clamp itself is tested explicitly.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    obs.disable_tracing()
    obs.get_collector().clear()
    obs.nocprof.disable_noc_profiling()
    obs.nocprof.clear_profiles()
    clear_memo()
    yield
    # The warm pool outlives pmap calls by design; tests must not leak it
    # into each other (worker pids, spawn/reuse counters).
    warmpool.shutdown()
    obs.disable_tracing()
    obs.get_collector().clear()
    obs.nocprof.disable_noc_profiling()
    obs.nocprof.clear_profiles()
    clear_memo()
