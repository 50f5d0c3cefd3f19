"""Warm pool: reuse across pmap calls and recycling."""

from __future__ import annotations

import os

from repro.obs import METRICS
from repro.parallel import pmap, warmpool


def _pid_of(_: int) -> int:
    return os.getpid()


class TestWarmReuse:
    def test_consecutive_pmaps_reuse_the_same_workers(self):
        METRICS.reset()
        calls = []
        for _ in range(3):
            served = set(pmap(_pid_of, range(8), workers=2))
            calls.append((served, set(warmpool.current_executor()._processes)))
        pool = calls[0][1]
        assert len(pool) == 2 and os.getpid() not in pool
        # The whole point of the warm pool: later calls hit the same
        # processes instead of paying spawn + re-import again.  Which of
        # them picks up each tiny task is scheduling (one worker can drain
        # all eight before a slow fork finishes the other), so the check is
        # on the pool's processes, and every task ran on one of them.
        for served, processes in calls:
            assert processes == pool
            assert served <= pool
        assert METRICS.counter("parallel.pool.spawned") == 1
        assert METRICS.counter("parallel.pool.reused") == 2

    def test_pool_spawns_lazily(self):
        METRICS.reset()
        assert warmpool.current_executor() is None
        pmap(_pid_of, range(4), workers=1)  # serial: still no pool
        assert warmpool.current_executor() is None
        pmap(_pid_of, range(4), workers=2)
        assert warmpool.current_executor() is not None

    def test_shutdown_is_idempotent_and_respawns_lazily(self):
        pmap(_pid_of, range(4), workers=2)
        warmpool.shutdown()
        warmpool.shutdown()
        assert warmpool.current_executor() is None
        assert set(pmap(_pid_of, range(4), workers=2)) != {os.getpid()}


class TestRecycling:
    def test_env_change_recycles_the_pool(self, monkeypatch):
        METRICS.reset()
        first = set(pmap(_pid_of, range(8), workers=2))
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/warmpool-recycle-test")
        second = set(pmap(_pid_of, range(8), workers=2))
        # Fork workers snapshot the parent env; a moved cache directory must
        # never leave warm workers reading the stale one.
        assert first.isdisjoint(second)
        assert METRICS.counter("parallel.pool.recycled", reason="env_changed") == 1
        assert METRICS.counter("parallel.pool.spawned") == 2

    def test_workers_and_pool_knobs_do_not_recycle(self, monkeypatch):
        METRICS.reset()
        pmap(_pid_of, range(8), workers=2)
        # Only the cache directory is read in workers; other variables,
        # REPRO_* names included, leave the warm pool alone.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pmap(_pid_of, range(8), workers=2)
        assert METRICS.counter("parallel.pool.spawned") == 1
        assert METRICS.counter("parallel.pool.recycled", reason="env_changed") == 0

    def test_growing_worker_count_recycles(self):
        METRICS.reset()
        pmap(_pid_of, range(8), workers=2)
        pmap(_pid_of, range(8), workers=4)
        assert METRICS.counter("parallel.pool.recycled", reason="grow") == 1
        assert METRICS.counter("parallel.pool.spawned") == 2
        assert warmpool.current_executor()._max_workers == 4

    def test_shrinking_worker_count_recycles(self):
        # The pool's size is the call's concurrency, so a smaller call must
        # not run on a bigger pool left by an earlier one.
        METRICS.reset()
        pmap(_pid_of, range(8), workers=4)
        pids = pmap(_pid_of, range(8), workers=2)
        assert METRICS.counter("parallel.pool.recycled", reason="shrink") == 1
        assert METRICS.counter("parallel.pool.spawned") == 2
        assert warmpool.current_executor()._max_workers == 2
        assert len(set(pids)) <= 2

