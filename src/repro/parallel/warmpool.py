"""Persistent warm worker pool shared by every ``pmap`` call in a process.

Paying pool startup on **every** ``pmap`` call — fork N interpreters,
re-import the package, run a handful of tasks, tear it all down, then do it
again for the next table loop — loses to the serial loop.  This module keeps
**one** ``ProcessPoolExecutor`` alive for the life of the process:

* **Lazy spawn** — nothing is created until the first call that actually
  dispatches to a pool; serial runs never pay a fork.
* **Reuse** — subsequent pool-path ``pmap`` calls submit straight into the
  warm executor (``parallel.pool.reused`` counts them); workers keep their
  imported modules and in-process caches between calls.
* **Recycling** — the pool is torn down and respawned (counted as
  ``parallel.pool.recycled{reason=}``) when a call's effective worker count
  differs from the pool's size in either direction (``grow``/``shrink``:
  the pool's size *is* the call's concurrency), when the cache directory
  its workers were forked under goes stale (``env_changed``: the parent's
  ``REPRO_CACHE_DIR`` moved), or when a worker crash broke it (``broken``).
* **Idle-safe shutdown** — :func:`shutdown` runs via ``atexit``; an
  interpreter exit with an idle warm pool joins its workers cleanly.

Workers start with ``fork`` where the platform has it (cheap, inherits warm
state), else ``spawn``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from ..obs import METRICS

__all__ = ["get_executor", "current_executor", "shutdown", "in_worker"]

_executor: ProcessPoolExecutor | None = None
_size = 0
_fingerprint: str | None = None

#: True in every worker process (set by the pool's initializer); nested
#: ``pmap`` calls read it and stay serial.
_in_worker = False


def _worker_init() -> None:
    global _in_worker
    _in_worker = True


def in_worker() -> bool:
    """True inside a pool worker process."""
    return _in_worker


def env_fingerprint() -> str | None:
    """The ``REPRO_CACHE_DIR`` a pool's workers were created under.

    Fork-started workers snapshot the parent's environment; if the parent
    later moves ``REPRO_CACHE_DIR`` (the benchmark does, per timed run), warm
    workers would silently keep reading the stale directory — so a
    difference here recycles the pool before the next dispatch.
    """
    return os.environ.get("REPRO_CACHE_DIR")


def _stale_reason(workers: int, fingerprint: str | None) -> str | None:
    if _executor is None:
        return None
    if getattr(_executor, "_broken", False):
        return "broken"
    if fingerprint != _fingerprint:
        return "env_changed"
    if workers > _size:
        return "grow"
    if workers < _size:
        return "shrink"
    return None


def get_executor(workers: int) -> ProcessPoolExecutor:
    """The warm executor with exactly ``workers`` processes, spawning or
    recycling it as needed."""
    global _executor, _size, _fingerprint
    fingerprint = env_fingerprint()
    reason = _stale_reason(workers, fingerprint)
    if reason is not None:
        METRICS.inc("parallel.pool.recycled", reason=reason)
        shutdown()
    if _executor is None:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        _executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_worker_init,
        )
        _size = workers
        _fingerprint = fingerprint
        METRICS.inc("parallel.pool.spawned")
    else:
        METRICS.inc("parallel.pool.reused")
    return _executor


def current_executor() -> ProcessPoolExecutor | None:
    """The live warm executor, if any (introspection for tests/benchmarks)."""
    return _executor


def shutdown(wait: bool = True) -> None:
    """Tear down the warm pool (idempotent; re-spawns lazily on next use)."""
    global _executor, _size, _fingerprint
    executor, _executor = _executor, None
    _size, _fingerprint = 0, None
    if executor is not None:
        executor.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown)
