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
  the pool's size *is* the call's concurrency), when the environment it was
  forked under goes stale (``env_changed``: any ``REPRO_*`` variable other
  than ``REPRO_WORKERS``, a parent-side dispatch input), or when a worker
  crash broke it (``broken``).
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

__all__ = ["get_executor", "current_executor", "shutdown"]

_executor: ProcessPoolExecutor | None = None
_size = 0
_fingerprint: tuple | None = None


def _worker_init() -> None:
    os.environ["REPRO_IN_WORKER"] = "1"


def env_fingerprint() -> tuple:
    """The ``REPRO_*`` environment a pool's workers were created under.

    Fork-started workers snapshot the parent's environment; if the parent
    later flips ``REPRO_CACHE_DIR`` (the benchmark does, per timed run) or a
    compute knob, warm workers would silently keep the stale value — so any
    difference here recycles the pool before the next dispatch.
    """
    return tuple(
        sorted(
            (k, v)
            for k, v in os.environ.items()
            if k.startswith("REPRO_") and k != "REPRO_WORKERS"
        )
    )


def _stale_reason(workers: int, fingerprint: tuple) -> str | None:
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
