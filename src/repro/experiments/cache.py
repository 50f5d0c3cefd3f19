"""Disk cache for trained models and experiment results.

Training the benchmark networks is the expensive part of the reproduction;
the benchmark harness re-runs simulations freely but should never retrain a
model it has already trained with identical settings.  Artifacts live under
``$REPRO_CACHE_DIR`` (default ``.repro_cache/`` in the working directory):

* ``<key>.npz``  — model state dicts (one array per parameter);
* ``<key>.json`` — plain-data experiment results.

Keys embed a hash of the run's settings, so changing a profile invalidates
stale entries automatically.

Writes are **atomic**: artifacts are written to a temp file in the cache
directory and moved into place with ``os.replace``, so an interrupted run can
never leave a truncated entry that would silently fall back to recompute (or,
worse, half-parse).  Loads report hit/miss counts to the global metrics
registry (``cache.artifact.{hit,miss}`` labeled by artifact kind); an entry
that exists but cannot be read is a miss that also counts
``cache.artifact.corrupt``, so a recompute it forces is never silent.

Concurrency (the parallel runner, ``repro.parallel``) adds two layers:

* an **in-process read-through memo** over ``load_state``/``load_json`` — a
  small per-kind LRU (``cache.memo.{hit,miss}``) that spares repeated disk
  reads of the same artifact within one process; sized per kind by
  :data:`MEMO_CAPACITY` (0 disables).  Memoized states are returned with
  read-only arrays, so an aliasing bug surfaces as an error instead of
  silent cross-call corruption.
* **single-flight claims** (:func:`ensure_state` / :func:`ensure_json`) — a
  lock file per key (see :mod:`repro.parallel.singleflight`) so concurrent
  workers never train the same settings key twice; the losers wait, then load
  the winner's artifact.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..obs import METRICS
from ..parallel.singleflight import run_single_flight

__all__ = [
    "cache_dir",
    "settings_key",
    "load_state",
    "save_state",
    "load_json",
    "save_json",
    "ensure_state",
    "ensure_json",
    "clear_memo",
    "cache_summary",
]


def cache_dir() -> Path:
    """Resolve (and create) the artifact cache directory."""
    root = Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))
    root.mkdir(parents=True, exist_ok=True)
    return root


# -- in-process read-through memo ------------------------------------------------------

_memo_lock = threading.Lock()
_memo: dict[str, OrderedDict[str, Any]] = {"state": OrderedDict(), "json": OrderedDict()}

#: Entries kept per artifact kind.  States are large (full model weights),
#: JSON entries tiny (drain-time memo rows), so the sizes differ by two
#: orders of magnitude.
MEMO_CAPACITY = {"state": 8, "json": 512}


def _memo_key(key: str) -> str:
    # The memo spans cache-directory switches (tests, env changes mid-run),
    # so entries are scoped to the directory they were loaded from.
    return f"{cache_dir()}::{key}"


def _memo_get(kind: str, key: str) -> Any | None:
    cap = MEMO_CAPACITY[kind]
    if cap <= 0:
        return None
    scoped = _memo_key(key)
    with _memo_lock:
        entries = _memo[kind]
        if scoped in entries:
            entries.move_to_end(scoped)
            METRICS.inc("cache.memo.hit", kind=kind)
            return entries[scoped]
    METRICS.inc("cache.memo.miss", kind=kind)
    return None


def _memo_put(kind: str, key: str, value: Any) -> None:
    cap = MEMO_CAPACITY[kind]
    if cap <= 0:
        return
    scoped = _memo_key(key)
    with _memo_lock:
        entries = _memo[kind]
        entries[scoped] = value
        entries.move_to_end(scoped)
        while len(entries) > cap:
            entries.popitem(last=False)


def clear_memo() -> None:
    """Drop the in-process memo (tests, or after an external cache wipe)."""
    with _memo_lock:
        for entries in _memo.values():
            entries.clear()


def _frozen_state(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    frozen = {name: np.array(arr) for name, arr in state.items()}
    for arr in frozen.values():
        arr.flags.writeable = False
    return frozen


def settings_key(name: str, settings: dict[str, Any]) -> str:
    """Stable cache key: a readable name plus a hash of the settings."""
    blob = json.dumps(settings, sort_keys=True, default=str).encode()
    digest = hashlib.sha256(blob).hexdigest()[:12]
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    return f"{safe}-{digest}"


def _atomic_replace(path: Path, write: Callable[[Any], None], mode: str) -> Path:
    """Write via ``write(fileobj)`` into a temp file, then rename over ``path``.

    The temp file lives in the cache directory itself so ``os.replace`` stays
    on one filesystem (rename is atomic there); any failure removes the temp
    file and leaves a pre-existing entry untouched.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as f:
            write(f)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def save_state(key: str, state: dict[str, np.ndarray]) -> Path:
    """Persist a model state dict (atomically), updating the memo."""
    path = cache_dir() / f"{key}.npz"
    result = _atomic_replace(path, lambda f: np.savez(f, **state), "wb")
    _memo_put("state", key, _frozen_state(state))
    return result


def _corrupt(kind: str) -> None:
    """An artifact exists but cannot be read: a miss, counted as corrupt."""
    METRICS.inc("cache.artifact.miss", kind=kind)
    METRICS.inc("cache.artifact.corrupt", kind=kind)


def load_state(key: str) -> dict[str, np.ndarray] | None:
    """Load a cached state dict, or None when absent/corrupt.

    Memo hits return the shared (read-only) arrays; every caller that loads
    weights copies them into model parameters, so sharing is safe and spares
    a disk read plus array allocations per repeated load.
    """
    memo = _memo_get("state", key)
    if memo is not None:
        return dict(memo)
    path = cache_dir() / f"{key}.npz"
    if not path.exists():
        METRICS.inc("cache.artifact.miss", kind="state")
        return None
    try:
        with np.load(path) as data:
            state = {name: data[name] for name in data.files}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        _corrupt("state")
        return None
    METRICS.inc("cache.artifact.hit", kind="state")
    frozen = _frozen_state(state)
    _memo_put("state", key, frozen)
    return dict(frozen)


def load_json(key: str) -> dict | None:
    """Load a cached JSON entry, or None when absent/corrupt.

    Mirrors :func:`load_state`'s tolerance: unreadable or unparseable files
    (and non-object payloads) behave like cache misses, counted as corrupt.
    """
    memo = _memo_get("json", key)
    if memo is not None:
        return copy.deepcopy(memo)
    path = cache_dir() / f"{key}.json"
    if not path.exists():
        METRICS.inc("cache.artifact.miss", kind="json")
        return None
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError):  # includes JSON and UTF-8 decode errors
        data = None
    if not isinstance(data, dict):
        _corrupt("json")
        return None
    METRICS.inc("cache.artifact.hit", kind="json")
    _memo_put("json", key, copy.deepcopy(data))
    return data


def save_json(key: str, data: dict) -> Path:
    """Persist JSON-serializable plain data under ``key`` (atomically)."""
    path = cache_dir() / f"{key}.json"
    result = _atomic_replace(
        path, lambda f: json.dump(data, f, indent=2, default=float), "w"
    )
    # Memoize the serialization round trip, so a memo hit returns exactly
    # what a fresh disk read would (e.g. numpy scalars coerced to floats).
    _memo_put("json", key, json.loads(json.dumps(data, default=float)))
    return result


# -- single-flight read-through --------------------------------------------------------


def ensure_state(key: str, compute: Callable[[], dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Load ``key``'s state, or compute-and-save it exactly once across processes.

    ``compute`` (e.g. a training run) executes under a per-key lock-file
    claim; concurrent claimants wait and then load the winner's artifact, so
    a parallel sweep never trains the same settings key twice.
    """

    def _compute() -> dict[str, np.ndarray]:
        state = compute()
        save_state(key, state)
        return state

    return run_single_flight(
        cache_dir() / f"{key}.lock",
        check=lambda: load_state(key),
        compute=_compute,
        kind="state",
    )


def ensure_json(key: str, compute: Callable[[], dict]) -> dict:
    """Load ``key``'s JSON entry, or compute-and-save it exactly once across
    processes (``compute`` returns JSON-serializable plain data)."""

    def _compute() -> dict:
        data = compute()
        save_json(key, data)
        return load_json(key) or data  # serialization round trip, as cache hits see it

    return run_single_flight(
        cache_dir() / f"{key}.lock",
        check=lambda: load_json(key),
        compute=_compute,
        kind="json",
    )


def cache_summary() -> str:
    """Per-run cache + parallel-dispatch report (two lines) for run summaries.

    Reads the global metrics registry, so in a parallel run it reflects the
    merged counts from every worker process.  The ``[cache]`` line counts
    corrupt artifacts among the misses; the ``[parallel]`` line says how
    every ``pmap`` call dispatched and, for each serial fallback reason that
    occurred, how often (``parallel.dispatch.serial{reason=}``).
    """
    parts = []
    for kind in ("state", "json"):
        hits = METRICS.counter("cache.artifact.hit", kind=kind)
        misses = METRICS.counter("cache.artifact.miss", kind=kind)
        memo_hits = METRICS.counter("cache.memo.hit", kind=kind)
        corrupt = METRICS.counter("cache.artifact.corrupt", kind=kind)
        parts.append(
            f"{kind} {hits:g}/{misses:g} hit/miss "
            f"(+{memo_hits:g} memo, {corrupt:g} corrupt)"
        )
    def lock_count(event: str) -> float:
        return sum(
            METRICS.counter(f"cache.lock.{event}", kind=kind)
            for kind in ("state", "json", "artifact")
        )

    locks = " ".join(
        f"{event}={lock_count(event):g}"
        for event in ("acquired", "contended", "stale_takeover")
    )
    dispatch = " ".join(
        f"{path}={METRICS.counter('parallel.dispatch', path=path):g}"
        for path in ("serial", "pool")
    )
    prefix = "parallel.dispatch.serial{reason="
    reasons = " ".join(
        f"{key[len(prefix):-1]}×{count:g}"
        for key, count in METRICS.snapshot()["counters"].items()
        if key.startswith(prefix) and count
    )
    return (
        f"[cache] {' · '.join(parts)} · locks {locks}\n"
        f"[parallel] dispatch {dispatch}"
        + (f" (serial reasons: {reasons})" if reasons else "")
    )
