"""Single-flight claims over shared artifacts, via lock files.

When several worker processes want the same expensive artifact (a trained
model in ``.repro_cache``), exactly one should compute it while the rest wait
and then load the result.  The claim is a lock file created with
``O_CREAT | O_EXCL`` (atomic on every POSIX filesystem) holding the owner's
pid and start time; waiters poll for the artifact, and take over claims whose
owner died or exceeded the staleness budget (:data:`STALE_AFTER_S`, one
hour — longer than any single training job).

Takeover is deliberately optimistic: two waiters that both observe a stale
claim can race to break it, in which case both may compute the artifact.
Writes are atomic (``os.replace`` in the cache layer), so the worst case is
duplicated work, never a corrupt artifact — the right trade for a failure
path that only occurs after a crashed or wedged owner.

Metrics: ``cache.lock.acquired`` / ``.contended`` / ``.stale_takeover``
(labeled by artifact kind) make claim behaviour visible per run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, TypeVar

from ..obs import METRICS

__all__ = ["run_single_flight"]

V = TypeVar("V")

_POLL_S = 0.05

#: Seconds after which a claim counts as stale even if its owner is alive.
STALE_AFTER_S = 3600.0


def _try_acquire(lock_path: Path) -> bool:
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as f:
        json.dump({"pid": os.getpid(), "t": time.time()}, f)
    return True


def _release(lock_path: Path) -> None:
    try:
        os.unlink(lock_path)
    except OSError:
        pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def _is_stale(lock_path: Path, stale_after: float) -> bool:
    """A claim is stale when its owner process is gone or it outlived the
    staleness budget (covers owners on other hosts, where pids mean nothing)."""
    try:
        raw = lock_path.read_text()
        age = time.time() - lock_path.stat().st_mtime
    except OSError:
        return False  # released (or being rewritten) — not ours to break
    try:
        owner = json.loads(raw)
        pid = int(owner["pid"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        # Unparseable claim (e.g. read mid-write): only age can judge it.
        return age > stale_after
    if not _pid_alive(pid):
        return True
    return age > stale_after


def run_single_flight(
    lock_path: str | Path,
    *,
    check: Callable[[], V | None],
    compute: Callable[[], V],
    kind: str = "artifact",
    poll_s: float = _POLL_S,
) -> V:
    """Return ``check()``'s artifact, computing it at most once across processes.

    ``check`` loads the artifact (None = absent); ``compute`` builds *and
    persists* it.  The caller that wins the claim double-checks ``check``
    before computing (the previous owner may have finished between our first
    look and the acquisition), so a warm artifact is never rebuilt.
    """
    lock_path = Path(lock_path)
    value = check()
    if value is not None:
        return value

    contended = False
    while True:
        if _try_acquire(lock_path):
            METRICS.inc("cache.lock.acquired", kind=kind)
            try:
                value = check()
                if value is None:
                    value = compute()
                return value
            finally:
                _release(lock_path)
        if not contended:
            METRICS.inc("cache.lock.contended", kind=kind)
            contended = True
        time.sleep(poll_s)
        value = check()
        if value is not None:
            return value
        if _is_stale(lock_path, STALE_AFTER_S):
            METRICS.inc("cache.lock.stale_takeover", kind=kind)
            _release(lock_path)
