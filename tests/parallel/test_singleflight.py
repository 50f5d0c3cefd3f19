"""Single-flight lock-file claims: one computer, waiting losers, stale takeover."""

from __future__ import annotations

import json
import multiprocessing
import os
import time

from repro.obs import METRICS
from repro.parallel import singleflight
from repro.parallel.singleflight import run_single_flight


def _artifact(tmp_path):
    return tmp_path / "artifact.json"


def _load(path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


class TestSerialBehaviour:
    def test_computes_when_absent(self, tmp_path):
        METRICS.reset()
        path = _artifact(tmp_path)

        def compute():
            path.write_text(json.dumps({"who": "me"}))
            return {"who": "me"}

        value = run_single_flight(
            tmp_path / "a.lock", check=lambda: _load(path), compute=compute
        )
        assert value == {"who": "me"}
        assert not (tmp_path / "a.lock").exists()
        assert METRICS.counter("cache.lock.acquired", kind="artifact") == 1

    def test_fast_path_skips_lock(self, tmp_path):
        METRICS.reset()
        path = _artifact(tmp_path)
        path.write_text(json.dumps({"warm": True}))
        value = run_single_flight(
            tmp_path / "a.lock",
            check=lambda: _load(path),
            compute=lambda: (_ for _ in ()).throw(AssertionError("must not compute")),
        )
        assert value == {"warm": True}
        assert METRICS.counter("cache.lock.acquired", kind="artifact") == 0

    def test_stale_lock_of_dead_owner_is_broken(self, tmp_path):
        METRICS.reset()
        dead = multiprocessing.get_context("fork").Process(target=os._exit, args=(0,))
        dead.start()
        dead.join()
        lock = tmp_path / "a.lock"
        lock.write_text(json.dumps({"pid": dead.pid, "t": time.time()}))

        path = _artifact(tmp_path)

        def compute():
            path.write_text(json.dumps({"takeover": True}))
            return {"takeover": True}

        value = run_single_flight(
            lock, check=lambda: _load(path), compute=compute, poll_s=0.01
        )
        assert value == {"takeover": True}
        assert METRICS.counter("cache.lock.stale_takeover", kind="artifact") == 1
        assert METRICS.counter("cache.lock.contended", kind="artifact") == 1
        assert METRICS.counter("cache.lock.acquired", kind="artifact") == 1

    def test_aged_out_lock_of_live_owner_is_broken(self, tmp_path, monkeypatch):
        METRICS.reset()
        monkeypatch.setattr(singleflight, "STALE_AFTER_S", 0.01)
        lock = tmp_path / "a.lock"
        lock.write_text(json.dumps({"pid": os.getpid(), "t": time.time() - 60}))
        os.utime(lock, (time.time() - 60, time.time() - 60))

        path = _artifact(tmp_path)

        def compute():
            path.write_text(json.dumps({"aged": True}))
            return {"aged": True}

        value = run_single_flight(
            lock, check=lambda: _load(path), compute=compute, poll_s=0.01
        )
        assert value == {"aged": True}
        assert METRICS.counter("cache.lock.stale_takeover", kind="artifact") == 1


def _racer(tmp_path: str, barrier, idx: int):
    """One contender: records who actually computed in compute.log (O_APPEND)."""
    from pathlib import Path

    root = Path(tmp_path)
    artifact = root / "artifact.json"
    log = root / "compute.log"

    def compute():
        fd = os.open(log, os.O_CREAT | os.O_APPEND | os.O_WRONLY)
        with os.fdopen(fd, "w") as f:
            f.write(f"{idx}\n")
        time.sleep(0.2)  # long enough that the loser must wait on the claim
        tmp = root / f".artifact-{idx}.tmp"
        tmp.write_text(json.dumps({"winner": idx}))
        os.replace(tmp, artifact)
        return {"winner": idx}

    barrier.wait()
    value = run_single_flight(
        root / "artifact.lock",
        check=lambda: _load(artifact),
        compute=compute,
        poll_s=0.01,
    )
    (root / f"result-{idx}.json").write_text(json.dumps(value))


class TestCrossProcessRace:
    def test_exactly_one_of_two_processes_computes(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_racer, args=(str(tmp_path), barrier, i))
            for i in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0

        computed = (tmp_path / "compute.log").read_text().split()
        assert len(computed) == 1  # single flight: exactly one trainer
        winner = int(computed[0])
        # Both contenders returned the winner's artifact.
        for i in range(2):
            value = json.loads((tmp_path / f"result-{i}.json").read_text())
            assert value == {"winner": winner}
        assert not (tmp_path / "artifact.lock").exists()
