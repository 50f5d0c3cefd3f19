"""Dispatch-policy behavior on hand-built request queues."""

import pytest

from repro.serve.cluster import Cluster
from repro.serve.scheduler import (
    BatchingScheduler,
    FIFOScheduler,
    PriorityScheduler,
    SJFScheduler,
    make_scheduler,
)
from repro.serve.workload import Request

from .services import one_stage


def _cluster(latencies: dict[str, int]) -> Cluster:
    services = {
        name: one_stage(name, 4, lat)
        for name, lat in latencies.items()
    }
    return Cluster(total_cores=4, group_cores=4, services=services)


def _req(rid, arrival, model="m", priority=0):
    return Request(rid=rid, arrival=arrival, model=model, priority=priority)


class TestFIFO:
    def test_arrival_order(self):
        s = FIFOScheduler()
        for r in (_req(0, 5), _req(1, 7), _req(2, 9)):
            s.enqueue(r)
        order = [s.next_batch(10)[0].rid for _ in range(3)]
        assert order == [0, 1, 2]
        assert s.next_batch(10) == []


class TestSJF:
    def test_shortest_service_first(self):
        cluster = _cluster({"fast": 100, "slow": 1000})
        s = SJFScheduler()
        s.bind(cluster)
        s.enqueue(_req(0, 1, "slow"))
        s.enqueue(_req(1, 2, "fast"))
        s.enqueue(_req(2, 3, "slow"))
        assert [s.next_batch(5)[0].rid for _ in range(3)] == [1, 0, 2]

    def test_fifo_within_equal_service(self):
        cluster = _cluster({"m": 100})
        s = SJFScheduler()
        s.bind(cluster)
        for r in (_req(0, 3), _req(1, 1), _req(2, 2)):
            s.enqueue(r)
        assert [s.next_batch(5)[0].rid for _ in range(3)] == [1, 2, 0]

    def test_requires_bind(self):
        with pytest.raises(RuntimeError):
            SJFScheduler().enqueue(_req(0, 1))


class TestPriority:
    def test_highest_priority_first_then_fifo(self):
        s = PriorityScheduler()
        s.enqueue(_req(0, 1, priority=0))
        s.enqueue(_req(1, 2, priority=5))
        s.enqueue(_req(2, 3, priority=5))
        assert [s.next_batch(5)[0].rid for _ in range(3)] == [1, 2, 0]


class TestBatching:
    def test_batches_consecutive_same_model(self):
        s = BatchingScheduler(max_batch=3)
        for r in (_req(0, 1, "a"), _req(1, 2, "a"), _req(2, 3, "b"), _req(3, 4, "a")):
            s.enqueue(r)
        first = s.next_batch(5)
        assert [r.rid for r in first] == [0, 1]  # stops at the model change
        assert [r.rid for r in s.next_batch(5)] == [2]
        assert [r.rid for r in s.next_batch(5)] == [3]

    def test_respects_max_batch(self):
        s = BatchingScheduler(max_batch=2)
        for i in range(5):
            s.enqueue(_req(i, i, "a"))
        assert len(s.next_batch(9)) == 2
        assert len(s) == 3

    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError):
            BatchingScheduler(max_batch=0)


class TestFactory:
    def test_known_names(self):
        for name in ("fifo", "sjf", "priority", "batch"):
            assert make_scheduler(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("round-robin")
