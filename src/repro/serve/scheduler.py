"""Dispatch policies: which queued request(s) a free replica group runs next.

All policies are deterministic: ties break on arrival order, then request
id.  The simulator calls :meth:`Scheduler.bind` once with the cluster (so
policies can look up service times), :meth:`enqueue` on every arrival, and
:meth:`next_batch` whenever a replica group frees up.

* :class:`FIFOScheduler` — arrival order; the baseline every queueing result
  is quoted against.
* :class:`SJFScheduler` — shortest-job-first by the request's service time
  on one group; minimizes mean latency at the price of starving long jobs.
* :class:`PriorityScheduler` — highest ``Request.priority`` first (per-model
  priorities are assigned by the workload's ``priorities`` map).
* :class:`BatchingScheduler` — FIFO, but dequeues up to ``max_batch``
  consecutive same-model requests at once; the batch pipelines its DRAM
  input loads behind compute, so only the first load is exposed
  (:meth:`~repro.mcm.service.PipelineService.batch_cycles`).

Each policy additionally exposes an **index queue** (:meth:`Scheduler.index_queue`)
— the same policy over plain request *ids* instead of ``Request`` objects,
consumed by the columnar loop (:mod:`repro.serve.fastpath`).  An index
queue's pop order is pinned to the object policy's by construction: FIFO
and batching are positional (a queue position *is* a request id for
column-ordered arrivals), and the heap policies push the identical sort
key minus the trailing ``Request`` payload, which never participated in
ordering (``rid`` is unique).  Subclasses that override ``next_batch``
return ``None`` and fall back to the object loop.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque

from .cluster import Cluster
from .workload import Request

__all__ = [
    "Scheduler",
    "IndexQueue",
    "FIFOScheduler",
    "SJFScheduler",
    "PriorityScheduler",
    "BatchingScheduler",
    "make_scheduler",
    "SCHEDULERS",
]


class IndexQueue(ABC):
    """A dispatch policy over request ids (the columnar loop's queue).

    ``push`` admits an arriving request id; ``next_range`` pops the next
    batch as a half-open ``(lo, hi)`` rid range (every batch the four
    built-in policies form is contiguous in rid space when arrivals are
    column-ordered — FIFO order is rid order, and the heap policies
    dispatch single requests).  ``positional`` queues promise that queue
    position equals request id, so the columnar loop may batch-admit a
    run of arrivals by setting ``tail`` directly instead of per-rid
    ``push`` calls.
    """

    #: True when queued rids are exactly ``[head, tail)`` (FIFO family).
    positional = False

    @abstractmethod
    def push(self, rid: int) -> None: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def next_range(self, now: int) -> tuple[int, int]:
        """The next batch as a rid range; only called while ``len(self)``."""


class Scheduler(ABC):
    """Queue + policy; see the module docstring for the contract."""

    name = "base"

    def __init__(self) -> None:
        self._cluster: Cluster | None = None

    def bind(self, cluster: Cluster) -> None:
        """Give the policy access to the cluster's service times."""
        self._cluster = cluster

    @abstractmethod
    def enqueue(self, request: Request) -> None: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def next_batch(self, now: int) -> list[Request]:
        """Requests to run together on one free replica group (may be empty)."""

    def index_queue(
        self,
        model_ids: list[int],
        arrivals: list[int],
        priorities: list[int],
        latency_by_model: list[int],
    ) -> IndexQueue | None:
        """This policy over request ids, or ``None`` when unsupported.

        The base returns ``None`` — custom policies run the object loop.
        Built-in policies return an :class:`IndexQueue` only for their exact
        class: a subclass overriding ``next_batch`` must not inherit a drain
        that ignores the override.
        """
        return None


class _FifoIndexQueue(IndexQueue):
    """Positional FIFO: queued rids are exactly ``[head, tail)``."""

    __slots__ = ("head", "tail")
    positional = True

    def __init__(self) -> None:
        self.head = 0
        self.tail = 0

    def push(self, rid: int) -> None:
        self.tail = rid + 1

    def __len__(self) -> int:
        return self.tail - self.head

    def next_range(self, now: int) -> tuple[int, int]:
        lo = self.head
        self.head = lo + 1
        return lo, lo + 1


class _BatchIndexQueue(_FifoIndexQueue):
    """FIFO range pop extended to consecutive same-model runs."""

    __slots__ = ("model_ids", "max_batch")

    def __init__(self, model_ids: list[int], max_batch: int) -> None:
        super().__init__()
        self.model_ids = model_ids
        self.max_batch = max_batch

    def next_range(self, now: int) -> tuple[int, int]:
        lo = self.head
        model_ids = self.model_ids
        model = model_ids[lo]
        hi = lo + 1
        cap = min(lo + self.max_batch, self.tail)
        while hi < cap and model_ids[hi] == model:
            hi += 1
        self.head = hi
        return lo, hi


class _HeapIndexQueue(IndexQueue):
    """Heap policy over ``(key..., rid)`` tuples (single-request batches).

    ``entries[rid]`` is the precomputed sort key for every request in the
    stream (built in one vectorized pass when the queue is created), and
    ``heap`` is the live priority queue of admitted keys — both public so
    the columnar loop can inline push/pop without method calls.
    """

    __slots__ = ("heap", "entries")

    def __init__(self, entries: list[tuple]) -> None:
        self.heap: list[tuple] = []
        self.entries = entries  # rid -> sort-key tuple ending in rid

    def push(self, rid: int) -> None:
        heapq.heappush(self.heap, self.entries[rid])

    def __len__(self) -> int:
        return len(self.heap)

    def next_range(self, now: int) -> tuple[int, int]:
        rid = heapq.heappop(self.heap)[-1]
        return rid, rid + 1


class FIFOScheduler(Scheduler):
    """First come, first served — one request per dispatch."""

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[Request] = deque()

    def enqueue(self, request: Request) -> None:
        self._queue.append(request)

    def __len__(self) -> int:
        return len(self._queue)

    def next_batch(self, now: int) -> list[Request]:
        return [self._queue.popleft()] if self._queue else []

    def index_queue(self, model_ids, arrivals, priorities, latency_by_model):
        return _FifoIndexQueue() if type(self) is FIFOScheduler else None


class _HeapScheduler(Scheduler):
    """Priority-queue scheduling with a policy-defined sort key."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple] = []

    @abstractmethod
    def _key(self, request: Request) -> tuple: ...

    def enqueue(self, request: Request) -> None:
        heapq.heappush(
            self._heap, (*self._key(request), request.arrival, request.rid, request)
        )

    def __len__(self) -> int:
        return len(self._heap)

    def next_batch(self, now: int) -> list[Request]:
        return [heapq.heappop(self._heap)[-1]] if self._heap else []


class SJFScheduler(_HeapScheduler):
    """Shortest service time on one replica group first."""

    name = "sjf"

    def _key(self, request: Request) -> tuple:
        if self._cluster is None:
            raise RuntimeError("SJFScheduler needs bind(cluster) before enqueue()")
        return (self._cluster.service(request.model).latency_cycles,)

    def bind(self, cluster: Cluster) -> None:
        if self._heap:
            raise RuntimeError("cannot rebind with requests queued")
        super().bind(cluster)

    def index_queue(self, model_ids, arrivals, priorities, latency_by_model):
        if type(self) is not SJFScheduler:
            return None
        # Mirrors the object heap's (latency, arrival, rid, request) entries;
        # the trailing request never ordered anything (rid is unique).
        return _HeapIndexQueue(
            list(
                zip(
                    map(latency_by_model.__getitem__, model_ids),
                    arrivals,
                    range(len(arrivals)),
                )
            )
        )


class PriorityScheduler(_HeapScheduler):
    """Highest ``Request.priority`` first; FIFO within a priority level."""

    name = "priority"

    def _key(self, request: Request) -> tuple:
        return (-request.priority,)

    def index_queue(self, model_ids, arrivals, priorities, latency_by_model):
        if type(self) is not PriorityScheduler:
            return None
        return _HeapIndexQueue(
            list(zip((-p for p in priorities), arrivals, range(len(arrivals))))
        )


class BatchingScheduler(Scheduler):
    """FIFO with same-model batching to amortize DRAM input loads."""

    name = "batch"

    def __init__(self, max_batch: int = 4) -> None:
        super().__init__()
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self._queue: deque[Request] = deque()

    def enqueue(self, request: Request) -> None:
        self._queue.append(request)

    def __len__(self) -> int:
        return len(self._queue)

    def next_batch(self, now: int) -> list[Request]:
        if not self._queue:
            return []
        batch = [self._queue.popleft()]
        # Only *consecutive* same-model requests join the batch: skipping
        # over other models would reorder the queue and unbound their wait.
        while (
            self._queue
            and len(batch) < self.max_batch
            and self._queue[0].model == batch[0].model
        ):
            batch.append(self._queue.popleft())
        return batch

    def index_queue(self, model_ids, arrivals, priorities, latency_by_model):
        if type(self) is not BatchingScheduler:
            return None
        return _BatchIndexQueue(model_ids, self.max_batch)


SCHEDULERS = ("fifo", "sjf", "priority", "batch")


def make_scheduler(name: str, max_batch: int = 4) -> Scheduler:
    """Factory used by the CLI and the experiment sweeps."""
    if name == "fifo":
        return FIFOScheduler()
    if name == "sjf":
        return SJFScheduler()
    if name == "priority":
        return PriorityScheduler()
    if name == "batch":
        return BatchingScheduler(max_batch=max_batch)
    raise ValueError(f"unknown scheduler {name!r}; known: {SCHEDULERS}")
