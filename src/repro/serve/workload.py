"""Load generation for the serving simulator.

All generators are seeded and deterministic: the same constructor arguments
always produce the same request stream (arrival times are integers in *core*
clock cycles, matching the engine's unit).  Two families:

* **open-loop** — arrivals are independent of the system's responses, the
  datacenter regime: :class:`PoissonWorkload` (memoryless arrivals at a
  fixed rate) and :class:`MMPPWorkload` (a two-state Markov-modulated
  Poisson process alternating calm and burst phases, the classic bursty
  traffic model);
* **closed-loop** — :class:`ClosedLoopWorkload`: a fixed population of
  clients, each thinking for an exponential time after every response
  before issuing its next request, so the offered load self-throttles with
  the system's latency.

Rates are expressed in requests per **megacycle** — the natural unit given
single-pass latencies of a few thousand to a few hundred thousand cycles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Request",
    "ArrivalColumns",
    "LoadGenerator",
    "PoissonWorkload",
    "MMPPWorkload",
    "ClosedLoopWorkload",
]

MEGACYCLE = 1_000_000

#: Interarrival samples drawn per RNG call when a generator supports chunked
#: sampling (bounds transient memory; numpy Generators fill sequentially, so
#: chunked draws are bit-identical to one monolithic call).
ARRIVAL_CHUNK = 1 << 18


@dataclass(frozen=True)
class Request:
    """One inference request entering the cluster."""

    rid: int
    arrival: int  # core clock cycle the request becomes visible
    model: str = "default"
    priority: int = 0  # larger = more urgent (PriorityScheduler)


@dataclass(frozen=True)
class ArrivalColumns:
    """A request stream as struct-of-arrays (the columnar loop's input).

    Row ``i`` is request ``rid == i``; ``arrival`` is sorted ascending, so
    array order equals the order the object loop's event heap would pop the
    arrivals in (its tiebreak is insertion sequence, which is ``rid``).
    ``models`` is the model-name table ``model_id`` indexes into.
    """

    arrival: np.ndarray  # int64, sorted ascending
    model_id: np.ndarray  # int64 indices into ``models``
    priority: np.ndarray  # int64
    models: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.arrival)
        if len(self.model_id) != n or len(self.priority) != n:
            raise ValueError("arrival/model_id/priority columns must align")

    def __len__(self) -> int:
        return len(self.arrival)

    def to_requests(self) -> list[Request]:
        """Materialize per-request objects (the object loop's input)."""
        arrivals = self.arrival.tolist()
        model_ids = self.model_id.tolist()
        priorities = self.priority.tolist()
        names = self.models
        return [
            Request(rid=i, arrival=arrivals[i], model=names[model_ids[i]],
                    priority=priorities[i])
            for i in range(len(arrivals))
        ]

    @staticmethod
    def from_requests(requests: list[Request]) -> "ArrivalColumns | None":
        """Columnize an arbitrary scripted request list.

        Returns ``None`` when the list cannot feed the columnar loop
        directly: rids must be ``0..n-1`` and the heap's pop order —
        ``(arrival, insertion order)`` — must equal rid order, so that a
        FIFO queue position is a request id.
        """
        arrivals = []
        last = None
        for i, r in enumerate(requests):
            if r.rid != i or (last is not None and r.arrival < last):
                return None
            arrivals.append(r.arrival)
            last = r.arrival
        names = tuple(dict.fromkeys(r.model for r in requests))
        index = {m: i for i, m in enumerate(names)}
        return ArrivalColumns(
            arrival=np.asarray(arrivals, dtype=np.int64),
            model_id=np.asarray([index[r.model] for r in requests], dtype=np.int64),
            priority=np.asarray([r.priority for r in requests], dtype=np.int64),
            models=names,
        )


def _normalized_mix(mix: dict[str, float] | None) -> tuple[list[str], np.ndarray]:
    """Sorted model names + probability vector (defaults to one model)."""
    if not mix:
        return ["default"], np.array([1.0])
    names = sorted(mix)
    weights = np.array([float(mix[n]) for n in names])
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError(f"model mix weights must be non-negative and sum > 0: {mix}")
    return names, weights / weights.sum()


class LoadGenerator(ABC):
    """Common interface the event loop drives.

    ``initial()`` yields the requests known up front; ``on_completion`` lets
    closed-loop generators react to a finished request by scheduling the
    issuing client's next one (open-loop generators return ``None``).
    """

    name = "base"

    @abstractmethod
    def initial(self) -> list[Request]:
        """The requests to inject before the simulation starts."""

    def arrival_columns(self) -> ArrivalColumns | None:
        """The initial stream as columns, or ``None`` when not supported.

        Generators that know their stream up front as arrays override this
        so the columnar loop never materializes ``Request`` objects; the
        default columnizes :meth:`initial` when the list is directly usable
        (see :meth:`ArrivalColumns.from_requests`).
        """
        return ArrivalColumns.from_requests(self.initial())

    @property
    def is_open_loop(self) -> bool:
        """True when completions never spawn requests (fastpath eligible)."""
        return type(self).on_completion is LoadGenerator.on_completion

    def on_completion(self, request: Request, finish_cycle: int) -> Request | None:
        """React to ``request`` finishing at ``finish_cycle``."""
        return None


class _OpenLoopWorkload(LoadGenerator):
    """Shared machinery: interarrival sampling -> sorted request list."""

    def __init__(
        self,
        num_requests: int,
        seed: int = 0,
        mix: dict[str, float] | None = None,
        priorities: dict[str, int] | None = None,
    ) -> None:
        if num_requests <= 0:
            raise ValueError(f"num_requests must be positive, got {num_requests}")
        self.num_requests = num_requests
        self.seed = seed
        self._names, self._probs = _normalized_mix(mix)
        self._priorities = priorities or {}

    @abstractmethod
    def _interarrivals(self, rng: np.random.Generator) -> np.ndarray:
        """``num_requests`` gaps between consecutive arrivals, in cycles."""

    def _interarrival_chunks(self, rng: np.random.Generator):
        """Yield the gap stream in bounded blocks.

        The default yields :meth:`_interarrivals` whole (state-walking
        generators like MMPP are inherently sequential); memoryless
        generators override this to sample ``ARRIVAL_CHUNK`` gaps per RNG
        call — numpy Generators fill sequentially, so the chunked stream is
        bit-identical to the monolithic draw.
        """
        yield self._interarrivals(rng)

    def arrival_columns(self) -> ArrivalColumns:
        """The seeded stream as struct-of-arrays, no ``Request`` objects.

        Draw order matches the historical ``initial()`` exactly — every
        interarrival gap first, then every model choice — so the same seed
        produces the same stream whichever loop consumes it.
        """
        rng = np.random.default_rng(self.seed)
        arrivals = np.empty(self.num_requests, dtype=np.int64)
        offset = 0
        last = 0
        for block in self._interarrival_chunks(rng):
            gaps = np.maximum(1, np.rint(block)).astype(np.int64)
            np.cumsum(gaps, out=gaps)
            arrivals[offset : offset + len(gaps)] = gaps + last
            offset += len(gaps)
            last = int(arrivals[offset - 1]) if offset else 0
        if offset != self.num_requests:
            raise RuntimeError(
                f"interarrival chunks produced {offset} gaps, "
                f"expected {self.num_requests}"
            )
        model_id = rng.choice(
            len(self._names), size=self.num_requests, p=self._probs
        ).astype(np.int64)
        prio_of = np.asarray(
            [self._priorities.get(name, 0) for name in self._names], dtype=np.int64
        )
        return ArrivalColumns(
            arrival=arrivals,
            model_id=model_id,
            priority=prio_of[model_id],
            models=tuple(self._names),
        )

    def initial(self) -> list[Request]:
        return self.arrival_columns().to_requests()


class PoissonWorkload(_OpenLoopWorkload):
    """Open-loop arrivals at a constant ``rate`` requests per megacycle."""

    name = "poisson"

    def __init__(
        self,
        rate_per_megacycle: float,
        num_requests: int,
        seed: int = 0,
        mix: dict[str, float] | None = None,
        priorities: dict[str, int] | None = None,
    ) -> None:
        super().__init__(num_requests, seed=seed, mix=mix, priorities=priorities)
        if rate_per_megacycle <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_megacycle}")
        self.rate = rate_per_megacycle

    def _interarrivals(self, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(MEGACYCLE / self.rate, size=self.num_requests)

    def _interarrival_chunks(self, rng: np.random.Generator):
        scale = MEGACYCLE / self.rate
        for start in range(0, self.num_requests, ARRIVAL_CHUNK):
            yield rng.exponential(
                scale, size=min(ARRIVAL_CHUNK, self.num_requests - start)
            )


class MMPPWorkload(_OpenLoopWorkload):
    """Two-state Markov-modulated Poisson process (calm / burst phases).

    The process alternates exponentially-distributed dwell periods in a calm
    state (``calm_rate``) and a burst state (``burst_rate``); arrivals within
    each state are Poisson at that state's rate.  With a strong rate contrast
    the interarrival coefficient of variation exceeds 1 — burstier than any
    plain Poisson stream — which is exactly what stresses tail latency.
    """

    name = "mmpp"

    def __init__(
        self,
        calm_rate: float,
        burst_rate: float,
        num_requests: int,
        mean_dwell_cycles: float = 4 * MEGACYCLE,
        seed: int = 0,
        mix: dict[str, float] | None = None,
        priorities: dict[str, int] | None = None,
    ) -> None:
        super().__init__(num_requests, seed=seed, mix=mix, priorities=priorities)
        if calm_rate <= 0 or burst_rate <= 0:
            raise ValueError("both state rates must be positive")
        if mean_dwell_cycles <= 0:
            raise ValueError("mean_dwell_cycles must be positive")
        self.calm_rate = calm_rate
        self.burst_rate = burst_rate
        self.mean_dwell_cycles = mean_dwell_cycles

    def _interarrivals(self, rng: np.random.Generator) -> np.ndarray:
        gaps = np.empty(self.num_requests)
        rates = (self.calm_rate, self.burst_rate)
        state = 0
        state_left = rng.exponential(self.mean_dwell_cycles)
        for i in range(self.num_requests):
            # Walk forward state by state until an arrival lands inside the
            # current dwell period (memorylessness lets each state's arrival
            # candidate be drawn fresh after a switch).
            wait = 0.0
            while True:
                candidate = rng.exponential(MEGACYCLE / rates[state])
                if candidate <= state_left:
                    state_left -= candidate
                    wait += candidate
                    break
                wait += state_left
                state = 1 - state
                state_left = rng.exponential(self.mean_dwell_cycles)
            gaps[i] = wait
        return gaps


class ClosedLoopWorkload(LoadGenerator):
    """Fixed client population with exponential think times.

    Each of ``clients`` issues ``requests_per_client`` requests; a client's
    next request arrives one think time after its previous response.  The
    offered load is therefore bounded by the population size — the
    interactive-user regime rather than the datacenter firehose.
    """

    name = "closed"

    def __init__(
        self,
        clients: int,
        requests_per_client: int,
        think_cycles: float = MEGACYCLE,
        seed: int = 0,
        mix: dict[str, float] | None = None,
    ) -> None:
        if clients <= 0 or requests_per_client <= 0:
            raise ValueError("clients and requests_per_client must be positive")
        if think_cycles <= 0:
            raise ValueError("think_cycles must be positive")
        self.clients = clients
        self.requests_per_client = requests_per_client
        self.think_cycles = think_cycles
        self.seed = seed
        self._names, probs = _normalized_mix(mix)
        # The CDF exactly as ``Generator.choice(names, p=probs)`` rebuilds it
        # on every call: one uniform draw bisected on its right picks the
        # same model and leaves the generator in the same state.
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()
        self._rng = np.random.default_rng(seed)
        # Client of each request in flight (at most ``clients`` entries).
        self._client_of: dict[int, int] = {}
        self._issued: dict[int, int] = {}
        self._next_rid = 0

    def _issue(self, client: int, arrival: int) -> Request:
        rid = self._next_rid
        self._next_rid += 1
        self._client_of[rid] = client
        self._issued[client] = self._issued.get(client, 0) + 1
        model = self._names[bisect_right(self._cdf, self._rng.random())]
        return Request(rid=rid, arrival=arrival, model=model)

    def initial(self) -> list[Request]:
        # Re-seed so repeated initial() calls replay the same stream.
        self._rng = np.random.default_rng(self.seed)
        self._client_of.clear()
        self._issued.clear()
        self._next_rid = 0
        return [
            self._issue(c, int(max(1, self._rng.exponential(self.think_cycles))))
            for c in range(self.clients)
        ]

    def on_completion(self, request: Request, finish_cycle: int) -> Request | None:
        client = self._client_of.pop(request.rid, None)
        if client is None or self._issued[client] >= self.requests_per_client:
            return None
        think = int(max(1, self._rng.exponential(self.think_cycles)))
        return self._issue(client, finish_cycle + think)
