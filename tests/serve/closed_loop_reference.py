"""Reference model draw for :class:`~repro.serve.workload.ClosedLoopWorkload`.

The workload picks each request's model by bisecting one uniform draw on
the mix's precomputed CDF.  The original per-request draw was
``Generator.choice(names, p=probs)``, which rebuilds and re-validates that
CDF on every call.  It is kept here as the behavioural reference:
``tests/serve/test_workload.py`` drives both through ``initial()`` and a
chain of ``on_completion`` calls and requires identical requests and an
identical final generator state.
"""

from __future__ import annotations

from repro.serve.workload import ClosedLoopWorkload, Request, _normalized_mix


class ChoiceClosedLoopWorkload(ClosedLoopWorkload):
    """``ClosedLoopWorkload`` drawing every model with ``Generator.choice``."""

    def __init__(self, *args, mix: dict[str, float] | None = None, **kwargs) -> None:
        super().__init__(*args, mix=mix, **kwargs)
        _, self._probs = _normalized_mix(mix)

    def _issue(self, client: int, arrival: int) -> Request:
        rid = self._next_rid
        self._next_rid += 1
        self._client_of[rid] = client
        self._issued[client] = self._issued.get(client, 0) + 1
        model = str(self._rng.choice(self._names, p=self._probs))
        return Request(rid=rid, arrival=arrival, model=model)
