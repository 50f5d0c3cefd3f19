"""Seeded determinism and distributional sanity of the load generators."""

from collections import deque

import numpy as np
import pytest

from repro.serve.workload import (
    ClosedLoopWorkload,
    MMPPWorkload,
    PoissonWorkload,
    Request,
)

from .closed_loop_reference import ChoiceClosedLoopWorkload


def _drive(workload: ClosedLoopWorkload) -> list[Request]:
    """Every request of a full closed-loop run: ``initial()``, then each
    request completes 1000 cycles after it arrives, oldest first, until
    every client's quota is spent."""
    issued = workload.initial()
    pending = deque(issued)
    while pending:
        request = pending.popleft()
        follow_up = workload.on_completion(request, request.arrival + 1000)
        if follow_up is not None:
            issued.append(follow_up)
            pending.append(follow_up)
    return issued


class TestPoisson:
    def test_deterministic_for_a_seed(self):
        a = PoissonWorkload(10.0, 50, seed=3).initial()
        b = PoissonWorkload(10.0, 50, seed=3).initial()
        assert a == b

    def test_different_seeds_differ(self):
        a = PoissonWorkload(10.0, 50, seed=3).initial()
        b = PoissonWorkload(10.0, 50, seed=4).initial()
        assert a != b

    def test_count_order_and_positivity(self):
        requests = PoissonWorkload(25.0, 200, seed=0).initial()
        assert len(requests) == 200
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] >= 1
        assert [r.rid for r in requests] == list(range(200))

    def test_mean_rate_close_to_requested(self):
        rate = 50.0  # per megacycle -> mean gap 20k cycles
        requests = PoissonWorkload(rate, 2000, seed=1).initial()
        span = requests[-1].arrival - requests[0].arrival
        measured = (len(requests) - 1) * 1e6 / span
        assert measured == pytest.approx(rate, rel=0.15)

    def test_model_mix_respected(self):
        mix = {"a": 3.0, "b": 1.0}
        requests = PoissonWorkload(10.0, 400, seed=0, mix=mix).initial()
        counts = {m: sum(r.model == m for r in requests) for m in mix}
        assert counts["a"] + counts["b"] == 400
        assert counts["a"] > counts["b"]

    def test_priorities_follow_model(self):
        requests = PoissonWorkload(
            10.0, 50, seed=0, mix={"hi": 1, "lo": 1}, priorities={"hi": 5}
        ).initial()
        for r in requests:
            assert r.priority == (5 if r.model == "hi" else 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            PoissonWorkload(0.0, 10)
        with pytest.raises(ValueError):
            PoissonWorkload(1.0, 0)
        with pytest.raises(ValueError):
            PoissonWorkload(1.0, 10, mix={"a": -1.0})


class TestMMPP:
    def test_deterministic_and_counted(self):
        w = MMPPWorkload(5.0, 80.0, 100, seed=9)
        assert w.initial() == w.initial()
        assert len(w.initial()) == 100

    def test_burstier_than_poisson(self):
        """Strong rate contrast drives interarrival CV above the
        exponential's CV of 1 (the whole point of the MMPP model)."""
        mmpp = MMPPWorkload(2.0, 200.0, 1500, mean_dwell_cycles=2e6, seed=5).initial()
        gaps = np.diff([r.arrival for r in mmpp])
        cv = gaps.std() / gaps.mean()
        assert cv > 1.2

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            MMPPWorkload(0.0, 10.0, 10)
        with pytest.raises(ValueError):
            MMPPWorkload(1.0, 1.0, 10, mean_dwell_cycles=0)


class TestClosedLoop:
    def test_initial_is_one_request_per_client(self):
        w = ClosedLoopWorkload(clients=6, requests_per_client=3, seed=2)
        initial = w.initial()
        assert len(initial) == 6
        assert len({r.rid for r in initial}) == 6

    def test_completion_spawns_until_quota(self):
        w = ClosedLoopWorkload(
            clients=1, requests_per_client=3, think_cycles=100.0, seed=0
        )
        (first,) = w.initial()
        second = w.on_completion(first, finish_cycle=500)
        assert second is not None and second.arrival > 500
        third = w.on_completion(second, finish_cycle=900)
        assert third is not None
        assert w.on_completion(third, finish_cycle=1500) is None

    def test_initial_replays_identically(self):
        w = ClosedLoopWorkload(clients=4, requests_per_client=2, seed=11)
        assert w.initial() == w.initial()

    def test_unknown_request_completion_is_ignored(self):
        w = ClosedLoopWorkload(clients=1, requests_per_client=1, seed=0)
        w.initial()
        stray = Request(rid=999, arrival=1)
        assert w.on_completion(stray, finish_cycle=10) is None

    def test_completed_requests_leave_the_in_flight_map(self):
        """The rid -> client map holds requests in flight only, at most one
        per client, rather than every request the run issued."""
        w = ClosedLoopWorkload(clients=4, requests_per_client=6, seed=3)
        assert len(_drive(w)) == 24
        assert w._client_of == {}

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize(
        "mix",
        [{"lenet": 1.0}, {"lenet": 0.7, "convnet": 0.3}, {"a": 2.0, "b": 0.0, "c": 5.0}],
        ids=["one-model", "two-models", "unnormalized-with-zero"],
    )
    def test_model_draw_matches_generator_choice(self, mix, seed):
        """Bisecting one uniform draw on the mix's CDF is the reference
        ``Generator.choice`` draw: the same requests, and the same generator
        state once the run is over."""
        kwargs = dict(clients=5, requests_per_client=40, think_cycles=1e4, seed=seed, mix=mix)
        fast, ref = ClosedLoopWorkload(**kwargs), ChoiceClosedLoopWorkload(**kwargs)
        requests = _drive(fast)
        assert requests == _drive(ref)
        assert fast._rng.bit_generator.state == ref._rng.bit_generator.state
        assert len(requests) == 200
        assert {r.model for r in requests} == {m for m, w in mix.items() if w > 0}
