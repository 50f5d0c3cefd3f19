"""Packets are built only as the cycle simulator's input.

Every flit count outside the cycle-level simulator is the closed form
:func:`~repro.noc.packet.message_flits`, so the packet builder
:func:`~repro.noc.packet.segment_message` must not run when every drain is
served from the memo, when a plan is costed analytically
(:func:`~repro.plancost.analytic_plan_cost`), or when a plan-cost oracle is
built.  On a cold memo each drained burst is segmented exactly once: the
packets injected are the only packets built.
"""

from __future__ import annotations

import sys

import pytest

from repro.accel import ChipConfig
from repro.models import get_spec
from repro.noc import NoCSimulator, TrafficMatrix
from repro.noc import packet as packet_mod
from repro.partition import build_traditional_plan
from repro.plancost import PlanCostOracle, analytic_plan_cost
from repro.sim.engine import InferenceSimulator

MODELS = ("lenet", "vgg19")


@pytest.fixture
def segment_calls(monkeypatch, tmp_path):
    """(src, dst) of every segment_message call, on a fresh drain memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    calls: list[tuple[int, int]] = []
    original = packet_mod.segment_message

    def counting(src, dst, num_bytes, config, injection_cycle=0):
        calls.append((src, dst))
        return original(src, dst, num_bytes, config, injection_cycle)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and vars(module).get("segment_message") is original:
            monkeypatch.setattr(module, "segment_message", counting)
    return calls


@pytest.fixture
def injected(monkeypatch):
    """The (src, dst) pairs of every packet list injected into a NoCSimulator."""
    bursts: list[list[tuple[int, int]]] = []
    original = NoCSimulator.inject

    def recording(self, packets):
        bursts.append(sorted({(p.src, p.dst) for p in packets}))
        return original(self, packets)

    monkeypatch.setattr(NoCSimulator, "inject", recording)
    return bursts


def _simulate(name: str):
    sim = InferenceSimulator(ChipConfig.table2(16))
    return sim.simulate(build_traditional_plan(get_spec(name), 16))


def test_counter_is_live(segment_calls):
    """The guard sees the packet builder (so a zero count means something)."""
    tm = TrafficMatrix([[0, 100], [64, 0]])
    tm.to_packets(ChipConfig.table2(2).noc)
    assert segment_calls == [(0, 1), (1, 0)]


@pytest.mark.parametrize("name", MODELS)
def test_analytical_mode_builds_no_packets(name, segment_calls):
    """The closed-form plan cost drains every burst without a packet."""
    plan = build_traditional_plan(get_spec(name), 16)
    assert any(lp.traffic.total_bytes for lp in plan.layers[1:])
    assert analytic_plan_cost(plan) > 0
    assert segment_calls == []


@pytest.mark.parametrize("name", MODELS)
def test_auto_mode_segments_only_drained_bursts(name, segment_calls, injected):
    cold = _simulate(name)
    assert cold.drain_memo_misses == len(injected) > 0
    # Each drained burst is segmented once, one call per message.
    assert sorted(segment_calls) == sorted(pair for burst in injected for pair in burst)

    segment_calls.clear()
    warm = _simulate(name)
    assert warm.drain_memo_misses == 0 and warm.drain_memo_hits > 0
    assert warm.total_cycles == cold.total_cycles
    assert segment_calls == []


@pytest.mark.parametrize("name", MODELS)
def test_oracle_builds_no_packets(name, segment_calls):
    oracle = PlanCostOracle(get_spec(name), 16)
    assert oracle.comm[1:].max() > 0
    assert segment_calls == []
