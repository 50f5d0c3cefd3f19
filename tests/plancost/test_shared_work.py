"""Candidate costs reuse shared work: checked by counting, not by timing.

A :class:`~repro.plancost.PlanCostOracle` build sums each consumer need table
once for every producer degree and keeps the results as arrays, so it
constructs no :class:`~repro.noc.TrafficMatrix`.  The stage search reads every
range cost from one sub-plan per start layer, so the per-layer plan loop
``_build_plan`` runs at most once per start layer, plus once per stage plan
that :func:`~repro.search.search_stage_split` measures.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.mcm.topology import McmTopology
from repro.models import get_spec
from repro.noc import TrafficMatrix
from repro.partition import build_traditional_plan
from repro.partition import layout as layout_mod
from repro.plancost import PlanCostOracle
from repro.search import search_stage_split
from repro.search import stagedp


@pytest.fixture
def matrices(monkeypatch):
    """How many TrafficMatrix objects have been constructed."""
    count = [0]
    original = TrafficMatrix.__post_init__

    def counting(self):
        count[0] += 1
        original(self)

    monkeypatch.setattr(TrafficMatrix, "__post_init__", counting)
    return count


@pytest.fixture
def plan_builds(monkeypatch):
    """Spec names passed to the per-layer plan loop, wherever it is imported."""
    names: list[str] = []
    original = layout_mod._build_plan

    def counting(spec, *args, **kwargs):
        names.append(spec.name)
        return original(spec, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and vars(module).get("_build_plan") is original:
            monkeypatch.setattr(module, "_build_plan", counting)
    return names


@pytest.fixture
def measured_stage_plans(monkeypatch):
    """Stage plans of every MCM plan the stage search builds to measure."""
    plans = []
    original = stagedp.build_mcm_plan

    def recording(*args, **kwargs):
        plan = original(*args, **kwargs)
        plans.extend(stage.plan for stage in plan.stages if stage.layers)
        return plan

    monkeypatch.setattr(stagedp, "build_mcm_plan", recording)
    return plans


def test_counters_are_live(matrices, plan_builds):
    build_traditional_plan(get_spec("lenet"), 4)
    assert plan_builds == ["lenet"]
    assert matrices[0] == len(get_spec("lenet").compute_layers())
    TrafficMatrix(np.zeros((2, 2), dtype=np.int64))
    assert matrices[0] == len(get_spec("lenet").compute_layers()) + 1


@pytest.mark.parametrize("name", ["lenet", "alexnet", "vgg19"])
def test_oracle_builds_no_traffic_matrix(name, matrices):
    oracle = PlanCostOracle(get_spec(name), 16)
    assert oracle.comm[1:].max() > 0
    assert matrices[0] == 0


@pytest.mark.parametrize("scheme", ["traditional", "structure"])
@pytest.mark.parametrize("chips", [2, 4])
@pytest.mark.parametrize("name", ["lenet", "convnet", "alexnet"])
def test_stage_search_builds_one_subplan_per_start_layer(
    name, chips, scheme, plan_builds, measured_stage_plans
):
    spec = get_spec(name)
    search_stage_split(spec, McmTopology.build(chips), scheme)
    starts = len(spec.compute_layers())
    assert measured_stage_plans
    assert len(plan_builds) <= starts + len(measured_stage_plans)
