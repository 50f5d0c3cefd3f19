"""Chain DP over per-layer degrees: optimality and never-worse guarantees."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.accel import ChipConfig
from repro.models.zoo import alexnet_spec, caffenet_spec, convnet_spec, lenet_spec
from repro.noc import NoCConfig
from repro.partition import build_traditional_plan
from repro.plancost import PlanCostOracle
from repro.search import search_layer_degrees
from repro.sim.engine import InferenceSimulator, SimConfig


class TestOptimality:
    @pytest.mark.parametrize(
        "spec_fn", [lenet_spec, convnet_spec], ids=lambda f: f.__name__
    )
    def test_matches_brute_force(self, spec_fn):
        """The DP optimum equals exhaustive enumeration of the oracle cost."""
        spec = spec_fn()
        oracle = PlanCostOracle(spec, 16, degrees=(1, 4, 16))
        result = search_layer_degrees(spec, 16, oracle=oracle)

        grid = np.array(
            list(itertools.product(range(len(oracle.degrees)), repeat=oracle.num_layers))
        )
        costs = oracle.batch_cost(grid)
        best = float(costs.min())
        assert result.predicted_cycles == pytest.approx(best)
        # The reported config actually achieves the reported cost.
        assert oracle.cost(result.degrees) == pytest.approx(best)

    def test_full_candidate_set_brute_force_lenet(self):
        """All divisor degrees on the shortest network still match brute force."""
        spec = lenet_spec()
        oracle = PlanCostOracle(spec, 16)
        result = search_layer_degrees(spec, 16, oracle=oracle)
        grid = np.array(
            list(itertools.product(range(len(oracle.degrees)), repeat=oracle.num_layers))
        )
        assert result.predicted_cycles == pytest.approx(float(oracle.batch_cost(grid).min()))


class TestNeverWorse:
    @pytest.mark.parametrize(
        "spec_fn", [lenet_spec, convnet_spec, alexnet_spec], ids=lambda f: f.__name__
    )
    def test_searched_not_worse_than_anchor(self, spec_fn):
        result = search_layer_degrees(spec_fn(), 16)
        assert result.predicted_cycles <= result.anchor_cycles
        assert result.predicted_speedup >= 1.0


class TestEngineCycles:
    """The searched plan under the cycle-exact engine, on the paper's
    16-core chip: pinned, and never slower than the traditional plan."""

    @pytest.mark.parametrize(
        "spec_fn, searched, traditional",
        [
            (lenet_spec, 2146, 2162),
            (convnet_spec, 6393, 6515),
            (alexnet_spec, 302533, 302533),
        ],
        ids=["lenet", "convnet", "alexnet"],
    )
    def test_searched_plan_pinned_and_not_slower(self, spec_fn, searched, traditional):
        spec = spec_fn()
        sim = InferenceSimulator(ChipConfig.table2(16), SimConfig())
        measured = sim.simulate(search_layer_degrees(spec, 16).plan).total_cycles
        baseline = sim.simulate(build_traditional_plan(spec, 16)).total_cycles
        assert measured <= baseline
        assert (measured, baseline) == (searched, traditional)


class TestResultContract:
    def test_plan_is_buildable_and_consistent(self):
        spec = convnet_spec()
        result = search_layer_degrees(spec, 16)
        assert result.model == spec.name
        assert len(result.degrees) == len(spec.compute_layers())
        assert result.plan.num_cores == 16
        # The attached plan really encodes the searched degrees.
        for lp, degree in zip(result.plan.layers, result.degrees):
            active = sum(1 for a, b in lp.out_bounds if b > a)
            assert active == degree

    def test_describe_mentions_model(self):
        result = search_layer_degrees(lenet_spec(), 16)
        assert "lenet" in result.describe()

    def test_respects_restricted_candidates(self):
        result = search_layer_degrees(lenet_spec(), 16, degrees=(4, 16))
        assert set(result.degrees) <= {4, 16}


class TestOracleArguments:
    """A passed oracle must match the search's own arguments."""

    def test_matching_oracle_is_used(self):
        spec = lenet_spec()
        oracle = PlanCostOracle(spec, 16, degrees=(1, 4, 16))
        result = search_layer_degrees(
            spec, 16, degrees=(16, 4, 1), chip=ChipConfig.table2(16), oracle=oracle
        )
        assert result.degrees == search_layer_degrees(spec, 16, degrees=(1, 4, 16)).degrees

    def test_other_num_cores_rejected(self):
        with pytest.raises(ValueError, match="32 cores"):
            search_layer_degrees(lenet_spec(), 16, oracle=PlanCostOracle(lenet_spec(), 32))

    def test_other_spec_rejected(self):
        with pytest.raises(ValueError, match="alexnet"):
            search_layer_degrees(caffenet_spec(), 16, oracle=PlanCostOracle(alexnet_spec(), 16))

    def test_other_degrees_rejected(self):
        oracle = PlanCostOracle(lenet_spec(), 16, degrees=(1, 4, 16))
        with pytest.raises(ValueError, match="degrees"):
            search_layer_degrees(lenet_spec(), 16, degrees=(4, 16), oracle=oracle)

    def test_other_chip_rejected(self):
        oracle = PlanCostOracle(lenet_spec(), 16)
        chip = replace(ChipConfig.table2(16), noc=NoCConfig(core_clock_divider=2))
        with pytest.raises(ValueError, match="chip"):
            search_layer_degrees(lenet_spec(), 16, chip=chip, oracle=oracle)
