"""The oracle's exactness contract: cost == engine analytical mode, always."""

import numpy as np
import pytest

from repro.accel import ChipConfig
from repro.models.zoo import alexnet_spec, convnet_spec, lenet_spec
from repro.partition import build_degree_plan, build_traditional_plan, with_groups
from repro.plancost import PlanCostOracle, analytic_plan_cost, candidate_degrees
from repro.plancost.calibrate import sample_degree_configs
from repro.serve.cluster import default_group_map
from repro.sim.engine import InferenceSimulator, SimConfig


def _analytic_sim(num_cores: int) -> InferenceSimulator:
    return InferenceSimulator(
        ChipConfig.table2(num_cores),
        SimConfig(comm_mode="analytical", comm_cache=False),
    )


class TestCandidateDegrees:
    def test_divisors(self):
        assert candidate_degrees(16) == (1, 2, 4, 8, 16)
        assert candidate_degrees(12) == (1, 2, 3, 4, 6, 12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            candidate_degrees(0)


def _grouped(spec_fn, num_cores: int):
    """``spec_fn``'s spec with every eligible conv split ``num_cores`` ways.

    Degrees below ``num_cores`` then stack whole groups on each core.
    """
    spec = spec_fn()
    return with_groups(spec, default_group_map(spec, num_cores))


_SPEC_FNS = (lenet_spec, convnet_spec, alexnet_spec)
_EXACTNESS_CASES = [
    # The 16-core cases keep their original ids.
    *(pytest.param(f, 16, False, id=f.__name__) for f in _SPEC_FNS),
    *(pytest.param(f, n, False, id=f"{f.__name__}-{n}") for f in _SPEC_FNS for n in (4, 32)),
    *(
        pytest.param(f, n, True, id=f"{f.__name__}-grouped-{n}")
        for f in (convnet_spec, alexnet_spec)
        for n in (4, 16, 32)
    ),
]


class TestOracleExactness:
    @pytest.mark.parametrize("spec_fn, num_cores, grouped", _EXACTNESS_CASES)
    def test_cost_equals_engine_analytical(self, spec_fn, num_cores, grouped):
        """Every sampled config: oracle cost == engine analytical-mode cycles."""
        spec = _grouped(spec_fn, num_cores) if grouped else spec_fn()
        oracle = PlanCostOracle(spec, num_cores)
        sim = _analytic_sim(num_cores)
        for config in sample_degree_configs(oracle, k=6, seed=3):
            plan = build_degree_plan(spec, num_cores, config)
            engine = sim.simulate(plan).total_cycles
            assert oracle.cost(config) == engine

    def test_all_cores_config_matches_traditional_plan(self):
        spec = convnet_spec()
        oracle = PlanCostOracle(spec, 16)
        config = tuple([16] * oracle.num_layers)
        sim = _analytic_sim(16)
        engine = sim.simulate(build_traditional_plan(spec, 16)).total_cycles
        assert oracle.cost(config) == engine

    def test_batch_cost_matches_scalar_cost(self):
        oracle = PlanCostOracle(lenet_spec(), 16)
        configs = sample_degree_configs(oracle, k=8, seed=0)
        batch = np.stack([oracle.to_indices(c) for c in configs])
        costs = oracle.batch_cost(batch)
        for config, cost in zip(configs, costs):
            assert float(cost) == oracle.cost(config)

    def test_invalid_degree_costs_inf(self):
        """alexnet's grouped convs cannot run group-misaligned degrees."""
        spec = alexnet_spec()
        # Degree 3 misaligns with the 2-way grouped layers (3 % 2 != 0).
        oracle = PlanCostOracle(spec, 16, degrees=(1, 2, 3, 16))
        assert not oracle.valid.all()
        li, pi = map(int, np.argwhere(~oracle.valid)[0])
        config = [oracle.degrees[-1]] * oracle.num_layers
        config[li] = oracle.degrees[pi]
        assert oracle.cost(tuple(config)) == np.inf

    def test_input_load_excluded_when_asked(self):
        spec = lenet_spec()
        with_load = PlanCostOracle(spec, 16)
        without = PlanCostOracle(spec, 16, include_input_load=False)
        config = tuple([16] * with_load.num_layers)
        assert with_load.cost(config) - without.cost(config) == with_load.input_load
        assert without.input_load == 0

    def test_chip_core_count_mismatch(self):
        with pytest.raises(ValueError):
            PlanCostOracle(lenet_spec(), 16, chip=ChipConfig.table2(4))

    def test_bad_config_length(self):
        oracle = PlanCostOracle(lenet_spec(), 16)
        with pytest.raises(ValueError):
            oracle.cost((16, 16))

    def test_unknown_degree(self):
        oracle = PlanCostOracle(lenet_spec(), 16, degrees=(1, 16))
        with pytest.raises(ValueError):
            oracle.to_indices(tuple([3] * oracle.num_layers))


class TestAnalyticPlanCost:
    @pytest.mark.parametrize("num_cores", [4, 16])
    @pytest.mark.parametrize(
        "spec_fn", [lenet_spec, convnet_spec], ids=lambda f: f.__name__
    )
    def test_matches_engine_analytical(self, spec_fn, num_cores):
        spec = spec_fn()
        plan = build_traditional_plan(spec, num_cores)
        engine = _analytic_sim(num_cores).simulate(plan).total_cycles
        assert analytic_plan_cost(plan) == engine

    def test_without_input_load(self):
        plan = build_traditional_plan(lenet_spec(), 16)
        full = analytic_plan_cost(plan)
        body = analytic_plan_cost(plan, include_input_load=False)
        assert 0 < body < full
