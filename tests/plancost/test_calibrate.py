"""Calibration layer: rank correlation, config sampling, report shape."""

import pytest

from repro.models.zoo import alexnet_spec, convnet_spec, lenet_spec
from repro.plancost import (
    PlanCostOracle,
    calibrate,
    sample_degree_configs,
    spearman_rank_correlation,
)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman_rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_perfect_reversal(self):
        assert spearman_rank_correlation([1, 2, 3], [3, 2, 1]) == -1.0

    def test_ties_averaged(self):
        rho = spearman_rank_correlation([1, 2, 2, 3], [1, 2, 2, 3])
        assert rho == pytest.approx(1.0)

    def test_constant_vector(self):
        assert spearman_rank_correlation([5, 5, 5], [1, 2, 3]) == 1.0

    def test_partial_disagreement(self):
        rho = spearman_rank_correlation([1, 2, 3, 4], [1, 2, 4, 3])
        assert 0.5 < rho < 1.0


class TestSampling:
    def test_anchor_first_and_distinct(self):
        oracle = PlanCostOracle(lenet_spec(), 16)
        configs = sample_degree_configs(oracle, k=6, seed=0)
        assert len(configs) == len(set(configs)) == 6
        # The anchor is every layer at its largest valid degree.
        assert configs[0] == tuple([16] * oracle.num_layers)

    def test_deterministic(self):
        oracle = PlanCostOracle(convnet_spec(), 16)
        a = sample_degree_configs(oracle, k=8, seed=42)
        b = sample_degree_configs(oracle, k=8, seed=42)
        assert a == b
        assert a != sample_degree_configs(oracle, k=8, seed=43)

    def test_all_configs_valid(self):
        oracle = PlanCostOracle(convnet_spec(), 16)
        for config in sample_degree_configs(oracle, k=10, seed=1):
            assert oracle.cost(config) < float("inf")

    def test_small_space_saturates(self):
        """A 1-layer-ish space cannot produce more configs than exist."""
        oracle = PlanCostOracle(lenet_spec(), 16, degrees=(16,))
        configs = sample_degree_configs(oracle, k=10, seed=0)
        assert configs == [tuple([16] * oracle.num_layers)]

    def test_k_must_be_positive(self):
        oracle = PlanCostOracle(lenet_spec(), 16)
        with pytest.raises(ValueError):
            sample_degree_configs(oracle, k=0)


class TestCalibrate:
    def test_report_shape_and_bounds(self):
        report = calibrate(lenet_spec(), 16, k=4, seed=0)
        assert len(report.samples) == 4
        assert report.ratio_min <= report.ratio_mean <= report.ratio_max
        assert -1.0 <= report.rank_correlation <= 1.0
        assert report.scale == report.ratio_mean
        assert "lenet" in report.render()

    def test_engine_never_faster_than_half_the_estimate(self):
        """The analytic estimate is a (loose) lower bound on engine cycles."""
        report = calibrate(convnet_spec(), 16, k=4, seed=0)
        assert report.ratio_min > 0.5

    def test_deterministic(self):
        a = calibrate(lenet_spec(), 16, k=3, seed=7)
        b = calibrate(lenet_spec(), 16, k=3, seed=7)
        assert a == b

    @pytest.mark.parametrize(
        "spec_fn, rho",
        [(lenet_spec, 0.9824), (convnet_spec, 0.9941), (alexnet_spec, 0.9971)],
        ids=["lenet", "convnet", "alexnet"],
    )
    def test_oracle_ranks_like_the_engine(self, spec_fn, rho):
        """At k=16 the oracle orders candidates as the cycle-exact engine
        does (Spearman >= 0.95), or the search optimum is fiction."""
        report = calibrate(spec_fn(), 16, k=16, seed=0)
        assert report.rank_correlation >= 0.95
        assert round(report.rank_correlation, 4) == rho
