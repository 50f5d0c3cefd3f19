"""Stage-boundary DP: min-max optimality and the never-worse-than-balanced
guarantee over the tableMCM configuration grid."""

import itertools

import pytest

from repro.mcm.topology import McmTopology
from repro.models.zoo import SPEC_BUILDERS, convnet_spec, lenet_spec
from repro.search import dp_stage_split, search_stage_split
from repro.search.stagedp import _range_cost

from .range_loop import loop_range_costs


def _brute_force_bottleneck(costs, num_stages, range_cost):
    """Best achievable bottleneck over all contiguous splits (reference)."""
    count = len(costs)
    best = float("inf")
    for cuts in itertools.combinations(range(1, count), num_stages - 1):
        bounds = (0, *cuts, count)
        bottleneck = max(
            range_cost(bounds[s], bounds[s + 1]) for s in range(num_stages)
        )
        best = min(best, bottleneck)
    return best


class TestDpStageSplit:
    @pytest.mark.parametrize("num_stages", [1, 2, 3, 4])
    def test_matches_brute_force(self, num_stages):
        layers = list("abcdefg")  # dp_stage_split only slices the list
        weights = [7, 1, 4, 9, 2, 5, 3]

        def range_cost(i, j):
            return sum(weights[i:j]) + (10 if i else 0)  # inbound-transfer analog

        split = dp_stage_split(layers, num_stages, range_cost)
        assert [x for stage in split for x in stage] == layers
        assert len(split) == num_stages
        assert all(stage for stage in split)
        bounds = [0]
        for stage in split:
            bounds.append(bounds[-1] + len(stage))
        got = max(range_cost(bounds[s], bounds[s + 1]) for s in range(num_stages))
        assert got == _brute_force_bottleneck(weights, num_stages, range_cost)

    def test_single_stage_is_whole_chain(self):
        split = dp_stage_split([1, 2, 3], 1, lambda i, j: j - i)
        assert split == [[1, 2, 3]]

    def test_too_many_stages_rejected(self):
        with pytest.raises(ValueError):
            dp_stage_split([1, 2], 3, lambda i, j: 0)
        with pytest.raises(ValueError):
            dp_stage_split([1, 2], 0, lambda i, j: 0)

    def test_balances_cost_not_count(self):
        """One huge element gets isolated even though counts are uneven."""
        weights = [1, 1, 100, 1, 1]

        def range_cost(i, j):
            return sum(weights[i:j])

        split = dp_stage_split(list(range(5)), 3, range_cost)
        assert [2] in split  # the heavy element rides alone


class TestSearchStageSplit:
    # The tableMCM grid: both schemes, both benchmark convnets, 2 and 4 chips.
    @pytest.mark.parametrize("scheme", ["traditional", "structure"])
    @pytest.mark.parametrize("chips", [2, 4])
    @pytest.mark.parametrize(
        "spec_fn", [lenet_spec, convnet_spec], ids=lambda f: f.__name__
    )
    def test_never_worse_than_balanced(self, spec_fn, chips, scheme):
        result = search_stage_split(spec_fn(), McmTopology.build(chips), scheme)
        assert result.interval_cycles <= result.balanced_interval
        if result.interval_cycles == result.balanced_interval:
            assert result.latency_cycles <= result.balanced_latency
        assert result.interval_speedup >= 1.0

    def test_balanced_tie_prefers_balanced(self):
        """When no DP split strictly wins, the balanced plan is returned."""
        result = search_stage_split(lenet_spec(), McmTopology.build(2))
        if result.used == "balanced":
            assert result.searched_sizes == result.balanced_sizes

    def test_result_is_servable(self):
        """The winning plan and service plug into the pipelined cluster."""
        result = search_stage_split(convnet_spec(), McmTopology.build(4))
        svc = result.service
        assert svc.interval_cycles == result.interval_cycles
        assert svc.latency_cycles == result.latency_cycles
        assert sum(len(s.layers) for s in result.plan.stages) == len(
            convnet_spec().compute_layers()
        )
        assert result.plan.topology.num_chips == 4

    def test_convnet_4chip_strictly_better(self):
        """The benchmark point: the DP split beats MAC balancing outright.

        convnet's balanced split cuts right after the fattest activation,
        paying a ~4k-cycle inter-chip transfer every interval; the DP split
        avoids it, cutting the interval from 5847 to 3809 cycles.
        """
        result = search_stage_split(convnet_spec(), McmTopology.build(4))
        assert result.used == "searched"
        assert result.interval_cycles < result.balanced_interval
        assert (result.balanced_interval, result.interval_cycles) == (5847, 3809)


class TestRangeCosts:
    """One sub-plan per start layer gives every range the O(L²) loop's cost."""

    @pytest.mark.parametrize("scheme", ["traditional", "structure"])
    @pytest.mark.parametrize("chips, cores", [(2, 16), (4, 16), (2, 4)])
    @pytest.mark.parametrize("name", sorted(SPEC_BUILDERS))
    def test_every_range_equals_its_own_subplan(self, name, chips, cores, scheme):
        spec = SPEC_BUILDERS[name]()
        topology = McmTopology.build(chips, cores_per_chip=cores)
        range_cost = _range_cost(spec, topology, scheme)
        expected = loop_range_costs(spec, topology, scheme)
        assert {ij: range_cost(*ij) for ij in expected} == expected
