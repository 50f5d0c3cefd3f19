"""Pareto-frontier selection on hand-built point sets."""

from repro.analysis import pareto_flags


class TestParetoFlags:
    def test_hand_built_frontier(self):
        # (goodput, p99): maximize x, minimize y.
        points = [
            (10.0, 100.0),  # optimal: lowest latency
            (20.0, 200.0),  # optimal: trades latency for goodput
            (15.0, 300.0),  # dominated by (20, 200)
            (30.0, 500.0),  # optimal: highest goodput
        ]
        assert pareto_flags(points) == [True, True, False, True]

    def test_single_point_is_optimal(self):
        assert pareto_flags([(1.0, 1.0)]) == [True]

    def test_empty(self):
        assert pareto_flags([]) == []

    def test_duplicates_both_survive(self):
        points = [(10.0, 100.0), (10.0, 100.0), (5.0, 200.0)]
        assert pareto_flags(points) == [True, True, False]

    def test_strict_domination_required(self):
        # Same goodput, worse latency -> dominated.
        assert pareto_flags([(10.0, 100.0), (10.0, 150.0)]) == [True, False]

