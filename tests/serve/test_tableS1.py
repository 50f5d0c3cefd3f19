"""Table S1 serving sweep: seeded determinism and the paper's QoS crossover."""

import pytest

from repro.experiments.config import FAST, PAPER
from repro.experiments.tableS1 import render_tableS1, run_tableS1
from repro.serve.cluster import clear_service_memo


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_service_memo()
    yield
    clear_service_memo()


@pytest.fixture(scope="module")
def rows():
    clear_service_memo()
    return run_tableS1(profile=FAST)


@pytest.fixture(scope="module")
def paper_rows():
    clear_service_memo()
    return run_tableS1(profile=PAPER)


#: Every field of the fast-profile rows, in this order, Pareto flags included.
PINNED_FIELDS = (
    "scheme", "group_cores", "replicas", "load_factor", "rate_per_megacycle",
    "p50", "p99", "throughput", "goodput", "violation_rate", "utilization",
    "pareto",
)
PINNED_FAST_ROWS = [
    ("traditional", 16, 1, 0.2, 30.698388334612435, 6515, 15896, 31.600355777872252,
     31.600355777872252, 0.0, 0.20587631789283772, True),
    ("traditional", 16, 1, 2.0, 306.98388334612434, 225436, 482589, 153.49194167306217,
     38.88462522384241, 0.7466666666666667, 1.0, False),
    ("traditional", 4, 4, 0.2, 30.698388334612435, 14842, 14842, 31.545018210939013,
     31.545018210939013, 0.0, 0.11704779007168921, True),
    ("traditional", 4, 4, 2.0, 306.98388334612434, 44006, 94981, 256.29152990665864,
     256.29152990665864, 0.0, 0.9509697217186568, False),
    ("traditional", 1, 16, 0.2, 30.698388334612435, 50714, 50714, 31.30882798324602,
     31.30882798324602, 0.0, 0.09923724389639617, False),
    ("traditional", 1, 16, 2.0, 306.98388334612434, 60140, 78791, 264.0993858808947,
     264.0993858808947, 0.0, 0.8370960159727309, True),
    ("structure", 16, 1, 0.2, 30.698388334612435, 2449, 4729, 31.627447226441557,
     31.627447226441557, 0.0, 0.07745561825755537, True),
    ("structure", 16, 1, 2.0, 306.98388334612434, 3925, 9745, 302.02903103046265,
     302.02903103046265, 0.0, 0.7396690969936031, True),
    ("structure", 4, 4, 0.2, 30.698388334612435, 6629, 6629, 31.599596873409485,
     31.599596873409485, 0.0, 0.05236843191845787, False),
    ("structure", 4, 4, 2.0, 306.98388334612434, 6629, 9284, 300.18311169813586,
     300.18311169813586, 0.0, 0.49747846186173567, True),
]


def test_fast_rows_pinned(rows):
    assert [tuple(getattr(r, f) for f in PINNED_FIELDS) for r in rows] == PINNED_FAST_ROWS


class TestSweepShape:
    def test_row_count_and_configurations(self, rows):
        # traditional x {16,4,1} + structure x {16,4}, each at 2 fast-profile
        # load factors (structure needs >=2 cores for channel grouping).
        assert len(rows) == 10
        configs = {(r.scheme, r.group_cores) for r in rows}
        assert ("traditional", 1) in configs
        assert ("structure", 1) not in configs

    def test_deterministic_for_a_seed(self, rows):
        clear_service_memo()
        again = run_tableS1(profile=FAST)
        assert rows == again

    def test_replica_arithmetic(self, rows):
        for r in rows:
            assert r.replicas * r.group_cores == 16


class TestQoSCrossover:
    """Paper SI: model parallelism wins tail latency at low load,
    data parallelism wins goodput under saturation."""

    def test_model_parallel_wins_latency_at_low_load(self, rows):
        low = [r for r in rows if r.scheme == "traditional" and r.load_factor == 0.2]
        best = min(low, key=lambda r: r.p50)
        assert best.group_cores == 16
        # Even the occasional queueing on the single full-chip replica keeps
        # its tail far below the 1-core groups' raw service time.
        full = next(r for r in low if r.group_cores == 16)
        single = next(r for r in low if r.group_cores == 1)
        assert full.p99 < single.p99

    def test_data_parallel_wins_goodput_at_high_load(self, rows):
        high = [r for r in rows if r.scheme == "traditional" and r.load_factor == 2.0]
        best = max(high, key=lambda r: r.goodput)
        assert best.group_cores < 16
        # The full-chip model-parallel group saturates: violations pile up.
        full = next(r for r in high if r.group_cores == 16)
        assert full.violation_rate > 0.5
        assert best.goodput > 2 * full.goodput

    def test_crossover_at_paper_profile(self, paper_rows):
        """The same crossover on the paper profile's load grid: the largest
        group has the best p50 at the lowest load, and a smaller one the
        best goodput at the highest."""
        trad = [r for r in paper_rows if r.scheme == "traditional"]
        low = min(r.load_factor for r in trad)
        high = max(r.load_factor for r in trad)
        largest = max(r.group_cores for r in trad)
        at_low = [r for r in trad if r.load_factor == low]
        at_high = [r for r in trad if r.load_factor == high]
        assert min(at_low, key=lambda r: r.p50).group_cores == largest
        assert max(at_high, key=lambda r: r.goodput).group_cores < largest

    @pytest.mark.parametrize("rows_fixture", ["rows", "paper_rows"])
    def test_structure_dominates_traditional_tails(self, rows_fixture, request):
        """Structure plans move less traffic, so at every geometry and load
        their p99 is no higher than the traditional scheme's."""
        by_key = {
            (r.scheme, r.group_cores, r.load_factor): r
            for r in request.getfixturevalue(rows_fixture)
        }
        pairs = [
            (row, by_key[("traditional", g, f)])
            for (scheme, g, f), row in by_key.items()
            if scheme == "structure" and ("traditional", g, f) in by_key
        ]
        assert pairs
        for structure, traditional in pairs:
            assert structure.p99 <= traditional.p99

    def test_pareto_frontier_marked_per_scheme(self, rows):
        for scheme in ("traditional", "structure"):
            flagged = [r for r in rows if r.scheme == scheme and r.pareto]
            assert flagged, f"no Pareto points for {scheme}"


class TestRender:
    def test_render_has_headers_and_stars(self, rows):
        text = render_tableS1(rows)
        assert "Table S1" in text
        assert "FIFO dispatch" in text  # the default scheduler
        assert "p99 cyc" in text
        assert "goodput" in text
        assert "*" in text
        assert text.count("\n") >= len(rows)

    @pytest.mark.parametrize("scheduler", ["fifo", "sjf", "priority", "batch"])
    def test_title_names_the_scheduler(self, rows, scheduler):
        title = render_tableS1(rows, scheduler=scheduler).splitlines()[0]
        assert f"Poisson arrivals, {scheduler.upper()} dispatch)" in title
