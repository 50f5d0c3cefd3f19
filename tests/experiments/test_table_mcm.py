"""Table MCM: a pipelined MCM out-serves every single-chip layout.

Both profiles run the serving sweep only (no training), so the paper
profile is as cheap as the fast one here.
"""

import pytest

from repro.experiments.config import FAST, PAPER
from repro.experiments.table_mcm import run_table_mcm


def _best_single_chip(rows):
    return max((r for r in rows if r.kind == "chip"), key=lambda r: r.goodput)


def _best_pipelined(rows):
    """Best genuinely pipelined layout: two or more stages, not pure chip
    replication."""
    return max((r for r in rows if r.kind == "mcm" and r.stages > 1), key=lambda r: r.goodput)


@pytest.fixture(scope="module")
def fast_rows():
    return run_table_mcm(FAST)


@pytest.fixture(scope="module")
def paper_rows():
    return run_table_mcm(PAPER)


def test_fast_pipelined_beats_single_chip_at_pinned_goodputs(fast_rows):
    chip, pipe = _best_single_chip(fast_rows), _best_pipelined(fast_rows)
    assert pipe.goodput > chip.goodput
    assert round(chip.goodput, 1) == 595.1
    assert round(pipe.goodput, 1) == 821.4


def test_paper_pipelined_beats_single_chip(paper_rows):
    assert _best_pipelined(paper_rows).goodput > _best_single_chip(paper_rows).goodput


@pytest.mark.parametrize("rows_fixture", ["fast_rows", "paper_rows"])
def test_global_frontier_is_consistent(rows_fixture, request):
    """The global frontier is non-empty and no flagged row is dominated by
    any row of either family."""
    rows = request.getfixturevalue(rows_fixture)
    front = [r for r in rows if r.pareto]
    assert front
    for r in front:
        assert not any(
            o.goodput >= r.goodput
            and o.p99 <= r.p99
            and (o.goodput > r.goodput or o.p99 < r.p99)
            for o in rows
        )
