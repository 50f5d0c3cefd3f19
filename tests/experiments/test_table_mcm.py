"""Table MCM: a pipelined MCM out-serves every single-chip layout.

Both profiles run the serving sweep only (no training), so the paper
profile is as cheap as the fast one here.
"""

import dataclasses

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


#: Every field of the fast-profile rows in ``TableMcmRow`` order (kind,
#: scheme, chips, stages, replicas, group_cores, load_factor,
#: rate_per_megacycle, p50, p99, throughput, goodput, violation_rate,
#: utilization, pareto).
PINNED_FAST_ROWS = [
    ("chip", "traditional", 1, 1, 1, 16, 0.25, 38.37298541826554, 6515, 18034,
     36.06276363382832, 36.06276363382832, 0.0, 0.23494890507439148, False),
    ("chip", "traditional", 1, 1, 1, 16, 1.0, 153.49194167306217, 15229, 73577,
     127.55850470818442, 127.55850470818442, 0.0, 0.8310436581738214, False),
    ("chip", "traditional", 1, 1, 1, 16, 6.0, 920.951650038373, 392563, 811169,
     153.49194167306217, 18.41903300076746, 0.88, 1.0, False),
    ("chip", "traditional", 1, 1, 4, 4, 0.25, 38.37298541826554, 14842, 14842,
     35.99071151717165, 35.99071151717165, 0.0, 0.1335435350844654, False),
    ("chip", "traditional", 1, 1, 4, 4, 1.0, 153.49194167306217, 14842, 27667,
     128.8318898435809, 128.8318898435809, 0.0, 0.47803072726460694, False),
    ("chip", "traditional", 1, 1, 4, 4, 6.0, 920.951650038373, 187730, 404088,
     265.8952160132735, 60.269582296341994, 0.7733333333333333, 0.9866041990172513,
     False),
    ("chip", "traditional", 1, 1, 16, 1, 0.25, 38.37298541826554, 50714, 50714,
     35.683580842579744, 35.683580842579744, 0.0, 0.11310356992816181, False),
    ("chip", "traditional", 1, 1, 16, 1, 1.0, 153.49194167306217, 50714, 50714,
     124.98125281207818, 124.98125281207818, 0.0, 0.39614370344448335, False),
    ("chip", "traditional", 1, 1, 16, 1, 6.0, 920.951650038373, 172405, 351274,
     293.35951404018635, 62.58336299523975, 0.7866666666666666, 0.9298396496896256,
     False),
    ("chip", "structure", 1, 1, 1, 16, 0.25, 38.37298541826554, 2449, 5671,
     36.098050969966664, 36.098050969966664, 0.0, 0.08840412682544836, False),
    ("chip", "structure", 1, 1, 1, 16, 1.0, 153.49194167306217, 2449, 7985,
     130.21794142796995, 130.21794142796995, 0.0, 0.3189037385570984, False),
    ("chip", "structure", 1, 1, 1, 16, 6.0, 920.951650038373, 87613, 205335,
     408.3299305839118, 225.94256158976452, 0.44666666666666666, 1.0, False),
    ("chip", "structure", 1, 1, 4, 4, 0.25, 38.37298541826554, 6629, 6629,
     36.06177526349738, 36.06177526349738, 0.0, 0.059763377055431034, False),
    ("chip", "structure", 1, 1, 4, 4, 1.0, 153.49194167306217, 6629, 6629,
     129.74712285755064, 129.74712285755064, 0.0, 0.2150234193556758, False),
    ("chip", "structure", 1, 1, 4, 4, 6.0, 920.951650038373, 36645, 91994,
     595.1483506455376, 595.1483506455376, 0.0, 0.9863096041073172, False),
    ("mcm", "traditional", 4, 1, 4, 16, 0.25, 38.37298541826554, 6515, 6515,
     36.06276363382832, 36.06276363382832, 0.0, 0.05873722626859787, False),
    ("mcm", "traditional", 4, 1, 4, 16, 1.0, 153.49194167306217, 6515, 6515,
     129.75991819934757, 129.75991819934757, 0.0, 0.21134646676718735, False),
    ("mcm", "traditional", 4, 1, 4, 16, 6.0, 920.951650038373, 34978, 87662,
     605.556587244556, 605.556587244556, 0.0, 0.9863002914745707, False),
    ("mcm", "traditional", 4, 2, 2, 32, 0.25, 38.37298541826554, 7119, 10497,
     36.057527621869035, 36.057527621869035, 0.0, 0.09111737230046305, False),
    ("mcm", "traditional", 4, 2, 2, 32, 1.0, 153.49194167306217, 7119, 12678,
     129.69215405698674, 129.69215405698674, 0.0, 0.3277320733020055, False),
    ("mcm", "traditional", 4, 2, 2, 32, 6.0, 920.951650038373, 97053, 221207,
     393.44159097287616, 201.9666833660764, 0.4866666666666667, 0.994226900388458,
     False),
    ("mcm", "traditional", 4, 4, 1, 64, 0.25, 38.37298541826554, 9847, 19865,
     36.03389780834627, 36.03389780834627, 0.0, 0.09247379194555902, False),
    ("mcm", "traditional", 4, 4, 1, 64, 1.0, 153.49194167306217, 14904, 60220,
     128.06863112562934, 128.06863112562934, 0.0, 0.5854418410463378, False),
    ("mcm", "traditional", 4, 4, 1, 64, 6.0, 920.951650038373, 346463, 715637,
     170.25140457408773, 21.56517791271778, 0.8733333333333333, 0.99103796606322,
     False),
    ("mcm", "structure", 4, 1, 4, 16, 0.25, 38.37298541826554, 2449, 2449,
     36.098050969966664, 36.098050969966664, 0.0, 0.02210103170636209, False),
    ("mcm", "structure", 4, 1, 4, 16, 1.0, 153.49194167306217, 2449, 2449,
     130.21794142796995, 130.21794142796995, 0.0, 0.0797259346392746, True),
    ("mcm", "structure", 4, 1, 4, 16, 6.0, 920.951650038373, 2449, 4122,
     914.1937725120216, 914.1937725120216, 0.0, 0.5597151372204853, True),
    ("mcm", "structure", 4, 2, 2, 32, 0.25, 38.37298541826554, 4120, 4509,
     36.08354061322775, 36.08354061322775, 0.0, 0.03707824354946572, False),
    ("mcm", "structure", 4, 2, 2, 32, 1.0, 153.49194167306217, 4120, 5922,
     130.02931727673533, 130.02931727673533, 0.0, 0.1336311293653009, False),
    ("mcm", "structure", 4, 2, 2, 32, 6.0, 920.951650038373, 5938, 21369,
     821.4451959146792, 821.4451959146792, 0.0, 0.8472933380794612, False),
    ("mcm", "structure", 4, 4, 1, 64, 0.25, 38.37298541826554, 9847, 19865,
     36.03389780834627, 36.03389780834627, 0.0, 0.09247379194555902, False),
    ("mcm", "structure", 4, 4, 1, 64, 1.0, 153.49194167306217, 14904, 60220,
     128.06863112562934, 128.06863112562934, 0.0, 0.5854418410463378, False),
    ("mcm", "structure", 4, 4, 1, 64, 6.0, 920.951650038373, 346463, 715637,
     170.25140457408773, 21.56517791271778, 0.8733333333333333, 0.99103796606322,
     False),
]


def test_fast_rows_pinned(fast_rows):
    assert [dataclasses.astuple(r) for r in fast_rows] == PINNED_FAST_ROWS


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
