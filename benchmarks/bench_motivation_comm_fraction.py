"""Regenerates the §III.B motivational study — the communication-blocked
fraction of single-pass inference under traditional 16-core parallelization
(the paper reports ~23% for AlexNet on its in-house platform)."""

import pytest

from repro.experiments.motivation import render_motivation, run_motivation

from .conftest import emit


@pytest.fixture(scope="module")
def motivation_rows():
    rows = run_motivation()
    emit(render_motivation(rows))
    return rows


def test_benchmark_motivation(motivation_rows):
    rows = run_motivation()
    fractions = {r.network: r.comm_fraction for r in rows}
    # Communication is a significant share of small-network inference and a
    # non-trivial share of AlexNet's.
    assert fractions["mlp"] > 0.2
    assert fractions["lenet"] > 0.2
    assert 0.05 < fractions["alexnet"] < 0.5


@pytest.fixture(scope="module")
def scaling_rows():
    from repro.experiments.motivation import (
        render_motivation_scaling,
        run_motivation_scaling,
    )

    rows = run_motivation_scaling()
    emit(render_motivation_scaling(rows))
    return rows


def test_benchmark_motivation_scaling(scaling_rows):
    from repro.experiments.motivation import run_motivation_scaling

    run_motivation_scaling(core_counts=(4, 16))
    fractions = [r.comm_fraction for r in scaling_rows]
    # The paper's claim: the communication share grows with system scale...
    assert fractions == sorted(fractions)
    # ...passing ~30% at DaDianNao-like scales.
    assert fractions[-1] > 0.25
