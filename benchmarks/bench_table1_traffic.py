"""Regenerates Table I — per-layer NoC data volume under traditional
16-core partitioning of MLP / LeNet / ConvNet / AlexNet / VGG19."""

import pytest

from repro.experiments.table1 import render_table1, run_table1

from .conftest import emit


@pytest.fixture(scope="module")
def table1_rows():
    rows = run_table1()
    emit(render_table1(rows))
    return rows


def test_benchmark_table1(table1_rows):
    """The full analytical traffic computation."""
    rows = run_table1()
    assert len(rows) == len(table1_rows)
    # Sanity on the headline ordering the paper reports.
    alex = {r.layer: r.bytes_moved for r in rows if r.network == "alexnet"}
    assert alex["conv3"] > alex["conv2"] > alex["ip1"]
