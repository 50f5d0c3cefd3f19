"""Shared configuration of the paper-table files (``bench_*.py``).

They regenerate every table/figure of the paper and assert its qualitative
claims.  The expensive part — training the benchmark networks — runs once
per configuration and is cached on disk (``$REPRO_CACHE_DIR``, default
``.repro_cache/``), so only the first invocation pays for training.  Host
time is measured by ``benchmarks/e2e``, not here.

Set ``REPRO_PROFILE=fast`` to smoke-test the whole harness in minutes with
tiny training runs (numbers will be off; plumbing identical).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import get_profile


@pytest.fixture(scope="session")
def profile():
    return get_profile(os.environ.get("REPRO_PROFILE", "paper"))


def emit(report: str) -> None:
    """Print a rendered experiment table into the benchmark log."""
    print()
    print(report)
