"""Shared host fingerprint for every ``BENCH_*.json`` writer.

Benchmark reports mix deterministic simulator outputs (drain cycles, request
counts) with wall-clock measurements (speedups, overheads).  The second kind
only means anything relative to the machine that recorded it, so every report
embeds this fingerprint under a ``"host"`` key; the regression watchdog
(:mod:`repro.obs.regress`) reads ``host.cpu_count`` to decide whether a
host-sensitive tolerance gate applies or must be skipped.

``repro_env`` captures the ``REPRO_*`` environment knobs (worker count,
float32 compute, cache dir overrides...) active during the run — the usual
suspects when two runs of the same code disagree.
"""

from __future__ import annotations

import os
import platform


def host_fingerprint() -> dict:
    """Plain-JSON description of the recording host."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.system(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "repro_env": {
            k: os.environ[k] for k in sorted(os.environ) if k.startswith("REPRO_")
        },
    }
