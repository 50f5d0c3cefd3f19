"""Host fingerprint stamped on every end-to-end benchmark result.

Wall-clock measurements only mean anything relative to the machine that
recorded them, so ``benchmarks/e2e/worker.py`` embeds this fingerprint under
a ``"host"`` key in each result.

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
