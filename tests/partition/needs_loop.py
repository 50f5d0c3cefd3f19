"""Per-pair loop reference for :func:`repro.partition.layout.traffic_from_needs`.

The loop the library used before the traffic matrix became one segment sum:
for each producer slice, count the needed indices per consumer and charge
every other consumer.  ``test_traffic_sums.py`` holds the segment sum equal
to it.
"""

from __future__ import annotations

import numpy as np

from repro.partition.layout import ProducerLayout


def loop_traffic(
    layout: ProducerLayout, needs: np.ndarray, bytes_per_value: int
) -> np.ndarray:
    p = layout.num_cores
    per_index_bytes = layout.values_per_index * bytes_per_value
    m = np.zeros((p, p), dtype=np.int64)
    for producer, (start, stop) in enumerate(layout.bounds):
        if stop <= start:
            continue
        counts = needs[start:stop, :].sum(axis=0)
        for consumer in range(p):
            if consumer == producer:
                continue
            m[producer, consumer] += int(counts[consumer]) * per_index_bytes
    return m
