#!/usr/bin/env python
"""Record serial-vs-parallel experiment wall-clock into ``BENCH_experiments.json``.

Runs the same experiment set twice per worker count — cold (fresh cache
directory, so training and simulation actually execute) and warm (second run
over the same cache, measuring the read-through path) — once serially and
once with ``--workers`` processes, then writes the timings, speedups, and
per-run dispatch decisions to ``BENCH_experiments.json`` at the repo root.

The script also asserts the parallel run's rendered tables are byte-identical
to the serial run's: worker count must be a throughput knob, never an output
knob.  Two regimes are interpretable from the recorded ``cpu_count``:

* **≥ 2 cores** — the pool path engages; ``speedup_cold`` is the warm-pool
  sharding win (target ≥ 1.3x at ``--workers 2``).
* **1 core** — dispatch keeps every call serial, so the "parallel" run
  measures pure dispatch overhead; ``overhead_vs_serial`` should be ≤ 1.02
  (within 2% of the serial loop).

``--strict`` turns those expectations into hard failures for the machine's
regime (CI gates cold speedup ≥ 1.0 and fallback overhead ≤ 2%); on ≥ 2
cores it also fails when the parallel cold run never dispatched to the pool,
so a silent fallback to serial cannot pass.  Without it the numbers are
report-only.

Usage::

    PYTHONPATH=src python benchmarks/bench_experiments.py \\
        [--profile fast] [--workers 2] [--strict] \\
        [--experiments table1 table3 ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

from repro.experiments import get_profile  # noqa: E402
from repro.experiments.cache import clear_memo  # noqa: E402
from repro.experiments.runner import EXPERIMENTS, run_all  # noqa: E402
from repro.obs import METRICS  # noqa: E402
from repro.parallel import warmpool  # noqa: E402

from benchmarks._host import host_fingerprint  # noqa: E402

#: Default set: two table-only experiments plus two that train/simulate under
#: internal pmap grids, so both sharding levels get exercised.
DEFAULT_EXPERIMENTS = ("table1", "motivation", "table3", "tableS1")

DISPATCH_PATHS = ("serial", "pool")


def _dispatch_counts() -> dict[str, float]:
    return {
        path: METRICS.counter("parallel.dispatch", path=path)
        for path in DISPATCH_PATHS
    }


def timed_run(profile, names, workers, cache_dir) -> tuple[float, dict, dict]:
    """One ``run_all`` against ``cache_dir``; returns (seconds, tables, dispatch)."""
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    clear_memo()
    before = _dispatch_counts()
    t0 = time.perf_counter()
    tables = run_all(profile, names=tuple(names), workers=workers)
    seconds = time.perf_counter() - t0
    dispatch = {k: v - before[k] for k, v in _dispatch_counts().items()}
    return seconds, tables, dispatch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="fast", choices=("paper", "fast"))
    parser.add_argument(
        "--workers", type=int, default=2, help="parallel worker count to compare"
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail unless this machine's regime meets its targets: "
        "cold speedup >= --min-cold-speedup and at least one pool dispatch "
        "on >=2 cores, overhead <= --max-overhead under the 1-core serial "
        "fallback",
    )
    parser.add_argument(
        "--min-cold-speedup", type=float, default=1.0,
        help="--strict floor for cold parallel speedup on >=2 cores "
        "(CI gate 1.0; local multi-core target 1.3)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=1.02,
        help="--strict ceiling for parallel/serial cold ratio at cpu_count=1",
    )
    parser.add_argument(
        "--experiments", nargs="*", default=list(DEFAULT_EXPERIMENTS),
        help=f"experiments to time (default: {' '.join(DEFAULT_EXPERIMENTS)})",
    )
    args = parser.parse_args()
    if args.workers < 2:
        parser.error("--workers must be >= 2 (serial is always measured)")
    unknown = [n for n in args.experiments if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; known: {list(EXPERIMENTS)}")

    profile = get_profile(args.profile)
    timings: dict[str, float] = {}
    dispatches: dict[str, dict[str, float]] = {}
    with tempfile.TemporaryDirectory(prefix="bench_experiments_") as tmp:
        serial_dir = Path(tmp) / "serial"
        parallel_dir = Path(tmp) / "parallel"
        runs = [
            ("serial_cold_s", 1, serial_dir),
            ("serial_warm_s", 1, serial_dir),
            ("parallel_cold_s", args.workers, parallel_dir),
            ("parallel_warm_s", args.workers, parallel_dir),
        ]
        tables: dict[str, dict[str, str]] = {}
        for label, workers, cache_dir in runs:
            seconds, result, dispatch = timed_run(
                profile, args.experiments, workers, cache_dir
            )
            timings[label] = seconds
            tables[label] = result
            dispatches[label] = dispatch
            taken = " ".join(f"{k}={v:g}" for k, v in dispatch.items() if v)
            print(
                f"{label:>16}: {seconds:7.2f} s  (workers={workers}"
                f"{', dispatch ' + taken if taken else ''})"
            )
        # The timed runs are done; drop the warm pool before the temp cache
        # directory (its workers' cwd-independent state) goes away.
        warmpool.shutdown()

    identical = tables["serial_cold_s"] == tables["parallel_cold_s"]
    cpu_count = os.cpu_count() or 1
    serial_fallback = cpu_count < 2
    overhead = timings["parallel_cold_s"] / timings["serial_cold_s"]
    payload = {
        "profile": args.profile,
        "workers": args.workers,
        "cpu_count": cpu_count,
        "host": host_fingerprint(),
        "experiments": list(args.experiments),
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
        "speedup_cold": round(timings["serial_cold_s"] / timings["parallel_cold_s"], 2),
        "speedup_warm": round(timings["serial_warm_s"] / timings["parallel_warm_s"], 2),
        "overhead_vs_serial": round(overhead, 3),
        "serial_fallback": serial_fallback,
        "dispatch": {k: {p: c for p, c in v.items() if c} for k, v in dispatches.items()},
        "outputs_identical": identical,
    }
    out = _ROOT / "BENCH_experiments.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"cold speedup {payload['speedup_cold']}x, "
        f"warm speedup {payload['speedup_warm']}x "
        f"({cpu_count} CPUs"
        f"{', serial fallback' if serial_fallback else ''}); wrote {out}"
    )
    assert identical, "parallel run rendered different tables than serial"

    if args.strict:
        if serial_fallback:
            assert overhead <= args.max_overhead, (
                f"1-core serial fallback cost {overhead:.3f}x vs serial "
                f"(ceiling {args.max_overhead}x): dispatch overhead regressed"
            )
            assert dispatches["parallel_cold_s"]["pool"] == 0, (
                "1-core run dispatched to a pool; serial fallback is broken"
            )
        else:
            assert dispatches["parallel_cold_s"]["pool"] > 0, (
                f"parallel cold run made no pool dispatch on a {cpu_count}-core "
                f"machine: every call fell back to serial"
            )
            assert payload["speedup_cold"] >= args.min_cold_speedup, (
                f"cold speedup {payload['speedup_cold']}x under the "
                f"{args.min_cold_speedup}x floor on a {cpu_count}-core machine"
            )
        print("strict gates passed")


if __name__ == "__main__":
    main()
