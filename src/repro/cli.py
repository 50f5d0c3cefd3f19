"""Command-line entry points: ``repro-experiments`` and ``repro-serve``.

``repro-experiments [names...] [--profile fast]`` runs the requested paper
experiments (default: all) and prints their tables; ``repro-serve`` (see
:mod:`repro.serve.cli`) drives the request-level serving simulator.
Trained models are cached under ``$REPRO_CACHE_DIR`` (default
``.repro_cache/``), so re-runs only pay for simulation.

Parallelism: ``--workers N`` shards each experiment's internal grids (its
networks, core counts, lambda points or serving configurations) across N
worker processes drawn from one persistent warm pool; the experiments
themselves run one after another.  Calls that cannot use a pool (one CPU,
one item) stay serial, and the run summary's ``[parallel]`` line counts both
paths and why each serial fallback happened.  Workers share the artifact
cache under single-flight claims, so nothing trains twice; rendered tables
are byte-identical to a ``--workers 1`` run.

Observability flags (shared with ``repro-serve``: :func:`add_telemetry_flags`
and :func:`telemetry`):

``--trace out.jsonl``
    Enable span tracing, per-link NoC profiling, *and* serve time-series
    collection for the run, then write spans + a metrics snapshot + serve
    time-series + accumulated NoC profiles to ``out.jsonl`` (summarize with
    ``scripts/report_trace.py out.jsonl``).  Worker-process spans, series,
    and profiles are merged in, so parallel traces are complete.
``--perfetto out.perfetto.json``
    Write the same collected state as a Chrome trace-event file that opens
    directly in https://ui.perfetto.dev.
``--metrics``
    Print the metrics-registry snapshot (drain-memo and artifact-cache hit
    rates, NoC flit counters, training losses) after the run.

Every run ends with a one-line artifact-cache summary (hits/misses, memo
hits, single-flight lock activity).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import Iterator

from . import obs
from .experiments import EXPERIMENTS, get_profile
from .experiments.cache import cache_summary
from .experiments.runner import run_one

__all__ = [
    "main",
    "serve_main",
    "add_workers_flag",
    "apply_workers",
    "add_telemetry_flags",
    "telemetry",
]


def add_workers_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--workers`` option (repro-experiments and repro-serve)."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for experiment grids (default: 1 = serial)",
    )


def apply_workers(workers: int | None) -> int | None:
    """Validate ``--workers``; the runners take the count as an argument."""
    if workers is not None and workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {workers}")
    return workers


def add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace``, ``--perfetto`` and ``--metrics`` options."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL trace (spans + metrics + serve time-series + "
        "NoC link profiles) to PATH",
    )
    parser.add_argument(
        "--perfetto",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event file for ui.perfetto.dev to PATH",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics snapshot after the run",
    )


@contextmanager
def telemetry(args: argparse.Namespace, window_cycles: int | None = None) -> Iterator[None]:
    """Collect what ``--trace`` / ``--perfetto`` ask for around a run.

    Turns on span tracing, NoC profiling and serve time series (windows of
    ``window_cycles``), then writes the requested files and turns all three
    off again, even when the run raises.
    """
    traced = bool(args.trace or args.perfetto)
    if traced:
        obs.enable_tracing()
        obs.enable_noc_profiling()
        obs.enable_timeseries(window_cycles=window_cycles)
    try:
        yield
    finally:
        if traced:
            if args.trace:
                path = obs.export_trace(args.trace)
                print(f"[trace written to {path}]")
            if args.perfetto:
                path = obs.export_perfetto(args.perfetto)
                print(f"[perfetto trace written to {path}]")
            obs.disable_tracing()
            obs.disable_noc_profiling()
            obs.disable_timeseries()
            obs.clear_timeseries()


def serve_main(argv: list[str] | None = None) -> int:
    """``repro-serve`` entry point — the request-level serving simulator.

    Lives here so both console scripts resolve through one module; the
    implementation (arg parsing included) is :mod:`repro.serve.cli`.
    """
    from .serve.cli import main as _serve_cli

    return _serve_cli(argv)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the Learn-to-Scale (DATE'19) evaluation tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(EXPERIMENTS),
        help=f"experiments to run (default: all). Known: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--profile",
        default="paper",
        choices=("paper", "fast"),
        help="training effort profile (fast = smoke-test sizes)",
    )
    add_telemetry_flags(parser)
    add_workers_flag(parser)
    args = parser.parse_args(argv)
    profile = get_profile(args.profile)
    workers = apply_workers(args.workers)

    unknown = [n for n in args.experiments if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; known: {list(EXPERIMENTS)}")

    with telemetry(args):
        for name in args.experiments:
            start = time.time()
            table = run_one(name, profile, workers=workers)
            elapsed = time.time() - start
            print(table)
            print(f"[{name} finished in {elapsed:.1f}s]\n")

    print(cache_summary())
    if args.metrics:
        print(obs.METRICS.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
