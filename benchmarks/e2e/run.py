#!/usr/bin/env python3
"""End-to-end benchmark: four workloads, cold/warm wall clock, simulated QoS, per-layer trace.

Run from the repository root::

    python3 benchmarks/e2e/run.py run [--workload W] [--seed S] [--seconds N]
                                      [--json OUT] [--trace OUT] [--smoke]
    python3 benchmarks/e2e/run.py compare A.jsonl B.jsonl
    python3 benchmarks/e2e/run.py bless
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

``run`` measures every workload (or one) and prints each end-to-end metric
with its unit; ``--json`` appends one line per workload run, ``--trace``
adds a traced run per workload, prints its per-layer table and appends its
spans to OUT as JSONL.  ``compare`` reads two such files and gives each
workload x metric a verdict under the bounds in ``BENCHMARK.json``.
``bless`` rewrites ``golden.json`` from the current code.  The last form
runs one workload and prints one JSON result as its last line.

Host hygiene: every workload process is a fresh interpreter with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``, no ``REPRO_*`` variables except
a fresh empty ``REPRO_CACHE_DIR`` under ``.bench_e2e/`` in the working
directory, and one worker (experiments run with ``workers=1``).  Processes
run one at a time; load is generated in simulated time, so every workload
is a closed loop of one host caller.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, suppress
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

from tracing import per_layer_units  # noqa: E402

WORKLOADS = ("tables", "plans", "serve-open", "serve-closed")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 24

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
}

#: Fresh processes that only import and build the workload, for setup_s.
SETUP_SAMPLES = 3
#: Sessions (fresh processes, each a cold pass plus warm passes) per run.
#: The serving passes are short, so five sessions give cold_s a median;
#: one tables or plans cold pass already takes half the run.
SESSIONS = {"tables": 1, "plans": 1, "serve-open": 5, "serve-closed": 5}
#: Warm passes a session runs at least, whatever --seconds says.
MIN_WARM = 2
#: A workload process that runs longer than this is killed and the run fails.
PROCESS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A workload process failed to produce a result."""


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def _child_env(cache_dir: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        REPRO_CACHE_DIR=cache_dir,
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        ),
    )
    return env


def spawn(cfg: dict, workdir: Path) -> dict:
    """Run one worker process to completion; its result plus ``process_s``."""
    cache = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    fd, result_path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=workdir)
    os.close(fd)
    cfg = {**cfg, "result": result_path}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            env=_child_env(cache), cwd=ROOT, stdout=sys.stderr,
            timeout=PROCESS_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"{cfg['workload']} {cfg['mode']} exited {proc.returncode}")
        result = json.loads(Path(result_path).read_text())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cfg['workload']} {cfg['mode']} timed out") from exc
    finally:
        shutil.rmtree(cache, ignore_errors=True)
        os.unlink(result_path)
    result["process_s"] = elapsed
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            workdir: Path, spans: str | None = None, mode: str = "session") -> dict:
    """One run of one workload: setup samples (untraced only) plus its sessions."""
    sessions = 1 if trace or smoke or mode != "session" else SESSIONS[workload]
    base = {"workload": workload, "seed": seed, "smoke": smoke,
            "seconds": seconds / sessions, "min_warm": 1 if smoke else MIN_WARM,
            "trace": trace, "spans": spans}
    setups = []
    if not trace and mode == "session":
        for _ in range(1 if smoke else SETUP_SAMPLES):
            setups.append(spawn({**base, "mode": "setup"}, workdir)["process_s"])
    runs = [spawn({**base, "mode": mode, "reference": i == 0}, workdir)
            for i in range(sessions)]
    return {"setup_samples": setups, "sessions": runs}


def summarize(workload: str, seed: int, measured: dict) -> dict:
    """Metrics, op accounting and checks of one measured run."""
    sessions = measured["sessions"]
    first = sessions[0]
    passes = [p for s in sessions for p in s["passes"]]
    warm = [p for p in passes if p["kind"] == "warm" and not p["traced"]]
    checks = [c for s in sessions for c in s["checks"]] + [
        {"name": f"session{i + 1}.equals_session1",
         "ok": s["passes"][0]["digests"] == first["passes"][0]["digests"],
         "detail": "cold-pass output digests across processes"}
        for i, s in enumerate(sessions[1:], 1)
    ]
    errors = [e for p in passes for e in p["errors"]]
    out = {
        "workload": workload,
        "seed": seed,
        "attempted": sum(len(p["op_s"]) for p in passes) + len(errors) + len(checks),
        "failed": len(errors) + sum(not c["ok"] for c in checks),
        "failures": [c for c in checks if not c["ok"]]
        + [{"name": "op", "detail": e} for e in errors],
        "extras": first.get("extras", {}),
        "host": first["host"],
    }
    if "per_layer" in first:
        out["per_layer"] = first["per_layer"]
        out["layer_tables"] = first["layer_tables"]
        return out
    colds = [s["passes"][0]["wall_s"] for s in sessions]
    per_op: dict[str, list[float]] = {}
    for p in warm:
        for label, seconds in p["op_s"].items():
            per_op.setdefault(label, []).append(seconds)
    # One latency per op (its median over warm passes), so a percentile
    # ranks the workload's ops rather than one noisy pass of each.
    op_ms = [median(ts) * 1e3 for ts in per_op.values()]
    out["samples"] = {
        "setup_s": measured["setup_samples"],
        "cold_s": colds,
        "warm_s": [p["wall_s"] for p in warm],
        "op_ms": len(op_ms),
    }
    out["metrics"] = {
        "setup_s": median(measured["setup_samples"]),
        "cold_s": median(colds),
        "warm_s": median(p["wall_s"] for p in warm),
        "op_ms.p50": nearest_rank(op_ms, 50),
        "op_ms.p90": nearest_rank(op_ms, 90),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in sessions),
        "sim_cycles": first["sim_cycles"],
    }
    return out


def print_metrics(summary: dict) -> None:
    s = summary["samples"]
    notes = {
        "setup_s": f"median of {len(s['setup_s'])} fresh processes",
        "cold_s": f"median over {len(s['cold_s'])} fresh processes of the first pass, empty cache",
        "warm_s": "median of {} passes, q1 {:.4g} q3 {:.4g}".format(
            len(s["warm_s"]), *quartiles(s["warm_s"])[::2]
        ),
        "op_ms.p50": f"over {s['op_ms']} ops, each its median warm latency",
        "op_ms.p90": f"{s['op_ms'] - -(-s['op_ms'] * 90 // 100)} ops beyond it",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "sim_cycles": "simulated, geomean of the headline latencies",
    }
    print(f"== {summary['workload']} (seed {summary['seed']})")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {summary['metrics'][name]:>14.6g} {unit:<7} {notes[name]}")
    print(f"  {'fail_ratio':<12} {summary['failed']:>7}/{summary['attempted']:<6} failed/attempted ops")
    for name, value in summary["extras"].items():
        print(f"  {name:<22} {value:.6g} (simulated)")
    for failure in summary["failures"]:
        print(f"  FAILED {failure['name']}: {failure['detail']}")


def print_layers(summary: dict) -> None:
    print(f"== {summary['workload']} per-layer trace (seed {summary['seed']})")
    for label, table in summary["layer_tables"].items():
        wall = table["wall_ns"]
        print(f"  pass {label}: wall {wall / 1e9:.4f} s")
        print(f"    {'span':<22} {'calls':>8} {'total s':>10} {'self s':>10} {'share':>7}")
        rows = sorted(table["rows"].items(), key=lambda kv: -kv[1][2])
        rows.append(("unattributed", [0, table["unattributed_ns"], table["unattributed_ns"]]))
        for name, (calls, total, own) in rows:
            print(f"    {name:<22} {calls:>8} {total / 1e9:>10.4f} {own / 1e9:>10.4f} "
                  f"{own / wall if wall else 0:>7.1%}")
    per_layer = summary["per_layer"]
    derived = [k for k in per_layer_units() if not k.endswith((".calls", ".s", ".self_s"))]
    print("  " + "  ".join(f"{k}={per_layer[k]:.4g}" for k in derived))


def driver_result(summary: dict, trace: bool) -> dict:
    units = per_layer_units() if trace else END_TO_END
    values = summary["per_layer"] if trace else summary["metrics"]
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


@contextmanager
def scratch_dir():
    """A fresh directory under ``.bench_e2e/`` in the working directory, removed after."""
    base = Path.cwd() / ".bench_e2e"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with suppress(OSError):
            base.rmdir()


def cmd_driver(args) -> int:
    with scratch_dir() as workdir:
        summary = summarize(args.workload, args.seed, measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, workdir))
    if args.trace:
        print_layers(summary)
    else:
        print_metrics(summary)
    print(json.dumps(driver_result(summary, bool(args.trace))))
    return 0


def cmd_run(args) -> int:
    failed = 0
    with scratch_dir() as workdir:
        for workload in [args.workload] if args.workload else WORKLOADS:
            summary = summarize(workload, args.seed, measure(
                workload, args.seed, args.seconds, False, args.smoke, workdir))
            print_metrics(summary)
            if args.trace:
                traced = summarize(workload, args.seed, measure(
                    workload, args.seed, args.seconds, True, args.smoke, workdir,
                    spans=str(Path(args.trace).resolve())))
                print_layers(traced)
                summary["per_layer"] = traced["per_layer"]
                failed += traced["failed"]
            failed += summary["failed"]
            if args.json:
                with open(args.json, "a") as f:
                    record = {k: summary[k] for k in
                              ("workload", "seed", "metrics", "samples", "attempted",
                               "failed", "extras", "host")}
                    record["per_layer"] = summary.get("per_layer")
                    f.write(json.dumps(record) + "\n")
    return 1 if failed else 0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[str, float]:
    """same / better / worse / unresolved for set ``b`` against base set ``a``.

    A set whose quartile spread exceeds the bound cannot resolve a change of
    that size: unresolved, unless every run of ``b`` beats every run of ``a``.
    """
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if better == "lower" else -1
    change = sign * (qb[1] - qa[1]) / qa[1]  # > 0 means b is worse
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if spread > bound:
        all_better = max(b) < min(a) if sign > 0 else min(b) > max(a)
        return ("better" if all_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def cmd_compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = []
    for path in (args.a, args.b):
        runs: dict[str, list[dict]] = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec["metrics"])
        sets.append(runs)
    worse = 0
    for workload in WORKLOADS:
        if workload not in sets[0] or workload not in sets[1]:
            continue
        print(f"== {workload}: {len(sets[0][workload])} vs {len(sets[1][workload])} runs")
        for m in spec["end_to_end"]:
            a = [r[m["name"]] for r in sets[0][workload]]
            b = [r[m["name"]] for r in sets[1][workload]]
            qa, qb = quartiles(a), quartiles(b)
            word, change = verdict(a, b, m["bound"], m["better"])
            worse += word == "worse"
            print(f"  {m['name']:<12} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']:<7} "
                  f"{change:+.2%} (bound {m['bound']:.0%})  {word}")
    return 1 if worse else 0


def cmd_bless(args) -> int:
    golden = {}
    with scratch_dir() as workdir:
        for workload in WORKLOADS:
            measured = measure(workload, DEFAULT_SEED, 0, False, False, workdir, mode="bless")
            golden[workload] = measured["sessions"][0]["golden"]
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'golden.json'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="measure workloads and print every metric")
    run.add_argument("--workload", choices=WORKLOADS)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run.add_argument("--json", help="append one JSON line per workload run")
    run.add_argument("--trace", help="also run traced; append spans here as JSONL")
    run.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    cmp = sub.add_parser("compare", help="verdict per workload x metric for two run sets")
    cmp.add_argument("a")
    cmp.add_argument("b")
    sub.add_parser("bless", help="rewrite golden.json from the current code")
    if argv and argv[0] in sub.choices:
        args = parser.parse_args(argv)
        return {"run": cmd_run, "compare": cmd_compare, "bless": cmd_bless}[args.command](args)

    driver = argparse.ArgumentParser(description="run one workload, print one JSON result")
    driver.add_argument("--workload", choices=WORKLOADS, required=True)
    driver.add_argument("--seed", type=int, required=True)
    driver.add_argument("--seconds", type=float, required=True)
    driver.add_argument("--trace", type=int, choices=(0, 1), required=True)
    driver.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return cmd_driver(driver.parse_args(argv))


if __name__ == "__main__":
    # A terminated runner unwinds like an exception, so the running workload
    # process is killed and waited for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
