"""One workload process: set up, run passes, check outputs, write a result file.

Started by ``run.py`` with a JSON config as its only argument, in a fresh
interpreter on an empty ``REPRO_CACHE_DIR`` (see ``run.py`` for the host
hygiene).  Modes:

* ``setup``   — import and build the workload, then exit (timed from outside);
* ``session`` — cold pass, then warm passes until ``seconds`` of pass time
  are used (at least ``min_warm``), then every output check;
* ``session`` with ``trace`` — a cold pass and two warm passes under span
  wrappers, interleaved with two untraced warm passes for the overhead;
* ``bless``   — one cold pass at the default seed, golden digests returned.

Every warm pass first drops the in-process memos (artifact cache and serving
service memo), so it reads the disk cache the way a re-run command does.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks._host import host_fingerprint  # noqa: E402
from repro.experiments.cache import clear_memo  # noqa: E402
from repro.obs import METRICS  # noqa: E402
from repro.serve import clear_service_memo  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import BUILDERS, DEFAULT_SEED, digest  # noqa: E402

GOLDEN = HERE / "golden.json"


def run_pass(workload, kind: str, label: str, tracer: Tracer | None) -> tuple[dict, dict]:
    """Run every op once; returns (pass record, label -> summarized output)."""
    if kind != "cold":
        clear_memo()
        clear_service_memo()
    misses_before = METRICS.counter("cache.drain_memo.miss")
    op_s: dict[str, float] = {}
    outputs: dict[str, dict] = {}
    errors: list[str] = []
    with tracer.traced_pass(label) if tracer else nullcontext():
        for op in workload.ops:
            try:
                with tracer.window() if tracer else nullcontext():
                    start = time.perf_counter()
                    raw = op.run()
                    elapsed = time.perf_counter() - start
                outputs[op.label] = op.summarize(raw)
                op_s[op.label] = elapsed
            except Exception:
                errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
            raw = None
    record = {
        "kind": kind,
        "label": label,
        "traced": tracer is not None,
        "wall_s": sum(op_s.values()),
        "op_s": op_s,
        "digests": {k: digest(v) for k, v in outputs.items()},
        "drain_memo_misses": METRICS.counter("cache.drain_memo.miss") - misses_before,
        "errors": errors,
    }
    return record, outputs


def output_checks(workload, cfg: dict, passes: list[dict], cold: dict) -> list[dict]:
    """Every check of the session as ``{name, ok, detail}``.

    The fixed-seed reference streams run only in a session asked for them
    (the first of a run); golden digests apply to every op output when the
    workload ignores the seed or runs at the default seed, and to the
    reference outputs always.
    """
    checks: list[tuple[str, bool, str]] = []
    for p in passes[1:]:
        same = p["digests"] == passes[0]["digests"]
        checks.append((f"{p['label']}.equals_cold", same, "per-op output digests"))
        checks.append((
            f"{p['label']}.drain_memo_misses", p["drain_memo_misses"] == 0,
            f"{p['drain_memo_misses']} misses",
        ))
    try:
        reference = workload.reference() if cfg["reference"] else {}
        checks.extend(workload.checks(cold, reference))
        if not cfg["smoke"]:
            pinned = json.loads(GOLDEN.read_text()).get(workload.name, {})
            for k, v in golden_digests(workload, cfg["seed"], cold, reference).items():
                checks.append((f"golden.{k}", pinned.get(k) == v, f"{v} vs pinned {pinned.get(k)}"))
    except Exception:
        checks.append(("checks.raised", False, traceback.format_exc(limit=3)))
    return [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]


def golden_digests(workload, seed: int, cold: dict, reference: dict) -> dict[str, str]:
    found = {f"reference.{k}": digest(v) for k, v in reference.items()}
    if not workload.seeded or seed == DEFAULT_SEED:
        found.update((k, digest(v)) for k, v in workload.golden(cold).items())
    return found


def session(workload, cfg: dict) -> dict:
    passes: list[dict] = []
    tracer = Tracer() if cfg["trace"] else None
    record, cold = run_pass(workload, "cold", "cold", tracer)
    passes.append(record)
    if cfg["trace"]:
        for i in range(4):
            traced = i % 2 == 0
            record, _ = run_pass(
                workload, "warm", f"warm{i + 1}", tracer if traced else None
            )
            passes.append(record)
    elif cfg["mode"] != "bless":
        while True:
            warm = [p for p in passes if p["kind"] == "warm"]
            used = sum(p["wall_s"] for p in passes)
            if len(warm) >= cfg["min_warm"] and (
                used + warm[-1]["wall_s"] > cfg["seconds"] or len(warm) >= 50
            ):
                break
            record, _ = run_pass(workload, "warm", f"warm{len(warm) + 1}", None)
            passes.append(record)

    result = {"passes": passes, "host": host_fingerprint()}
    if cfg["mode"] == "bless":
        result["golden"] = golden_digests(workload, DEFAULT_SEED, cold, workload.reference())
        return result
    result["checks"] = output_checks(workload, cfg, passes, cold)
    try:
        result["sim_cycles"] = workload.sim_cycles(cold)
        result["extras"] = workload.extras(cold)
    except Exception:
        result["checks"].append(
            {"name": "sim_outputs.raised", "ok": False, "detail": traceback.format_exc(limit=3)}
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        traced = [p["wall_s"] for p in passes[1:] if p["traced"]]
        plain = [p["wall_s"] for p in passes[1:] if not p["traced"]]
        overhead = median(traced) / median(plain) - 1
        result["per_layer"] = tracer.metrics(result.get("extras", {}), overhead)
        result["layer_tables"] = {}
        for p in passes:
            if p["traced"]:
                rows, unattributed, wall = tracer.pass_rows(p["label"])
                result["layer_tables"][p["label"]] = {
                    "rows": rows, "unattributed_ns": unattributed, "wall_ns": wall,
                }
        if cfg.get("spans"):
            tracer.write_jsonl(cfg["spans"], workload.name)
    return result


def main() -> None:
    cfg = json.loads(sys.argv[1])
    workload = BUILDERS[cfg["workload"]](cfg["seed"], cfg["smoke"])
    result = session(workload, cfg) if cfg["mode"] != "setup" else {}
    Path(cfg["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
