#!/usr/bin/env python
"""Record training hot-path timings into ``BENCH_train.json``.

Three measurements, all at the default float64 unless stated:

* **Regularizer step** — per-step wall-clock of the group-Lasso machinery
  (``add_gradients`` + ``prox_step``) for SS and SS_Mask at P ∈ {4, 16},
  fused block kernels vs the sliced P x P loop (``REPRO_FUSED_BLOCKS``).
* **Cold table3** — full ``run_all(("table3",))`` against a fresh cache with
  the hot-path optimizations on vs off (``REPRO_BUFFER_REUSE`` +
  ``REPRO_FUSED_BLOCKS``); table3 trains three ConvNet baselines, so this
  isolates the conv/buffer work from the sparsity kernels.
* **float32** — the same MLP baseline trained at float64 and float32
  (``TrainConfig.dtype``), recording per-epoch time and the accuracy delta.

The script always fails if the fused path falls back to the sliced loop for
the standard uniform 16-core partitions (the CI gate).  ``--strict``
additionally asserts the performance targets (≥3x regularizer step, ≥1.5x
cold table3) — used when regenerating the checked-in artifact, left off in
CI where machine noise would make them flaky.

Usage::

    PYTHONPATH=src python benchmarks/bench_train.py [--profile fast] [--strict]
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

from repro.datasets.synthetic import synthetic_mnist  # noqa: E402
from repro.experiments import get_profile  # noqa: E402
from repro.experiments.cache import clear_memo  # noqa: E402
from repro.experiments.runner import run_all  # noqa: E402
from repro.models.factory import build_mlp  # noqa: E402
from repro.nn.regularizers import GroupLassoRegularizer  # noqa: E402
from repro.obs import METRICS  # noqa: E402
from repro.partition.distance import (  # noqa: E402
    distance_strength_mask,
    uniform_strength,
)
from repro.partition.sparsified import layer_block_partitions  # noqa: E402
from repro.train.trainer import TrainConfig, Trainer  # noqa: E402

from benchmarks._host import host_fingerprint  # noqa: E402

GATES = ("REPRO_FUSED_BLOCKS", "REPRO_BUFFER_REUSE")


def _set_gates(value: str) -> None:
    for gate in GATES:
        os.environ[gate] = value


def bench_regularizer_step(profile) -> dict:
    """Per-step add_gradients + prox_step over the uniform partitions.

    ``auto`` is the default dispatch (fused kernels above the block-count
    crossover, sliced loop below it); ``loop`` forces ``REPRO_FUSED_BLOCKS=0``
    everywhere.  At P=16 auto means fused, which is where the >=3x target
    lives; at P=4 auto picks the loop itself, so the speedup sits near 1.
    The classifier head (uneven split) always loops and is excluded — its
    cost is identical on both paths.
    """
    results: dict[str, dict] = {}
    for num_cores in (4, 16):
        model = build_mlp(seed=profile.seed)
        partitions = layer_block_partitions(model, num_cores)
        uniform = {k: p for k, p in partitions.items() if p.uniform}
        for scheme, strength in (
            ("ss", uniform_strength(num_cores)),
            ("ss_mask", distance_strength_mask(num_cores)),
        ):
            reg = GroupLassoRegularizer(uniform, lam=1e-3, strength=strength)
            model.zero_grad()
            timings: dict[str, float] = {}
            for label, gate in (("auto", "1"), ("loop", "0")):
                os.environ["REPRO_FUSED_BLOCKS"] = gate
                reps = 30

                def step() -> None:
                    reg.add_gradients(model)
                    reg.prox_step(model, lr=0.01)

                step()  # warm
                best = float("inf")
                for _ in range(3):
                    t0 = time.perf_counter()
                    for _ in range(reps):
                        step()
                    best = min(best, (time.perf_counter() - t0) / reps * 1e3)
                timings[label] = best
            results[f"{scheme}_p{num_cores}"] = {
                "auto_ms": round(timings["auto"], 3),
                "loop_ms": round(timings["loop"], 3),
                "speedup": round(timings["loop"] / timings["auto"], 2),
            }
    os.environ["REPRO_FUSED_BLOCKS"] = "1"
    return results


def check_fused_path_clean(profile) -> None:
    """The standard uniform 16-core partitions must use the fused kernels."""
    os.environ["REPRO_FUSED_BLOCKS"] = "1"
    model = build_mlp(seed=profile.seed)
    partitions = layer_block_partitions(model, 16)
    # The classifier head (304 -> 10) cannot split 10 outputs over 16 cores
    # uniformly; only the uniform partitions carry the fused-path guarantee.
    uniform = {k: p for k, p in partitions.items() if p.uniform}
    assert uniform, "no uniform 16-core partitions found — check the model"
    METRICS.reset()
    for name, partition in uniform.items():
        partition.block_norms(model.get_parameter(name).data)
    fused = METRICS.counter("sparsity.block_kernel", path="fused")
    loop = METRICS.counter("sparsity.block_kernel", path="loop")
    assert loop == 0 and fused == len(uniform), (
        f"fused path fell back to the sliced loop for standard uniform "
        f"16-core partitions (fused={fused}, loop={loop}, expected "
        f"{len(uniform)} fused)"
    )


def bench_cold_table3(profile) -> dict:
    """Cold table3 wall-clock: hot-path optimizations on vs off."""
    timings: dict[str, float] = {}
    for label, gate in (("optimized", "1"), ("baseline", "0")):
        _set_gates(gate)
        with tempfile.TemporaryDirectory(prefix="bench_train_") as tmp:
            os.environ["REPRO_CACHE_DIR"] = tmp
            clear_memo()
            t0 = time.perf_counter()
            run_all(profile, names=("table3",), workers=1)
            timings[label] = time.perf_counter() - t0
        print(f"  table3 cold {label:>9}: {timings[label]:7.2f} s")
    _set_gates("1")
    return {
        "optimized_s": round(timings["optimized"], 2),
        "baseline_s": round(timings["baseline"], 2),
        "speedup": round(timings["baseline"] / timings["optimized"], 2),
    }


def bench_float32(profile) -> dict:
    """The same MLP baseline at float64 vs float32: time + accuracy delta."""
    dataset = synthetic_mnist(
        flat=True,
        train_size=profile.train_size,
        test_size=profile.test_size,
        seed=profile.seed,
    )
    runs: dict[str, dict] = {}
    for dtype in ("float64", "float32"):
        model = build_mlp(seed=profile.seed)
        cfg = TrainConfig(
            epochs=profile.baseline.epochs,
            lr=profile.baseline.lr,
            momentum=profile.baseline.momentum,
            weight_decay=profile.baseline.weight_decay,
            dtype=dtype,
        )
        t0 = time.perf_counter()
        history = Trainer(model, cfg).fit(dataset, eval_every=1)
        seconds = time.perf_counter() - t0
        runs[dtype] = {
            "train_s": round(seconds, 3),
            "per_epoch_s": round(seconds / max(cfg.epochs, 1), 3),
            "accuracy": round(history.final_test_accuracy, 4),
        }
    return {
        **runs,
        "speedup": round(runs["float64"]["train_s"] / runs["float32"]["train_s"], 2),
        "accuracy_delta": round(
            runs["float32"]["accuracy"] - runs["float64"]["accuracy"], 4
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="fast", choices=("paper", "fast"))
    parser.add_argument(
        "--strict", action="store_true",
        help="assert the perf targets (≥3x regularizer, ≥1.5x cold table3)",
    )
    args = parser.parse_args()
    profile = get_profile(args.profile)
    _set_gates("1")
    os.environ.pop("REPRO_DTYPE", None)

    print("fused-path check (standard 16-core partitions)...")
    check_fused_path_clean(profile)

    print("regularizer step (auto dispatch vs forced loop)...")
    reg = bench_regularizer_step(profile)
    for key, row in reg.items():
        print(
            f"  {key:>12}: auto {row['auto_ms']:7.3f} ms  "
            f"loop {row['loop_ms']:7.3f} ms  ({row['speedup']}x)"
        )

    print("cold table3 (optimized vs baseline)...")
    table3 = bench_cold_table3(profile)

    print("float32 vs float64 MLP baseline...")
    f32 = bench_float32(profile)
    print(
        f"  float64 {f32['float64']['train_s']} s @ acc "
        f"{f32['float64']['accuracy']}; float32 {f32['float32']['train_s']} s "
        f"@ acc {f32['float32']['accuracy']} ({f32['speedup']}x, "
        f"delta {f32['accuracy_delta']:+.4f})"
    )

    # The >=3x target applies at the paper's standard 16-core configuration,
    # where auto dispatch selects the fused kernels.
    reg_p16 = min(row["speedup"] for key, row in reg.items() if key.endswith("p16"))
    payload = {
        "profile": args.profile,
        "cpu_count": os.cpu_count(),
        "host": host_fingerprint(),
        "fused_path_clean": True,
        "regularizer_step": reg,
        "regularizer_speedup_p16": reg_p16,
        "table3_cold": table3,
        "float32": f32,
    }
    out = _ROOT / "BENCH_train.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"regularizer (p16) ≥{reg_p16}x, cold table3 {table3['speedup']}x, "
        f"float32 {f32['speedup']}x; wrote {out}"
    )
    if args.strict:
        assert reg_p16 >= 3.0, f"regularizer speedup {reg_p16}x < 3x target"
        assert table3["speedup"] >= 1.5, (
            f"cold table3 speedup {table3['speedup']}x < 1.5x target"
        )


if __name__ == "__main__":
    main()
