"""``repro.parallel`` — warm process-pool work sharding for the experiment stack.

Every grid in the reproduction (lambda sweeps, per-network/per-core-count
table loops, the Table S1 serving sweep, ``run_all`` over experiments) is a
map over independent train-or-load + simulate jobs.  :func:`pmap` shards such
a map across worker processes while keeping four invariants:

* **Serial identity** — ``workers=1`` (the default) runs the plain in-process
  list comprehension, so single-worker results are bit-identical to the
  pre-parallel code path by construction, and ``workers=N`` jobs are the same
  deterministic computations merely executed elsewhere.
* **No nested pools** — a ``pmap`` reached inside a worker process runs
  serially, so parallelizing an outer loop never fork-bombs the inner ones.
* **Pay startup once** — a call either runs serially or submits one task
  per item to one **persistent warm pool** (:mod:`repro.parallel.warmpool`).
  The serial fallbacks (one CPU, one item, an unpicklable callable) are
  recorded as ``parallel.dispatch{path=}`` with a reason.
* **Complete observability** — workers ship their span trees, metric deltas,
  and NoC-profile accumulators back to the parent, which merges them into the
  global collector/registry (see :mod:`repro.obs`), so ``--trace`` /
  ``--metrics`` report a parallel run exactly like a serial one.

Concurrent workers share the ``.repro_cache`` artifact directory; the
:mod:`repro.parallel.singleflight` lock-file protocol keeps any given cache
key trained by exactly one process (see ``repro.experiments.cache``).
"""

from . import warmpool
from .pool import in_worker, pmap, resolve_workers
from .singleflight import run_single_flight

__all__ = [
    "pmap",
    "resolve_workers",
    "in_worker",
    "run_single_flight",
    "warmpool",
]
