"""Degenerate-case equivalence: the MCM layer collapses onto existing models.

A 1-chip / 1-stage MCM serve run is bit-identical to the existing
single-chip ``ServeResult`` — same records, same busy accounting — so the
pipelined event-loop path is a strict generalization, not a fork.

The other degenerate case, N one-core chips joined by
``InterChipLink.match_noc``, is the single-chip layer pipeline of §II.B:
``run_pipeline_ablation`` times it that way, and
``tests/experiments/test_runners.py`` pins its rows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import lenet_spec
from repro.serve import PoissonWorkload, build_mcm_cluster, build_spec_cluster
from repro.serve.scheduler import make_scheduler
from repro.serve.simulator import ServeSimulator


class TestSingleStageServeBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        scheme=st.sampled_from(["traditional", "structure"]),
        scheduler=st.sampled_from(["fifo", "batch"]),
        rate=st.sampled_from([20.0, 80.0, 200.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_records_and_busy_identical(self, scheme, scheduler, rate, seed):
        spec = lenet_spec()
        mcm = build_mcm_cluster(spec, 1, cores_per_chip=16, stages=1, scheme=scheme)
        chip = build_spec_cluster(spec, 16, 16, scheme=scheme)
        assert mcm.unloaded_latency(spec.name) == chip.unloaded_latency(spec.name)

        def run(cluster):
            workload = PoissonWorkload(rate, 80, seed=seed, mix={spec.name: 1.0})
            sched = make_scheduler(scheduler, max_batch=4)
            return ServeSimulator(cluster, sched, workload).run()

        a, b = run(mcm), run(chip)
        assert a.records == b.records
        assert a.busy_cycles == b.busy_cycles
        assert a.makespan == b.makespan
