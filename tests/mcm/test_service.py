"""PipelineService timing math and the mcm_service assembly."""

import pytest

from repro.mcm import McmTopology, PipelineService, build_mcm_plan, mcm_service
from repro.models import lenet_spec


def _service(stage_cycles=(50, 100), transfer_cycles=(0, 10), input_load=20):
    return PipelineService(
        model="m",
        scheme="traditional",
        chips=len(stage_cycles),
        cores_per_chip=1,
        stage_cycles=tuple(stage_cycles),
        transfer_cycles=tuple(transfer_cycles),
        input_load_cycles=input_load,
    )


class TestPipelineServiceMath:
    def test_latency_is_serial_traversal(self):
        svc = _service()
        assert svc.latency_cycles == 20 + 50 + 100 + 10
        assert svc.body_cycles == 160

    def test_interval_is_slowest_stage_plus_inbound(self):
        assert _service().interval_cycles == 110
        assert _service(stage_cycles=(200, 100)).interval_cycles == 200

    def test_batch_cycles_extends_by_interval(self):
        svc = _service()
        assert svc.batch_cycles(1) == svc.latency_cycles
        assert svc.batch_cycles(4) == svc.latency_cycles + 3 * svc.interval_cycles

    def test_occupancy_frees_front_before_tail(self):
        svc = _service()
        assert svc.occupancy_cycles(1) == 20 + 50
        assert svc.occupancy_cycles(3) == 20 + 50 + 2 * svc.interval_cycles
        assert svc.occupancy_cycles(3) < svc.batch_cycles(3)

    def test_imbalance_is_max_over_mean_of_computing_stages(self):
        """Empty (zero-cycle) stages are idle chips, not fast ones."""
        assert _service(stage_cycles=(50, 100)).imbalance == 100 / 75
        svc = _service(stage_cycles=(60, 0, 20), transfer_cycles=(0, 5, 0))
        assert svc.imbalance == 60 / 40
        assert _service(stage_cycles=(70, 70), transfer_cycles=(0, 9)).imbalance == 1.0

    def test_single_stage_occupancy_equals_batch(self):
        """1-stage degenerate: the front IS the whole pipeline, so release
        coincides with completion — the plain-cluster event sequence."""
        svc = _service(stage_cycles=(100,), transfer_cycles=(0,))
        for k in (1, 2, 5):
            assert svc.occupancy_cycles(k) == svc.batch_cycles(k)

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_batch_rejected(self, k):
        with pytest.raises(ValueError):
            _service().batch_cycles(k)
        with pytest.raises(ValueError):
            _service().occupancy_cycles(k)


class TestPipelineServiceValidation:
    def test_needs_a_stage(self):
        with pytest.raises(ValueError, match="at least one stage"):
            _service(stage_cycles=(), transfer_cycles=())

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="transfers for"):
            _service(stage_cycles=(50, 100), transfer_cycles=(0,))

    def test_stage_zero_has_no_inbound_transfer(self):
        with pytest.raises(ValueError, match="stage 0"):
            _service(transfer_cycles=(5, 10))

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _service(stage_cycles=(-1, 100))
        with pytest.raises(ValueError, match="non-negative"):
            _service(input_load=-1)

    def test_zero_latency_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            _service(stage_cycles=(0, 0), transfer_cycles=(0, 0), input_load=0)


class TestMcmService:
    def test_assembles_per_stage_profile(self):
        topo = McmTopology.build(2, cores_per_chip=4)
        plan = build_mcm_plan(lenet_spec(), topo)
        svc = mcm_service(plan)
        assert svc.stage_count == 2
        assert svc.chips == 2
        assert svc.cores_per_chip == 4
        assert svc.input_load_cycles > 0
        assert all(c > 0 for c in svc.stage_cycles)
        assert svc.transfer_cycles == tuple(plan.inbound_transfer_cycles())

    def test_empty_stages_contribute_zero_compute(self):
        spec = lenet_spec()
        chips = len(spec.compute_layers()) + 2
        plan = build_mcm_plan(spec, McmTopology.build(chips, cores_per_chip=2))
        svc = mcm_service(plan)
        assert svc.stage_cycles[-2:] == (0, 0)
        assert svc.latency_cycles > 0
