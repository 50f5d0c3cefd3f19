"""Inter-chip link accounting against a hand-computed two-chip example.

Activation bytes crossing a stage boundary must be charged exactly once,
at inter-chip (not on-chip) latency/bandwidth.
"""

from repro.mcm import InterChipLink, McmTopology, build_mcm_plan, mcm_service
from repro.models import lenet_spec
from repro.noc.packet import NoCConfig


class TestTwoChipHandComputedExample:
    def _plan_and_service(self):
        topo = McmTopology.build(2, cores_per_chip=4)
        plan = build_mcm_plan(lenet_spec(), topo)
        return topo, plan, mcm_service(plan)

    def test_boundary_bytes_charged_at_interchip_cost(self):
        """Hand math with the default link (64 B/cycle, 16 cycles/hop,
        8 cycles sync, /4 clock): ceil(bytes/64) + 8 + 16, all x4."""
        topo, plan, svc = self._plan_and_service()
        bytes_crossing = plan.stages[0].layers[-1].output_volume * 2
        assert bytes_crossing == plan.stages[0].output_bytes

        expected = (-(-bytes_crossing // 64) + 8 + 16 * 1) * 4
        assert topo.link.transfer_cycles(bytes_crossing, 1) == expected
        assert plan.inbound_transfer_cycles() == [0, expected]
        assert svc.transfer_cycles == (0, expected)

    def test_charged_exactly_once(self):
        """End-to-end latency decomposes into input load + stage compute +
        ONE boundary transfer — nothing else charges those bytes."""
        _, plan, svc = self._plan_and_service()
        transfer = plan.inbound_transfer_cycles()[1]
        assert svc.latency_cycles == (
            svc.input_load_cycles + sum(svc.stage_cycles) + transfer
        )

    def test_not_charged_at_onchip_rate(self):
        """The default inter-chip link is slower and narrower than the NoC:
        the same bytes over one hop cost strictly more than a link timed
        like the on-chip NoC would charge."""
        topo, plan, _ = self._plan_and_service()
        bytes_crossing = plan.stages[0].output_bytes
        onchip = InterChipLink.match_noc(NoCConfig()).transfer_cycles(bytes_crossing, 1)
        interchip = topo.link.transfer_cycles(bytes_crossing, 1)
        assert interchip > onchip

    def test_link_overrides_flow_through(self):
        """A custom link reprices the boundary; compute stays untouched."""
        slow = InterChipLink(bytes_per_cycle=8, hop_latency_cycles=64)
        base = build_mcm_plan(lenet_spec(), McmTopology.build(2, cores_per_chip=4))
        tuned = build_mcm_plan(
            lenet_spec(), McmTopology.build(2, cores_per_chip=4, link=slow)
        )
        svc_base, svc_tuned = mcm_service(base), mcm_service(tuned)
        assert svc_tuned.stage_cycles == svc_base.stage_cycles
        bytes_crossing = base.stages[0].output_bytes
        assert svc_tuned.transfer_cycles[1] == slow.transfer_cycles(bytes_crossing, 1)
        assert svc_tuned.transfer_cycles[1] > svc_base.transfer_cycles[1]
