"""Cross-extension integration tests.

The extensions must compose: power control under queue dynamics, noise
with multi-slot frames, the distributed protocol feeding the simulator,
local search on top of everything.
"""

import numpy as np
import pytest

from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology


class TestPowerControlPlusQueues:
    def test_powered_problem_through_queue_sim(self):
        """Queue simulation on a per-link-power instance: Monte-Carlo
        respects the powers, greedy handles non-uniform power."""
        from repro.core.baselines.naive import greedy_fading_schedule
        from repro.core.powercontrol import distance_proportional_powers
        from repro.workload.generators import PoissonArrivals
        from repro.workload.queues import simulate_workload

        links = paper_topology(50, seed=0)
        base = FadingRLS(links=links, noise=1e-7)
        powered = base.with_powers(
            distance_proportional_powers(links, base.alpha, target_received=1e-3)
        )
        r = simulate_workload(
            powered, PoissonArrivals(0.05), greedy_fading_schedule, n_slots=120, seed=1
        )
        assert r.served / (r.served + r.failed) >= 0.95
        assert r.served > 0


class TestNoisePlusFrames:
    def test_demand_frame_under_noise(self):
        """Frames built on a noisy instance: serviceable links get their
        demands; unserviceable demands must be zeroed first."""
        from repro.core.frames import build_demand_frame
        from repro.core.rle import rle_schedule

        noise = 0.01005 / 15.0**3
        p = FadingRLS(links=paper_topology(60, seed=1), noise=noise)
        serviceable = p.serviceable()
        demands = np.where(serviceable, 2, 0)
        frame = build_demand_frame(p, demands, rle_schedule)
        assert frame.verify(p)

    def test_frame_with_unserviceable_demand_cannot_finish(self):
        from repro.core.frames import build_demand_frame
        from repro.core.rle import rle_schedule

        noise = 0.01005 / 12.0**3
        p = FadingRLS(links=paper_topology(60, seed=2), noise=noise)
        demands = np.full(60, 1, dtype=int)  # includes unserviceable links
        assert not p.serviceable().all()
        with pytest.raises(RuntimeError):
            build_demand_frame(p, demands, rle_schedule)


class TestProtocolPlusSimulation:
    def test_protocol_schedule_replays_cleanly(self):
        """The message-passing protocol's output honours the eps
        contract under the Monte-Carlo channel."""
        from repro.distributed import run_dls_protocol
        from repro.sim.montecarlo import simulate_schedule

        p = FadingRLS(links=paper_topology(150, seed=3))
        result = run_dls_protocol(p, seed=4)
        sim = simulate_schedule(p, result.schedule, n_trials=3000, seed=5)
        assert sim.mean_failed <= p.eps * max(result.schedule.size, 1) + 0.2


class TestLocalSearchEverywhere:
    def test_improves_protocol_output(self):
        from repro.core.localsearch import improve_schedule
        from repro.distributed import run_dls_protocol

        p = FadingRLS(links=paper_topology(150, seed=6))
        proto = run_dls_protocol(p, seed=7).schedule
        polished = improve_schedule(p, proto, seed=8)
        assert p.scheduled_rate(polished.active) >= p.scheduled_rate(proto.active)
        assert p.is_feasible(polished.active)

    def test_improves_under_noise(self):
        from repro.core.ldp import ldp_schedule
        from repro.core.localsearch import improve_schedule

        p = FadingRLS(links=paper_topology(120, seed=9), noise=1e-7)
        start = ldp_schedule(p)
        out = improve_schedule(p, start, seed=10)
        assert p.is_feasible(out.active)
        assert p.scheduled_rate(out.active) >= p.scheduled_rate(start.active)


class TestCertifyEverything:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda p: __import__("repro.core.rle", fromlist=["x"]).rle_schedule(p),
            lambda p: __import__("repro.core.ldp", fromlist=["x"]).ldp_schedule(p),
            lambda p: __import__("repro.core.localsearch", fromlist=["x"]).local_search_schedule(p, seed=0),
        ],
        ids=["rle", "ldp", "local_search"],
    )
    def test_certificates_for_all_schedulers(self, maker):
        from repro.core.certify import certify

        p = FadingRLS(links=paper_topology(100, seed=11), noise=1e-8)
        s = maker(p)
        cert = certify(p, s)
        assert cert.feasible
        # Certificate slack is consistent with the noise-aware budgets.
        for rb in cert.receivers:
            assert rb.budget <= p.gamma_eps + 1e-12
