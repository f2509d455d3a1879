"""Deterministic unit tests for the slotted queue simulator."""

import numpy as np
import pytest

from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology
from repro.workload.generators import PoissonArrivals, SpikeArrivals
from repro.workload.queues import POLICIES, simulate_workload


@pytest.fixture()
def problem():
    return FadingRLS(
        links=paper_topology(8, seed=1), alpha=3.0, gamma_th=1.0, eps=0.05
    )


class TestSimulateWorkload:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policies_run_and_conserve(self, problem, policy):
        result = simulate_workload(
            problem, PoissonArrivals(0.1), "rle", n_slots=60, seed=7, policy=policy
        )
        assert result.policy == policy
        assert result.arrived == result.served + result.dropped + result.final_backlog
        assert result.queue_trajectory.shape == (60, 8)

    def test_unknown_policy_rejected(self, problem):
        with pytest.raises(ValueError, match="unknown policy"):
            simulate_workload(
                problem, PoissonArrivals(0.1), "rle", n_slots=5, seed=0, policy="psychic"
            )

    def test_negative_slots_rejected(self, problem):
        with pytest.raises(ValueError, match="n_slots"):
            simulate_workload(problem, PoissonArrivals(0.1), "rle", n_slots=-1, seed=0)

    def test_negative_max_queue_rejected(self, problem):
        with pytest.raises(ValueError, match="max_queue"):
            simulate_workload(
                problem, PoissonArrivals(0.1), "rle", n_slots=5, seed=0, max_queue=-1
            )

    def test_zero_slots(self, problem):
        result = simulate_workload(
            problem, PoissonArrivals(0.1), "rle", n_slots=0, seed=0
        )
        assert result.arrived == result.served == result.final_backlog == 0
        assert result.mean_backlog() == 0.0
        assert np.isnan(result.mean_delay)
        assert np.isnan(result.delay_percentile(95))
        assert result.delivery_ratio == 1.0

    def test_same_seed_bit_identical(self, problem):
        a = simulate_workload(problem, PoissonArrivals(0.1), "rle", n_slots=50, seed=3)
        b = simulate_workload(problem, PoissonArrivals(0.1), "rle", n_slots=50, seed=3)
        assert a.trajectory_bytes() == b.trajectory_bytes()
        np.testing.assert_array_equal(a.delays, b.delays)

    def test_different_seeds_differ(self, problem):
        a = simulate_workload(problem, PoissonArrivals(0.3), "rle", n_slots=50, seed=3)
        b = simulate_workload(problem, PoissonArrivals(0.3), "rle", n_slots=50, seed=4)
        assert a.trajectory_bytes() != b.trajectory_bytes()

    def test_max_queue_caps_and_counts_drops(self, problem):
        result = simulate_workload(
            problem, PoissonArrivals(2.0), "rle", n_slots=40, seed=3, max_queue=2
        )
        assert result.dropped > 0
        assert np.all(result.queue_trajectory <= 2)
        assert result.arrived == result.served + result.dropped + result.final_backlog

    def test_fading_resistance_wastes_fewer_attempts(self):
        """Queue-level claim: RLE keeps nearly every transmission attempt
        useful, while the fading-susceptible baseline burns attempts on
        failures that must be retried."""
        from repro.core.baselines.approx_diversity import approx_diversity_schedule
        from repro.core.rle import rle_schedule

        p = FadingRLS(links=paper_topology(120, seed=0))
        rle, div = (
            simulate_workload(p, PoissonArrivals(0.05), fn, n_slots=300, seed=1)
            for fn in (rle_schedule, approx_diversity_schedule)
        )
        assert rle.served / (rle.served + rle.failed) >= 0.97
        assert div.failed > rle.failed
        # The numbers EXPERIMENTS.md quotes ("Queue level"), at the
        # precision it prints them: RLE wastes no attempt but its backlog
        # keeps growing; ApproxDiversity keeps up at 13 failed attempts.
        assert (rle.served, rle.failed) == (1228, 0)
        assert round(rle.mean_backlog(), 1) == 313.5
        assert rle.final_backlog == 626 > rle.mean_backlog()
        assert round(div.mean_backlog(), 1) == 1.7
        assert div.failed == 13

    def test_scheduler_callable_accepted(self, problem):
        from repro.core.rle import rle_schedule

        result = simulate_workload(
            problem, PoissonArrivals(0.1), rle_schedule, n_slots=20, seed=1
        )
        assert result.algorithm == "rle_schedule"

    def test_warmup_validation(self, problem):
        result = simulate_workload(
            problem, PoissonArrivals(0.1), "rle", n_slots=20, seed=1
        )
        with pytest.raises(ValueError, match="warmup"):
            result.mean_backlog(warmup=21)
        assert result.mean_backlog(warmup=20) == 0.0

    def test_multislot_policy_serves_from_cover(self, problem):
        """Under the multislot policy each slot is a subset of one frame slot."""
        from repro.core.multislot import multislot_schedule
        from repro.core.base import get_scheduler

        frame = multislot_schedule(problem, get_scheduler("rle"))
        result = simulate_workload(
            problem,
            PoissonArrivals(0.4),
            "rle",
            n_slots=30,
            seed=5,
            policy="multislot",
        )
        # Attempts per slot bounded by the cycled frame slot's size.
        for t in range(30):
            assert result.scheduled_per_slot[t] <= frame.slot_cycle(t).size

    def test_incremental_matches_backlogged_service_totals(self, problem):
        """Both queue-aware policies drain a light load completely."""
        for policy in ("backlogged", "incremental"):
            result = simulate_workload(
                problem,
                SpikeArrivals(base_rate=0.0, spike_size=1.0, spike_every=10),
                "rle",
                n_slots=60,
                seed=2,
                policy=policy,
            )
            assert result.final_backlog == 0, policy
            assert result.served == result.arrived

    def test_incremental_rejects_per_link_powers(self):
        links = paper_topology(4, seed=0)
        problem = FadingRLS(links=links, powers=np.full(4, 2.0))
        with pytest.raises(ValueError, match="uniform"):
            simulate_workload(
                problem,
                PoissonArrivals(0.2),
                "rle",
                n_slots=5,
                seed=0,
                policy="incremental",
            )

    def test_trajectory_bytes_roundtrip(self, problem):
        result = simulate_workload(
            problem, PoissonArrivals(0.2), "rle", n_slots=25, seed=9
        )
        restored = np.frombuffer(result.trajectory_bytes(), dtype=np.int64).reshape(
            25, 8
        )
        np.testing.assert_array_equal(restored, result.queue_trajectory)
