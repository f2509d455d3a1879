"""Tests for the ambient-noise extension of the Rayleigh model.

The paper sets N0 = 0 (Eq. 8); the library generalises with the exact
closed form ``Pr = e^-nu_j * prod(...)``.  These tests pin the noise
factor algebra, the serviceability boundary, Monte-Carlo agreement,
and that every scheduler remains feasible under noise.
"""

import numpy as np
import pytest

from repro.core.problem import FadingRLS
from repro.network.links import LinkSet
from repro.network.topology import paper_topology


def noisy_problem(n=80, noise=1e-7, seed=0, **kw):
    return FadingRLS(links=paper_topology(n, seed=seed), noise=noise, **kw)


class TestNoiseFactors:
    def test_zero_noise_zero_factors(self, paper_problem):
        np.testing.assert_array_equal(paper_problem.noise_factors(), 0.0)

    def test_formula(self):
        p = noisy_problem(noise=1e-6)
        expected = p.gamma_th * 1e-6 * p.links.lengths**p.alpha / p.power
        np.testing.assert_allclose(p.noise_factors(), expected)

    def test_power_reduces_noise_factor(self):
        lo = noisy_problem(noise=1e-6, power=1.0)
        hi = noisy_problem(noise=1e-6, power=10.0)
        assert (hi.noise_factors() < lo.noise_factors()).all()

    def test_longer_links_larger_factor(self):
        p = noisy_problem(noise=1e-6)
        order = np.argsort(p.links.lengths)
        nf = p.noise_factors()[order]
        assert (np.diff(nf) >= 0).all()

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            noisy_problem(noise=-1.0)


class TestServiceability:
    def test_all_serviceable_without_noise(self, paper_problem):
        assert paper_problem.serviceable().all()

    def test_heavy_noise_kills_long_links(self):
        # Choose noise so nu crosses gamma_eps inside the length range:
        # nu = noise * d^3; gamma_eps ~ 0.01; lengths in [5, 20].
        # noise = 0.01 / 12^3 makes links longer than 12 unserviceable.
        noise = 0.01005 / 12.0**3
        p = noisy_problem(noise=noise)
        s = p.serviceable()
        lengths = p.links.lengths
        assert not s[lengths > 13.0].any()
        assert s[lengths < 11.0].all()

    def test_unserviceable_link_infeasible_alone(self):
        noise = 0.02 / 10.0**3
        p = noisy_problem(noise=noise)
        bad = np.flatnonzero(~p.serviceable())
        assert bad.size > 0
        for i in bad[:5]:
            assert not p.is_feasible([int(i)])

    def test_serviceable_link_feasible_alone(self):
        noise = 0.005 / 20.0**3
        p = noisy_problem(noise=noise)
        good = np.flatnonzero(p.serviceable())
        for i in good[:5]:
            assert p.is_feasible([int(i)])


class TestClosedFormWithNoise:
    def test_success_probability_noise_factor(self):
        """Single active link: Pr = exp(-nu)."""
        links = LinkSet(senders=[[0.0, 0.0]], receivers=[[10.0, 0.0]])
        noise = 2e-4
        p = FadingRLS(links=links, noise=noise)
        prob = p.success_probabilities([0])[0]
        assert prob == pytest.approx(np.exp(-1.0 * noise * 10.0**3))

    def test_channel_function_matches_problem(self):
        """Thm 3.1 with noise as the explicit product
        ``exp(-gamma N0 d_jj^alpha / P) prod_{i != j} 1 / (1 + gamma (d_jj / d_ij)^alpha)``."""
        p = noisy_problem(n=30, noise=1e-5, seed=2)
        active = np.arange(30)
        via_problem = p.success_probabilities(active)[active]
        d, g, a = p.distances(), p.gamma_th, p.alpha
        explicit = [
            np.exp(-g * p.noise * d[j, j] ** a / p.power)
            * np.prod([1.0 / (1.0 + g * (d[j, j] / d[i, j]) ** a) for i in active if i != j])
            for j in active
        ]
        np.testing.assert_allclose(via_problem, explicit, rtol=1e-10)

    def test_monte_carlo_agreement_with_noise(self):
        """Closed form with noise == empirical fading + noise."""
        from repro.sim.montecarlo import simulate_trials

        p = FadingRLS(links=paper_topology(20, region_side=150, seed=3), noise=5e-5)
        active = np.arange(20)
        success = simulate_trials(p, active, 60_000, seed=4)
        empirical = success.mean(axis=0)
        analytic = p.success_probabilities(active)[active]
        np.testing.assert_allclose(empirical, analytic, atol=0.01)

    def test_noise_lowers_success(self):
        quiet = noisy_problem(noise=0.0, seed=5)
        loud = noisy_problem(noise=1e-5, seed=5)
        active = np.arange(quiet.n_links)
        assert (
            loud.success_probabilities(active)[active]
            < quiet.success_probabilities(active)[active]
        ).all()


class TestCriticalNoise:
    def test_formula(self):
        from repro.experiments.noise_study import critical_noise
        from repro.core.problem import gamma_epsilon

        n_crit = critical_noise(20.0, 3.0, 1.0, 0.01)
        # At exactly n_crit the longest link's noise factor equals gamma_eps.
        assert n_crit * 20.0**3 == pytest.approx(gamma_epsilon(0.01))

    def test_boundary_behaviour(self):
        from repro.experiments.noise_study import critical_noise

        n_crit = critical_noise(20.0, 3.0, 1.0, 0.01)
        links = paper_topology(50, seed=0)
        below = FadingRLS(links=links, noise=0.99 * n_crit)
        above = FadingRLS(links=links, noise=1.5 * n_crit)
        assert below.serviceable().all()
        assert not above.serviceable().all()


class TestSchedulersUnderNoise:
    NOISE = 0.002 / 20.0**3  # long links keep ~60% of their budget

    @pytest.mark.parametrize(
        "name", ["ldp", "rle", "greedy", "dls", "random", "longest_first"]
    )
    def test_fading_schedulers_feasible(self, name):
        from repro.core.base import get_scheduler

        p = noisy_problem(n=150, noise=self.NOISE, seed=6)
        kwargs = {"seed": 0} if name in ("dls", "random") else {}
        s = get_scheduler(name)(p, **kwargs)
        assert p.is_feasible(s.active), name
        assert s.size >= 1

    def test_schedulers_skip_unserviceable(self):
        from repro.core.base import get_scheduler

        noise = 0.01005 / 12.0**3  # links > ~12 unserviceable
        p = noisy_problem(n=150, noise=noise, seed=7)
        bad = set(np.flatnonzero(~p.serviceable()).tolist())
        for name in ("ldp", "rle", "greedy", "dls"):
            kwargs = {"seed": 0} if name == "dls" else {}
            s = get_scheduler(name)(p, **kwargs)
            assert not (set(s.active.tolist()) & bad), name

    def test_exact_solvers_respect_noise(self):
        from repro.core.exact import branch_and_bound_schedule, brute_force_schedule, milp_schedule

        p = FadingRLS(
            links=paper_topology(9, region_side=120, seed=8), noise=0.004 / 20.0**3
        )
        bf = brute_force_schedule(p)
        bb = branch_and_bound_schedule(p)
        mi = milp_schedule(p)
        assert p.is_feasible(bf.active)
        r = p.scheduled_rate(bf.active)
        assert p.scheduled_rate(bb.active) == pytest.approx(r)
        assert p.scheduled_rate(mi.active) == pytest.approx(r, abs=1e-6)

    def test_noise_shrinks_optimum(self):
        from repro.core.exact import branch_and_bound_schedule

        links = paper_topology(10, region_side=120, seed=9)
        quiet = FadingRLS(links=links)
        loud = FadingRLS(links=links, noise=0.008 / 20.0**3)
        assert loud.scheduled_rate(
            branch_and_bound_schedule(loud).active
        ) <= quiet.scheduled_rate(branch_and_bound_schedule(quiet).active)

    def test_all_unserviceable_empty_schedules(self):
        from repro.core.base import get_scheduler

        p = noisy_problem(n=20, noise=1.0, seed=10)  # drowns everything
        assert not p.serviceable().any()
        for name in ("ldp", "rle", "greedy", "dls", "approx_diversity"):
            kwargs = {"seed": 0} if name == "dls" else {}
            assert get_scheduler(name)(p, **kwargs).size == 0, name

    def test_deterministic_budgets_with_noise(self):
        from repro.core.baselines.deterministic import deterministic_budgets

        p = noisy_problem(n=30, noise=1e-4, seed=11)
        np.testing.assert_allclose(
            deterministic_budgets(p), 1.0 - p.noise_factors()
        )
