"""Tests for repro.core.problem — Eq. 17, Corollary 3.1, throughput."""

import numpy as np
import pytest

from repro.core.problem import FadingRLS, gamma_epsilon, interference_factors
from repro.network.topology import paper_topology


class TestGammaEpsilon:
    def test_formula(self):
        assert gamma_epsilon(0.01) == pytest.approx(np.log(1 / 0.99))

    def test_monotone_in_eps(self):
        assert gamma_epsilon(0.1) > gamma_epsilon(0.01)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, eps):
        with pytest.raises(ValueError):
            gamma_epsilon(eps)


class TestInterferenceFactors:
    def test_diagonal_zero(self):
        d = np.array([[10.0, 50.0], [50.0, 10.0]])
        f = interference_factors(d, alpha=3.0, gamma_th=1.0)
        np.testing.assert_array_equal(np.diag(f), 0.0)

    def test_formula_eq17(self):
        d = np.array([[10.0, 40.0], [30.0, 20.0]])
        f = interference_factors(d, alpha=3.0, gamma_th=2.0)
        # f[0, 1]: sender 0 onto receiver 1 (own length d_11 = 20, cross 40).
        assert f[0, 1] == pytest.approx(np.log(1 + 2.0 * (20.0 / 40.0) ** 3))
        # f[1, 0]: sender 1 onto receiver 0 (own length 10, cross 30).
        assert f[1, 0] == pytest.approx(np.log(1 + 2.0 * (10.0 / 30.0) ** 3))

    def test_closer_interferer_larger_factor(self):
        d = np.array([[10.0, 20.0, 0.0], [0.0, 10.0, 0.0], [0.0, 40.0, 10.0]])
        d[d == 0] = 500.0
        f = interference_factors(d, alpha=3.0, gamma_th=1.0)
        assert f[0, 1] > f[2, 1]

    def test_empty(self):
        assert interference_factors(np.zeros((0, 0)), 3.0, 1.0).shape == (0, 0)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            interference_factors(np.ones((2, 3)), 3.0, 1.0)


class TestFadingRLSConstruction:
    def test_defaults(self, tiny_links):
        p = FadingRLS(links=tiny_links)
        assert p.alpha == 3.0 and p.gamma_th == 1.0 and p.eps == 0.01

    def test_bad_params(self, tiny_links):
        with pytest.raises(ValueError):
            FadingRLS(links=tiny_links, alpha=-1.0)
        with pytest.raises(ValueError):
            FadingRLS(links=tiny_links, gamma_th=0.0)
        with pytest.raises(ValueError):
            FadingRLS(links=tiny_links, eps=0.0)

    def test_links_type_checked(self):
        with pytest.raises(TypeError):
            FadingRLS(links=[[0, 0]])

    def test_caches_are_stable(self, tiny_problem):
        assert tiny_problem.distances() is tiny_problem.distances()
        assert tiny_problem.interference_matrix() is tiny_problem.interference_matrix()


class TestActiveMask:
    def test_from_indices(self, tiny_problem):
        m = tiny_problem.active_mask([0, 2])
        np.testing.assert_array_equal(m, [True, False, True])

    def test_from_bool(self, tiny_problem):
        m = tiny_problem.active_mask(np.array([True, False, True]))
        np.testing.assert_array_equal(m, [True, False, True])

    def test_out_of_range(self, tiny_problem):
        with pytest.raises(IndexError):
            tiny_problem.active_mask([7])

    def test_wrong_bool_shape(self, tiny_problem):
        with pytest.raises(ValueError):
            tiny_problem.active_mask(np.array([True]))


class TestFeasibility:
    def test_separated_links_feasible(self, tiny_problem):
        assert tiny_problem.is_feasible([0, 1, 2])

    def test_tight_links_infeasible(self, tight_problem):
        assert not tight_problem.is_feasible([0, 1, 2])

    def test_single_link_always_feasible(self, tight_problem):
        for i in range(3):
            assert tight_problem.is_feasible([i])

    def test_empty_feasible(self, tight_problem):
        assert tight_problem.is_feasible([])

    def test_feasibility_hereditary(self):
        """Any subset of a feasible set is feasible (monotonicity)."""
        links = paper_topology(12, region_side=200, seed=0)
        p = FadingRLS(links=links)
        # Find some feasible pair set via the greedy baseline.
        from repro.core.baselines.naive import greedy_fading_schedule

        full = greedy_fading_schedule(p).active
        assert p.is_feasible(full)
        for i in range(len(full)):
            subset = np.delete(full, i)
            assert p.is_feasible(subset)

    def test_informed_matches_corollary31(self, tight_problem):
        """informed() iff summed factors <= gamma_eps, per receiver."""
        mask = tight_problem.active_mask([0, 1, 2])
        inf = tight_problem.interference_on(mask)
        informed = tight_problem.informed(mask)
        for j in range(3):
            assert informed[j] == (inf[j] <= tight_problem.gamma_eps + 1e-12)

    def test_inactive_links_not_informed(self, tiny_problem):
        informed = tiny_problem.informed([0])
        np.testing.assert_array_equal(informed, [True, False, False])

    def test_interference_on_includes_inactive_receivers(self, tight_problem):
        inf = tight_problem.interference_on([0])
        # Receiver 1 is inactive but still sees sender 0's interference.
        assert inf[1] > 0
        f = tight_problem.interference_matrix()
        assert inf[1] == pytest.approx(f[0, 1])


class TestObjective:
    def test_scheduled_rate(self, tiny_links):
        p = FadingRLS(links=tiny_links.with_rates(np.array([1.0, 2.0, 4.0])))
        assert p.scheduled_rate([0, 2]) == 5.0

    def test_success_probabilities_align(self, tight_problem):
        probs = tight_problem.success_probabilities([0, 1])
        assert probs[2] == 0.0  # inactive
        assert 0 < probs[0] < 1 and 0 < probs[1] < 1

    def test_success_probability_matches_theorem31(self, tight_problem):
        """Thm 3.1 as the explicit product over interferers:
        ``prod_{i != j} 1 / (1 + gamma (d_jj / d_ij)^alpha)``."""
        probs = tight_problem.success_probabilities([0, 1, 2])
        d, g, a = tight_problem.distances(), tight_problem.gamma_th, tight_problem.alpha
        direct = [
            np.prod([1.0 / (1.0 + g * (d[j, j] / d[i, j]) ** a) for i in range(3) if i != j])
            for j in range(3)
        ]
        np.testing.assert_allclose(probs, direct)

    def test_expected_throughput_bounded_by_scheduled(self, tight_problem):
        et = tight_problem.expected_throughput([0, 1, 2])
        assert 0 < et <= tight_problem.scheduled_rate([0, 1, 2])

    def test_feasible_schedule_high_success(self, tiny_problem):
        """A feasible schedule has success probability >= 1 - eps per link."""
        probs = tiny_problem.success_probabilities([0, 1, 2])
        assert (probs >= 1.0 - tiny_problem.eps - 1e-12).all()


class TestRestriction:
    def test_restrict(self, paper_problem):
        sub = paper_problem.restrict(np.arange(10))
        assert sub.n_links == 10
        assert sub.alpha == paper_problem.alpha

    def test_restrict_consistent_interference(self, paper_problem):
        idx = np.array([3, 7, 11])
        sub = paper_problem.restrict(idx)
        full_f = paper_problem.interference_matrix()
        np.testing.assert_allclose(
            sub.interference_matrix(), full_f[np.ix_(idx, idx)]
        )

    def test_with_params(self, tiny_problem):
        p2 = tiny_problem.with_params(alpha=4.0)
        assert p2.alpha == 4.0
        assert p2.eps == tiny_problem.eps
        assert p2.links is tiny_problem.links


class TestWithParamsCacheCarry:
    """with_params must reuse cached derived arrays when their defining
    parameters are untouched (eps-only sweeps reuse the O(N^2) F)."""

    def test_eps_only_change_carries_f(self, paper_problem):
        f = paper_problem.interference_matrix()
        p2 = paper_problem.with_params(eps=0.2)
        assert p2.interference_matrix() is f
        assert p2.distances() is paper_problem.distances()

    def test_noise_only_change_carries_f(self, paper_problem):
        f = paper_problem.interference_matrix()
        p2 = paper_problem.with_params(noise=1e-9)
        assert p2.interference_matrix() is f

    def test_alpha_change_recomputes_f(self, paper_problem):
        f = paper_problem.interference_matrix()
        p2 = paper_problem.with_params(alpha=4.0)
        f2 = p2.interference_matrix()
        assert f2 is not f
        assert not np.allclose(f2, f)

    def test_gamma_change_recomputes_f(self, paper_problem):
        f = paper_problem.interference_matrix()
        p2 = paper_problem.with_params(gamma_th=2.0)
        assert p2.interference_matrix() is not f

    def test_carried_f_matches_fresh_computation(self, paper_problem):
        paper_problem.interference_matrix()
        p2 = paper_problem.with_params(eps=0.3)
        from repro.core.problem import interference_factors

        fresh = interference_factors(
            p2.distances(), p2.alpha, p2.gamma_th, p2.powers
        )
        np.testing.assert_array_equal(p2.interference_matrix(), fresh)

    def test_uncached_source_stays_lazy(self, tiny_problem):
        # No caches built yet: with_params must not force computation.
        p2 = tiny_problem.with_params(eps=0.2)
        assert "F" not in p2._cache
        np.testing.assert_allclose(
            p2.interference_matrix(), tiny_problem.interference_matrix()
        )

    def test_power_change_recomputes_noise_factors(self, paper_problem):
        noisy = paper_problem.with_params(noise=1e-6)
        nf = noisy.noise_factors()
        p2 = noisy.with_params(power=2.0)
        assert p2.noise_factors() is not nf
        np.testing.assert_allclose(p2.noise_factors(), nf / 2.0)
