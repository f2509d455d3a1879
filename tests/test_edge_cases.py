"""Edge-case and numerical-stability tests across the stack."""

import numpy as np
import pytest

from repro.core.problem import FadingRLS, gamma_epsilon, interference_factors
from repro.core.rle import rle_schedule
from repro.network.links import LinkSet
from repro.network.topology import paper_topology


class TestExtremeParameters:
    def test_alpha_just_above_two(self):
        """zeta(alpha - 1) blows up as alpha -> 2+; constants stay finite."""
        from repro.core.bounds import ldp_beta, rle_c1

        g = gamma_epsilon(0.01)
        beta = ldp_beta(2.0001, 1.0, g)
        c1 = rle_c1(2.0001, 1.0, g, 0.5)
        assert np.isfinite(beta) and beta > 1
        assert np.isfinite(c1) and c1 > 1

    def test_huge_alpha_schedules_densely(self):
        p = FadingRLS(links=paper_topology(150, seed=0), alpha=10.0)
        s = rle_schedule(p)
        assert p.is_feasible(s.active)
        assert s.size > 20  # near-isolation: most links coexist

    def test_tiny_eps(self):
        """eps = 1e-9: budget ~1e-9, still schedulable one link at a time."""
        p = FadingRLS(links=paper_topology(50, seed=1), eps=1e-9)
        s = rle_schedule(p)
        assert s.size >= 1
        assert p.is_feasible(s.active)

    def test_near_one_eps(self):
        """eps -> 1: budget huge, everything fits."""
        p = FadingRLS(links=paper_topology(50, seed=2), eps=1 - 1e-9)
        assert p.is_feasible(np.arange(50))

    def test_extreme_gamma_th(self):
        for gamma_th in (1e-6, 1e6):
            p = FadingRLS(links=paper_topology(30, seed=3), gamma_th=gamma_th)
            s = rle_schedule(p)
            assert p.is_feasible(s.active)

    def test_very_long_links(self):
        links = paper_topology(20, min_length=1000.0, max_length=2000.0, seed=4)
        p = FadingRLS(links=links)
        s = rle_schedule(p)
        assert p.is_feasible(s.active)

    def test_microscopic_links(self):
        links = paper_topology(20, min_length=1e-6, max_length=2e-6, seed=5)
        p = FadingRLS(links=links)
        s = rle_schedule(p)
        assert p.is_feasible(s.active)


class TestNumericalStability:
    def test_interference_factors_no_overflow(self):
        """Gigantic distance ratios must not overflow to inf."""
        d = np.array([[1.0, 1e12], [1e12, 1.0]])
        f = interference_factors(d, alpha=6.0, gamma_th=1.0)
        assert np.all(np.isfinite(f))
        assert f[0, 1] >= 0

    def test_interference_factors_tiny_values_preserved(self):
        """log1p keeps precision for factors ~1e-15."""
        d = np.array([[1.0, 1e5], [1e5, 1.0]])
        f = interference_factors(d, alpha=3.0, gamma_th=1.0)
        expected = 1e-15  # gamma * (1/1e5)^3
        assert f[0, 1] == pytest.approx(expected, rel=1e-6)

    def test_success_probability_extreme_interference(self):
        """Interferer on top of a victim receiver: probability ~0, not NaN."""
        links = LinkSet(
            senders=[[0.0, 0.0], [10.0001, 0.0]],
            receivers=[[10.0, 0.0], [20.0, 0.0]],
        )
        p = FadingRLS(links=links)
        probs = p.success_probabilities([0, 1])
        assert np.all(np.isfinite(probs))
        assert probs[0] < 1e-6  # link 0's receiver sits on sender 1

    def test_gamma_epsilon_small_eps_precision(self):
        """log1p path: gamma_eps(1e-12) ~ 1e-12, not 0."""
        assert gamma_epsilon(1e-12) == pytest.approx(1e-12, rel=1e-3)

    def test_budget_boundary_tolerance(self):
        """A schedule exactly at the budget counts as feasible (tol)."""
        # Construct two links whose mutual factor sums exactly to budget.
        p = FadingRLS(links=paper_topology(2, seed=6))
        f = p.interference_matrix()
        inf = p.interference_on([0, 1])
        # If naturally under budget, shrink eps to sit exactly on it.
        target = max(inf[0], inf[1])
        if target > 0:
            eps_exact = 1 - np.exp(-target)
            if 0 < eps_exact < 1:
                q = p.with_params(eps=eps_exact)
                assert q.is_feasible([0, 1])


class TestDegenerateInstances:
    def test_two_identical_length_links(self):
        links = LinkSet(
            senders=[[0.0, 0.0], [1000.0, 0.0]],
            receivers=[[10.0, 0.0], [1010.0, 0.0]],
        )
        p = FadingRLS(links=links)
        from repro.core.ldp import ldp_schedule

        for fn in (rle_schedule, ldp_schedule):
            s = fn(p)
            assert p.is_feasible(s.active)
            assert s.size == 2  # far apart: both fit

    def test_single_link_everything_works(self):
        links = LinkSet(senders=[[5.0, 5.0]], receivers=[[6.0, 5.0]])
        p = FadingRLS(links=links)
        from repro.core.base import get_scheduler, list_schedulers, takes_seed

        for name in list_schedulers():
            if name.startswith("_"):
                continue  # throwaway schedulers registered by other tests
            fn = get_scheduler(name)
            s = fn(p, **({"seed": 0} if takes_seed(fn) else {}))
            assert s.size == 1, name

    def test_collinear_crowd(self):
        """Many links on a line (worst-case geometry for ring arguments)."""
        from repro.network.topology import chain_topology

        p = FadingRLS(links=chain_topology(50, hop=30.0, link_length=10.0))
        s = rle_schedule(p)
        assert p.is_feasible(s.active)

    def test_duplicate_sender_positions(self):
        """Co-located senders (distinct receivers) are legal input."""
        links = LinkSet(
            senders=[[0.0, 0.0], [0.0, 0.0]],
            receivers=[[10.0, 0.0], [0.0, 10.0]],
        )
        p = FadingRLS(links=links)
        s = rle_schedule(p)
        assert p.is_feasible(s.active)
        assert s.size >= 1
