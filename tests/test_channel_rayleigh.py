"""Tests for the paper's channel law: Rayleigh fading (Eq. 5, Thm 3.1).

Theorem 3.1's closed form lives in one place,
:meth:`FadingRLS.success_probabilities` (``RayleighLaw.success_probability``
returns it), and the Eq. 5 draw in ``RayleighLaw.sample_chunk``.  The
key validation: the closed-form success probability must match the
Monte-Carlo frequency of ``SINR >= gamma_th`` under exponential fading.
"""

import numpy as np
import pytest

from repro.channel.sampling import sample_fading_trials
from repro.core.problem import FadingRLS
from repro.network.links import LinkSet


def rayleigh_draws(distance=10.0, alpha=3.0, n_trials=100_000, seed=3):
    """One link's received-power draws under the Rayleigh law, and its mean."""
    z = sample_fading_trials(
        np.array([[distance]]), np.array([0]), alpha, n_trials, seed=seed, law="rayleigh"
    )
    return z[:, 0, 0], distance**-alpha


class TestReceivedPowerCdf:
    """Eq. 5 on the law's draws: ``F(x) = 1 - exp(-x / (P d^-alpha))``."""

    def test_zero_at_origin(self):
        z, _ = rayleigh_draws()
        assert (z > 0).all()

    def test_median(self):
        # Exponential median = mean * ln 2.
        z, mean = rayleigh_draws()
        assert np.mean(z <= mean * np.log(2)) == pytest.approx(0.5, abs=0.005)

    def test_limits_to_one(self):
        # 1 - F(40 * mean) = e^-40: no draw of a light exponential tail gets there.
        z, mean = rayleigh_draws()
        assert (z < 40.0 * mean).all()

    def test_monotone(self):
        z, mean = rayleigh_draws()
        x = np.linspace(0, 5 * mean, 50)
        empirical = (z[None, :] <= x[:, None]).mean(axis=1)
        assert (np.diff(empirical) >= 0).all()
        np.testing.assert_allclose(empirical, 1 - np.exp(-x / mean), atol=0.01)


def two_links(own=10.0, cross=50.0):
    """Two links with ``d(s_i, r_i) = own`` and ``d(s_i, r_j) = cross``."""
    return LinkSet(
        senders=[[0.0, 0.0], [own, cross]], receivers=[[own, 0.0], [0.0, cross]]
    )


def three_links():
    """:func:`two_links` plus a third link whose sender also reaches receiver 0."""
    return LinkSet(
        senders=[[0.0, 0.0], [10.0, 50.0], [60.0, 0.0]],
        receivers=[[10.0, 0.0], [0.0, 50.0], [70.0, 0.0]],
    )


def victim_success(interferer_means, gamma_th, alpha=3.0):
    """Thm 3.1 for a unit-length link 0 whose receiver sees interferer
    ``k``'s sender at mean power ``m_k`` (distance ``m_k^(-1/alpha)``)."""
    senders, receivers = [[0.0, 0.0]], [[1.0, 0.0]]
    for k, m in enumerate(interferer_means):
        sender = [1.0, (-1.0) ** k * m ** (-1.0 / alpha)]
        senders.append(sender)
        receivers.append([sender[0] + 1.0, sender[1]])
    p = FadingRLS(
        links=LinkSet(senders=senders, receivers=receivers), alpha=alpha, gamma_th=gamma_th
    )
    return p.success_probabilities(np.arange(len(senders)))[0]


class TestSuccessProbability:
    def test_closed_form_two_links(self):
        p = FadingRLS(links=two_links(), alpha=3.0, gamma_th=1.0)
        expected = 1.0 / (1.0 + (10.0 / 50.0) ** 3)
        np.testing.assert_allclose(p.success_probabilities([0, 1]), expected)

    def test_single_link_certain(self):
        p = FadingRLS(links=two_links(), alpha=3.0, gamma_th=1.0)
        np.testing.assert_array_equal(p.success_probabilities([0]), [1.0, 0.0])

    def test_log_mode(self):
        """In the log domain Thm 3.1 is minus the Corollary 3.1 factor sum
        plus the noise factor: exact for very small probabilities too."""
        noise = 1e-4
        p = FadingRLS(links=two_links(), alpha=3.0, gamma_th=1.0, noise=noise)
        log_p = np.log(p.success_probabilities([0, 1]))
        expected = -np.log1p((10.0 / 50.0) ** 3) - noise * 10.0**3
        np.testing.assert_allclose(log_p, expected)

    def test_more_interferers_lower_probability(self):
        p = FadingRLS(links=three_links(), alpha=3.0, gamma_th=1.0)
        p2 = p.success_probabilities([0, 1])
        p3 = p.success_probabilities([0, 1, 2])
        assert p3[0] < p2[0]

    def test_higher_threshold_lower_probability(self):
        p1 = FadingRLS(links=two_links(), alpha=3.0, gamma_th=0.5)
        p2 = FadingRLS(links=two_links(), alpha=3.0, gamma_th=2.0)
        assert (p2.success_probabilities([0, 1]) < p1.success_probabilities([0, 1])).all()

    def test_theorem31_matches_monte_carlo(self):
        """The headline check: Thm 3.1 closed form vs empirical fading."""
        rng = np.random.default_rng(7)
        n = 4
        # Random geometry with moderate interference.
        senders = rng.uniform(0, 60, size=(n, 2))
        receivers = senders + rng.uniform(-10, 10, size=(n, 2))
        p = FadingRLS(
            links=LinkSet(senders=senders, receivers=receivers), alpha=3.0, gamma_th=1.0
        )
        active = np.arange(n)
        p_formula = p.success_probabilities(active)

        trials = 200_000
        means = p.distances() ** -3.0
        z = rng.exponential(1.0, size=(trials, n, n)) * means
        signal = np.diagonal(z, axis1=1, axis2=2)
        interference = z.sum(axis=1) - signal
        empirical = np.mean(signal / interference >= 1.0, axis=0)
        np.testing.assert_allclose(empirical, p_formula, atol=0.005)


class TestLaplaceTransformIdentity:
    """Theorem 3.1's derivation check: the product closed form of
    :meth:`FadingRLS.success_probabilities` equals the direct numerical
    evaluation of Eq. 12's integral
    ``int_0^inf e^{-gamma z / mu_j} f_I(z) dz`` where the interference
    density is estimated from samples (smoothed Monte-Carlo integral).
    """

    def test_product_equals_integral(self):
        rng = np.random.default_rng(11)
        # Victim: own mean mu = 1; two interferers with means m1, m2.
        mu, m1, m2, gamma = 1.0, 0.3, 0.7, 1.3
        closed = victim_success([m1, m2], gamma)
        # Direct expectation E[e^{-gamma I / mu}] over sampled interference.
        samples = rng.exponential(m1, 400_000) + rng.exponential(m2, 400_000)
        empirical = np.mean(np.exp(-gamma * samples / mu))
        assert empirical == pytest.approx(closed, rel=0.01)

    def test_exponential_laplace_transform(self):
        """L_Exp(1/mu)(nu) = 1 / (1 + mu nu), the Eq. 13 building block:
        one interferer of mean ``mu`` at threshold ``nu``."""
        rng = np.random.default_rng(12)
        mu, nu = 0.4, 2.5
        samples = rng.exponential(mu, 400_000)
        empirical = np.mean(np.exp(-nu * samples))
        assert victim_success([mu], nu) == pytest.approx(1.0 / (1.0 + mu * nu))
        assert empirical == pytest.approx(victim_success([mu], nu), rel=0.01)
