"""Tests for repro.core.bounds — the constants actually certify the proofs."""

import numpy as np
import pytest

from repro.core.bounds import (
    interferer_count_bound,
    ldp_approximation_ratio,
    ldp_beta,
    ldp_rigorous_beta,
    ldp_ring_interference_bound,
    ldp_square_capacity,
    ldp_square_size,
    rle_approximation_ratio,
    rle_c1,
    rle_ring_interference_bound,
)
from repro.core.problem import gamma_epsilon
from repro.utils.validation import ValidationError

G_EPS = gamma_epsilon(0.01)


class TestLdpBeta:
    def test_eq37_value(self):
        from repro.utils.zeta import riemann_zeta

        beta = ldp_beta(3.0, 1.0, G_EPS)
        expected = (8 * riemann_zeta(2.0) * 1.0 / G_EPS) ** (1 / 3)
        assert beta == pytest.approx(expected)

    def test_certifies_paper_ring_sum(self):
        """Thm 4.1's accounting: sum_q 8q gamma_th/(2q beta - 1)^alpha <= gamma_eps."""
        for alpha in (2.5, 3.0, 4.0, 5.0):
            beta = ldp_beta(alpha, 1.0, G_EPS)
            total = ldp_ring_interference_bound(alpha, 1.0, beta)
            assert total <= G_EPS * (1 + 1e-9)

    def test_smaller_eps_larger_squares(self):
        assert ldp_beta(3.0, 1.0, gamma_epsilon(0.001)) > ldp_beta(3.0, 1.0, gamma_epsilon(0.1))

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            ldp_beta(2.0, 1.0, G_EPS)

    def test_infinite_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha must be finite"):
            ldp_beta(float("inf"), 1.0, G_EPS)


class TestLdpRigorousBeta:
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.5, 6.0])
    def test_certifies_worst_case_ring_sum(self, alpha):
        beta = ldp_rigorous_beta(alpha, 1.0, G_EPS)
        total = ldp_ring_interference_bound(alpha, 1.0, beta, worst_case_geometry=True)
        assert total <= G_EPS * (1 + 1e-6)

    def test_nearly_tight(self):
        """Bisection should land close to the boundary (not wastefully large)."""
        beta = ldp_rigorous_beta(3.0, 1.0, G_EPS)
        total_just_below = ldp_ring_interference_bound(
            3.0, 1.0, beta * 0.999, worst_case_geometry=True
        )
        assert total_just_below > G_EPS


class TestLdpSquareSize:
    def test_doubling_per_magnitude(self):
        beta = 10.0
        assert ldp_square_size(1, 5.0, beta) == 2 * ldp_square_size(0, 5.0, beta)

    def test_value(self):
        assert ldp_square_size(0, 5.0, 10.0) == pytest.approx(100.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ldp_square_size(-1, 5.0, 10.0)
        with pytest.raises(ValueError):
            ldp_square_size(0, 0.0, 10.0)


class TestLdpSquareCapacity:
    def test_eq49_positive_integer(self):
        u = ldp_square_capacity(3.0, 1.0, G_EPS)
        assert isinstance(u, int) and u >= 1

    @pytest.mark.parametrize("alpha, gamma_th", [(1e308, 1.0), (2.5, 1e300)])
    def test_overflow_is_a_validation_error(self, alpha, gamma_th):
        # u is far past the float range: no finite capacity to return.
        with pytest.raises(ValidationError, match=r"Eq\. 49\) overflows"):
            ldp_square_capacity(alpha, gamma_th, G_EPS)

    @pytest.mark.parametrize("gamma_th", [1e-157, 1e-300, 5e-324])
    def test_underflow_fits_one_receiver(self, gamma_th):
        # 2^alpha beta^alpha gamma_th is subnormal or 0, so ln(1 + 1/x)
        # exceeds any gamma_eps: u = 1, not a ZeroDivisionError or 0.
        assert ldp_square_capacity(2.5, gamma_th, G_EPS) == 1

    def test_capacity_pigeonhole_holds_empirically(self):
        """Pack receivers into one LDP square until the interference
        budget breaks: the break point must not exceed u."""
        alpha, gamma_th = 3.0, 1.0
        u = ldp_square_capacity(alpha, gamma_th, G_EPS)
        beta = ldp_beta(alpha, gamma_th, G_EPS)
        # Worst case of Eq. 52: links of max class length 2 delta at
        # mutual distance = square diagonal (the weakest interference).
        delta = 1.0
        side = ldp_square_size(0, delta, beta)
        diag = side * np.sqrt(2)
        # Each interferer contributes at least ln(1 + gamma (2 delta / diag)^alpha).
        f_min = np.log1p(gamma_th * (2 * delta / diag) ** alpha)
        # With u interferers the budget must be exceeded (Thm 4.2's claim).
        assert u * f_min >= G_EPS * (1 - 1e-9)


class TestApproximationRatios:
    def test_ldp_ratio(self):
        assert ldp_approximation_ratio(1) == 16.0
        assert ldp_approximation_ratio(3) == 48.0

    def test_ldp_ratio_domain(self):
        with pytest.raises(ValueError):
            ldp_approximation_ratio(0)

    def test_rle_ratio_formula(self):
        r = rle_approximation_ratio(3.0, 0.01, 1.0, 0.5)
        expected = 27 * 5 * 0.01 / (0.5 * 0.99 * 1.0) + 1
        assert r == pytest.approx(expected)

    def test_rle_ratio_above_one(self):
        assert rle_approximation_ratio(3.0, 0.01, 1.0, 0.5) > 1.0

    # 3^alpha overflows; c2 (1 - eps) gamma_th rounds to 0.
    @pytest.mark.parametrize("alpha, gamma_th", [(700.0, 1.0), (3.0, 5e-324)])
    def test_rle_ratio_past_the_float_range_is_unbounded(self, alpha, gamma_th):
        assert rle_approximation_ratio(alpha, 0.01, gamma_th, 0.5) == float("inf")


class TestRleC1:
    def test_eq59_value(self):
        from repro.utils.zeta import riemann_zeta

        c1 = rle_c1(3.0, 1.0, G_EPS, 0.5)
        inner = 12 * riemann_zeta(2.0) * 1.0 / (G_EPS * 0.5)
        assert c1 == pytest.approx(np.sqrt(2) * inner ** (1 / 3) + 1)

    def test_certifies_ring_sum(self):
        """Thm 4.3: the ring sum with Eq. 59's c1 fits (1 - c2) gamma_eps."""
        for alpha in (2.5, 3.0, 4.0):
            for c2 in (0.25, 0.5, 0.75):
                c1 = rle_c1(alpha, 1.0, G_EPS, c2)
                total = rle_ring_interference_bound(alpha, 1.0, c1)
                assert total <= (1 - c2) * G_EPS * (1 + 1e-9)

    def test_smaller_c2_smaller_radius(self):
        # Smaller c2 leaves more budget for later picks -> smaller c1.
        assert rle_c1(3.0, 1.0, G_EPS, 0.1) < rle_c1(3.0, 1.0, G_EPS, 0.9)

    def test_domain(self):
        with pytest.raises(ValueError):
            rle_c1(2.0, 1.0, G_EPS, 0.5)
        with pytest.raises(ValueError):
            rle_c1(3.0, 1.0, G_EPS, 1.0)
        # gamma_eps (1 - c2) rounds to 0, or the quotient passes the float
        # range (a huge gamma_th, or a subnormal gamma_eps (1 - c2) that
        # is not 0): no finite radius.
        for gamma_th, gamma_eps in ((1.0, 5e-324), (1e305, G_EPS), (1e308, G_EPS), (1.0, 1e-320)):
            with pytest.raises(ValidationError, match=r"c1 \(Eq\. 59\) overflows") as err:
                rle_c1(3.0, gamma_th, gamma_eps, 0.5)
            assert (err.value.code, err.value.param) == ("not-finite", "c1")


class TestInterfererCountBound:
    def test_lemma42_empirical(self):
        """No feasible schedule can pack more senders near a link than
        Lemma 4.2 allows."""
        from repro.core.problem import FadingRLS
        from repro.network.links import LinkSet

        # Build k senders at distance exactly k_radius * d from s_0 and
        # check that if they exceed the bound, the set is infeasible.
        alpha, gamma_th, eps = 3.0, 1.0, 0.01
        d_own = 10.0
        k_radius = 1.0
        bound = interferer_count_bound(alpha, eps, gamma_th, k_radius)
        n_over = int(np.ceil(bound)) + 1
        # Put n_over senders on a circle of radius k_radius * d_own
        # around receiver r_0; every one interferes with r_0 at factor
        # >= ln(1 + gamma (d_own / (2 d_own))^alpha) -- strong enough.
        angles = np.linspace(0, 2 * np.pi, n_over, endpoint=False)
        center = np.array([0.0, 0.0])
        senders = [center + np.array([d_own, 0.0])]  # s_0, r_0 at origin...
        receivers = [center]
        for a in angles:
            s = center + k_radius * d_own * np.array([np.cos(a), np.sin(a)])
            senders.append(s)
            receivers.append(s + np.array([0.0, d_own]))
        links = LinkSet(senders=np.array(senders), receivers=np.array(receivers))
        problem = FadingRLS(links=links, alpha=alpha, gamma_th=gamma_th, eps=eps)
        assert not problem.is_feasible(np.arange(len(links)))

    def test_monotone_in_k(self):
        assert interferer_count_bound(3.0, 0.01, 1.0, 2.0) > interferer_count_bound(
            3.0, 0.01, 1.0, 1.0
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            interferer_count_bound(3.0, 0.01, 1.0, -1.0)
