"""Tests for repro.utils.zeta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from repro.utils.zeta import riemann_zeta, zeta_partial_sum, zeta_tail_bound

#: Every alpha - 1 the figure sweeps and goldens use (alpha 2.5 .. 4.5),
#: plus the edges of the grid below.
PAPER_ARGUMENTS = (1.0 + 1e-7, 1.5, 2.0, 2.5, 3.0, 3.5, 64.0)


class TestRiemannZeta:
    def test_known_value_basel(self):
        # zeta(2) = pi^2 / 6
        assert riemann_zeta(2.0) == pytest.approx(np.pi**2 / 6, rel=1e-12)

    def test_known_value_zeta4(self):
        assert riemann_zeta(4.0) == pytest.approx(np.pi**4 / 90, rel=1e-12)

    def test_monotone_decreasing(self):
        assert riemann_zeta(1.5) > riemann_zeta(2.0) > riemann_zeta(3.0) > 1.0

    @pytest.mark.parametrize("s", [1.0, 0.5, 0.0, -1.0])
    def test_divergent_domain_rejected(self, s):
        with pytest.raises(ValueError):
            riemann_zeta(s)

    def test_approaches_one(self):
        assert riemann_zeta(30.0) == pytest.approx(1.0, abs=1e-8)


class TestMatchesScipy:
    """``riemann_zeta`` transcribes the Cephes routine behind
    ``scipy.special.zeta(s, 1)``; ``beta`` (Eq. 37) and ``c1`` (Eq. 59)
    feed every LDP and RLE golden, so the two must agree in every bit."""

    @staticmethod
    def _mismatches(grid):
        return [
            (float(s), riemann_zeta(s), float(scipy_zeta(s, 1)))
            for s in grid
            if riemann_zeta(s) != float(scipy_zeta(s, 1))
        ]

    def test_bit_identical_on_a_dense_grid(self):
        # Steps of 1/512 over (1, 64], and a log-spaced run down to
        # 1 + 1e-12 where the Euler-Maclaurin tail dominates.  Past
        # s ~ 16 the direct sum returns without the tail; past s ~ 53,
        # at its first term 2^-s.
        grid = np.concatenate(
            [1.0 + np.arange(1, 63 * 512 + 1) / 512.0, 1.0 + np.logspace(-12, 0, 2001)]
        )
        assert grid.min() > 1.0 and grid.max() == 64.0
        assert self._mismatches(grid) == []

    @pytest.mark.parametrize("s", PAPER_ARGUMENTS)
    def test_bit_identical_where_the_paper_evaluates_it(self, s):
        neighbours = [s, np.nextafter(s, np.inf), np.nextafter(s, 1.0)]
        assert self._mismatches(neighbours) == []

    def test_bit_identical_where_zeta_rounds_to_one(self):
        # 2^-s is below half an ulp of 1, or underflows to 0: the direct
        # sum returns 1.0 at its first term.
        assert self._mismatches([100.0, 1074.0, 1e308, np.inf]) == []


class TestPartialSum:
    def test_zero_terms(self):
        assert zeta_partial_sum(2.0, 0) == 0.0

    def test_one_term(self):
        assert zeta_partial_sum(2.0, 1) == 1.0

    def test_converges_to_zeta(self):
        assert zeta_partial_sum(3.0, 10_000) == pytest.approx(riemann_zeta(3.0), rel=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            zeta_partial_sum(2.0, -1)


class TestPartialSumProperties:
    """Hypothesis: the proofs' ring sums rely on these order facts."""

    _s = st.floats(min_value=1.05, max_value=12.0, allow_nan=False)

    @given(_s, st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_terms(self, s, n1, n2):
        # Monotone up to summation-order rounding (numpy sums pairwise,
        # so two prefixes can disagree in their last ulp).
        lo, hi = sorted((n1, n2))
        hi_sum = zeta_partial_sum(s, hi)
        assert zeta_partial_sum(s, lo) <= hi_sum + 4 * np.finfo(float).eps * hi_sum

    @given(_s, st.integers(1, 500))
    @settings(max_examples=80, deadline=None)
    def test_each_term_adds_its_value(self, s, n):
        # Each step adds exactly n^-s (up to float rounding; for large s
        # the term can fall below one ulp of the running sum).
        lo, hi = zeta_partial_sum(s, n - 1), zeta_partial_sum(s, n)
        assert hi >= lo - 4 * np.finfo(float).eps * hi
        assert hi - lo == pytest.approx(n**-s, abs=4 * np.finfo(float).eps * hi)

    @given(_s, st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_zeta(self, s, n):
        assert zeta_partial_sum(s, n) <= riemann_zeta(s) * (1 + 1e-12)

    @given(_s, st.integers(1, 200))
    @settings(max_examples=80, deadline=None)
    def test_tail_bound_dominates_true_tail(self, s, start):
        # The subtraction cancels catastrophically for tiny tails, so
        # allow a few ulps of zeta(s) as absolute slack.
        true_tail = riemann_zeta(s) - zeta_partial_sum(s, start - 1)
        slack = 8 * np.finfo(float).eps * riemann_zeta(s)
        assert zeta_tail_bound(s, start) >= true_tail - slack


class TestTailBound:
    def test_bounds_actual_tail(self):
        s = 2.5
        for start in (1, 2, 5, 10):
            actual_tail = riemann_zeta(s) - zeta_partial_sum(s, start - 1)
            assert zeta_tail_bound(s, start) >= actual_tail

    def test_tail_shrinks(self):
        assert zeta_tail_bound(2.0, 10) < zeta_tail_bound(2.0, 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_tail_bound(1.0, 1)
        with pytest.raises(ValueError):
            zeta_tail_bound(2.0, 0)
