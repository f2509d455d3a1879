"""Tests for Eq. 4, the log-distance mean power ``P * d^-alpha``.

:func:`repro.channel.sampling.fading_means` is the one place the mean
received-power matrix is computed: the Rayleigh draw scales ``Exp(1)``
variates by it and the deterministic model receives exactly it.
"""

import numpy as np
import pytest

from repro.channel.sampling import fading_means


def means(distances, alpha, power=1.0):
    """Mean-power matrix with every link active."""
    d = np.asarray(distances, dtype=float)
    return fading_means(d, np.arange(d.shape[0]), alpha, power=power)[1]


class TestMeanReceivedPower:
    def test_scalar(self):
        assert means([[2.0]], alpha=3.0)[0, 0] == pytest.approx(0.125)

    def test_power_scales_linearly(self):
        assert means([[2.0]], alpha=3.0, power=4.0)[0, 0] == pytest.approx(0.5)

    def test_unit_distance(self):
        assert means([[1.0]], alpha=5.0)[0, 0] == 1.0

    def test_array(self):
        out = means([[1.0, 2.0], [2.0, 1.0]], alpha=2.0)
        np.testing.assert_allclose(out, [[1.0, 0.25], [0.25, 1.0]])

    def test_monotone_decreasing_in_distance(self):
        d = np.tile(np.linspace(1, 100, 50), (50, 1))
        p = means(d, alpha=3.0)
        assert (np.diff(p[0]) < 0).all()

    def test_larger_alpha_decays_faster(self):
        assert means([[10.0]], alpha=4.0) < means([[10.0]], alpha=3.0)

    def test_zero_distance_rejected(self):
        for d in (0.0, -1.0):
            with pytest.raises(ValueError):
                means([[d]], alpha=3.0)

    def test_invalid_alpha(self):
        for alpha in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                means([[1.0]], alpha=alpha)


class TestPathlossMatrix:
    def test_matches_elementwise(self, rng):
        d = rng.uniform(1, 50, size=(4, 4))
        np.testing.assert_array_equal(means(d, alpha=3.0, power=2.0), 2.0 * d**-3.0)
        # Per-link powers scale each sender's row, bit for bit.
        p = rng.uniform(0.5, 2.0, size=4)
        idx = np.array([0, 2, 3])
        _, m = fading_means(d, idx, 3.0, power=p)
        np.testing.assert_array_equal(m, d[np.ix_(idx, idx)] ** -3.0 * p[idx, None])

    def test_nonpositive_rejected(self):
        # Distances, alpha and powers are all checked; only the active
        # block's distances matter.
        d = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            means(d, alpha=3.0)
        np.testing.assert_array_equal(fading_means(d, np.array([0]), 3.0)[1], [[1.0]])
        ok = np.ones((2, 2))
        for alpha, power in (
            (0.0, 1.0),
            (-3.0, 1.0),
            (3.0, 0.0),
            (3.0, -1.0),
            (3.0, float("inf")),
            (3.0, np.array([1.0, 0.0])),
            (3.0, np.array([1.0, -2.0])),
            (3.0, np.ones(3)),
        ):
            with pytest.raises(ValueError):
                means(ok, alpha=alpha, power=power)
