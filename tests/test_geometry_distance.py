"""Tests for repro.geometry.distance."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry.distance import (
    cross_distances,
    max_pairwise_distance,
    min_pairwise_distance,
    pairwise_distances,
    point_to_points,
)
from repro.verify.fuzz import FAMILIES, make_scenario


def einsum_distances(a, b):
    """Reference form: one (N, M, 2) difference tensor reduced by
    einsum, then a square root."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class TestEinsumOracle:
    """The broadcast kernel is bit-identical to the einsum form."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("index", range(4))
    def test_fuzz_families(self, family, index):
        links = make_scenario(family, index).problem.links
        for a, b in (
            (links.senders, links.receivers),
            (links.receivers, links.senders),
            (links.senders, links.senders),
        ):
            assert np.array_equal(cross_distances(a, b), einsum_distances(a, b))
        assert np.array_equal(
            links.sender_receiver_distances(),
            einsum_distances(links.senders, links.receivers),
        )

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (7, 3), (40, 9)])
    def test_shapes(self, rng, n, m):
        a = rng.uniform(-50, 50, size=(n, 2))
        b = rng.uniform(-50, 50, size=(m, 2))
        got = cross_distances(a, b)
        assert got.shape == (n, m)
        assert np.array_equal(got, einsum_distances(a, b))

    def test_coincident_and_integer_points(self, rng):
        a = rng.integers(-5, 5, size=(30, 2)).astype(float)
        b = np.concatenate([a[::2], rng.integers(-5, 5, size=(10, 2))])
        got = cross_distances(a, b)
        assert np.array_equal(got, einsum_distances(a, b))
        assert np.all(got[np.arange(0, 30, 2), np.arange(15)] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 12),
        m=st.integers(0, 12),
        exponent=st.integers(-150, 150),
        data=st.data(),
    )
    def test_magnitudes(self, n, m, exponent, data):
        unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
        a = data.draw(arrays(np.float64, (n, 2), elements=unit)) * 10.0**exponent
        b = data.draw(arrays(np.float64, (m, 2), elements=unit)) * 10.0**exponent
        assert np.array_equal(cross_distances(a, b), einsum_distances(a, b))

    def test_overflow_stays_silent(self):
        # Squares of differences near 1e160 overflow to inf; einsum never
        # warned about it and neither does the broadcast kernel.
        a = np.array([[1e160, -1e160], [-1e160, 1e160]])
        b = np.array([[-1e160, 1e160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cross_distances(a, b)
        assert np.array_equal(got, einsum_distances(a, b))
        assert np.isinf(got[0, 0]) and got[1, 0] == 0.0


class TestCrossDistances:
    def test_known_values(self):
        a = [[0.0, 0.0], [3.0, 4.0]]
        b = [[0.0, 0.0]]
        d = cross_distances(a, b)
        np.testing.assert_allclose(d, [[0.0], [5.0]])

    def test_shape(self):
        d = cross_distances(np.zeros((3, 2)), np.ones((4, 2)))
        assert d.shape == (3, 4)

    def test_matches_naive(self, rng):
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(5, 2))
        d = cross_distances(a, b)
        for i in range(6):
            for j in range(5):
                assert d[i, j] == pytest.approx(np.linalg.norm(a[i] - b[j]))

    def test_empty(self):
        d = cross_distances(np.zeros((0, 2)), np.zeros((3, 2)))
        assert d.shape == (0, 3)


class TestPairwiseDistances:
    def test_symmetric_zero_diag(self, rng):
        p = rng.normal(size=(7, 2))
        d = pairwise_distances(p)
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_allclose(np.diag(d), 0.0)

    def test_triangle_inequality(self, rng):
        p = rng.normal(size=(5, 2))
        d = pairwise_distances(p)
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


class TestPointToPoints:
    def test_values(self):
        out = point_to_points([0.0, 0.0], [[3.0, 4.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, [5.0, 1.0])

    def test_bad_point(self):
        with pytest.raises(ValueError):
            point_to_points([0.0], [[1.0, 1.0]])


class TestMinMaxPairwise:
    def test_min(self):
        p = [[0, 0], [1, 0], [10, 0]]
        assert min_pairwise_distance(p) == pytest.approx(1.0)

    def test_max(self):
        p = [[0, 0], [1, 0], [10, 0]]
        assert max_pairwise_distance(p) == pytest.approx(10.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            min_pairwise_distance([[0.0, 0.0]])
        with pytest.raises(ValueError):
            max_pairwise_distance([[0.0, 0.0]])

    def test_coincident_points_min_zero(self):
        assert min_pairwise_distance([[1, 1], [1, 1], [2, 2]]) == 0.0
