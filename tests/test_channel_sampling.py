"""Tests for repro.channel.sampling."""

import numpy as np
import pytest

from repro.channel.sampling import instantaneous_sinr, sample_fading_trials


def distances(n=3, own=10.0, cross=60.0):
    d = np.full((n, n), cross)
    np.fill_diagonal(d, own)
    return d


class TestSampleFadingTrials:
    def test_shape(self):
        z = sample_fading_trials(distances(4), np.array([0, 2]), 3.0, 5, seed=0)
        assert z.shape == (5, 2, 2)

    def test_zero_trials(self):
        z = sample_fading_trials(distances(3), np.array([0, 1]), 3.0, 0, seed=0)
        assert z.shape == (0, 2, 2)

    def test_empty_active(self):
        z = sample_fading_trials(distances(3), np.zeros(0, dtype=int), 3.0, 4, seed=0)
        assert z.shape == (4, 0, 0)

    def test_mean_matches_pathloss(self):
        d = distances(2)
        z = sample_fading_trials(d, np.array([0, 1]), 3.0, 100_000, seed=1)
        np.testing.assert_allclose(z.mean(axis=0), d[:2, :2] ** -3.0, rtol=0.05)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            sample_fading_trials(distances(2), np.array([0]), 3.0, -1)

    def test_out_of_range_active(self):
        with pytest.raises(IndexError):
            sample_fading_trials(distances(2), np.array([9]), 3.0, 1)

    # A mask of the wrong length used to select links by its own
    # length: [True, False] against 3 links drew a (1, 1, 1) sample.
    @pytest.mark.parametrize("mask", [[True, False], [True, False, True, True], [[True] * 3]])
    def test_boolean_mask_of_the_wrong_shape(self, mask):
        with pytest.raises(ValueError, match=r"boolean mask must have shape \(3,\)"):
            sample_fading_trials(np.full((3, 3), 2.0), np.array(mask), 3.0, 1)

    def test_boolean_mask_selects_its_links(self):
        by_mask = sample_fading_trials(distances(3), np.array([True, False, True]), 3.0, 4, seed=2)
        by_index = sample_fading_trials(distances(3), np.array([0, 2]), 3.0, 4, seed=2)
        np.testing.assert_array_equal(by_mask, by_index)

    def test_reproducible(self):
        a = sample_fading_trials(distances(2), np.array([0, 1]), 3.0, 3, seed=5)
        b = sample_fading_trials(distances(2), np.array([0, 1]), 3.0, 3, seed=5)
        np.testing.assert_array_equal(a, b)


class TestInstantaneousSinr:
    def test_manual_computation(self):
        z = np.array([[[4.0, 1.0], [2.0, 8.0]]])  # one trial, two links
        sinr = instantaneous_sinr(z)
        # Link 0: signal 4, interference 2 (from sender 1).
        # Link 1: signal 8, interference 1 (from sender 0).
        np.testing.assert_allclose(sinr, [[2.0, 8.0]])

    def test_noise_added(self):
        z = np.array([[[4.0, 0.0], [0.0, 8.0]]])
        sinr = instantaneous_sinr(z, noise=2.0)
        np.testing.assert_allclose(sinr, [[2.0, 4.0]])

    def test_lone_transmitter_infinite(self):
        z = np.array([[[3.0]]])
        assert np.isinf(instantaneous_sinr(z)[0, 0])

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            instantaneous_sinr(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            instantaneous_sinr(np.zeros((2, 3, 4)))
