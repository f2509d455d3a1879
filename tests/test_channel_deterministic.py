"""Tests for the deterministic physical (SINR) channel law.

``DeterministicLaw().success_probability`` is the model's closed form:
the 0/1 indicator of ``P d_jj^-alpha / (N0 + sum_i P d_ij^-alpha) >=
gamma_th`` over the active set, the test the ApproxLogN and
ApproxDiversity baselines schedule against.
"""

import numpy as np
import pytest

from repro.channel.laws import DeterministicLaw
from repro.channel.sampling import fading_means
from repro.core.problem import FadingRLS
from repro.network.links import LinkSet

LAW = DeterministicLaw()


def two_links(own=10.0, cross=100.0):
    """Two links with ``d(s_i, r_i) = own`` and ``d(s_i, r_j) = cross``."""
    return LinkSet(
        senders=[[0.0, 0.0], [own, cross]], receivers=[[own, 0.0], [0.0, cross]]
    )


def success(gamma_th, active=(0, 1), *, links=None, noise=0.0, power=1.0):
    p = FadingRLS(
        links=links or two_links(), alpha=3.0, gamma_th=gamma_th, noise=noise, power=power
    )
    return LAW.success_probability(p, np.asarray(active))


class TestDeterministicSinr:
    def test_two_links_value(self):
        # SINR = (cross / own)^alpha = 1000 at both receivers.
        np.testing.assert_array_equal(success(1000.0 * (1 - 1e-9)), [1.0, 1.0])
        np.testing.assert_array_equal(success(1000.0 * (1 + 1e-9)), [0.0, 0.0])

    def test_single_link_infinite(self):
        # A lone link with zero noise has SINR inf: any threshold passes.
        np.testing.assert_array_equal(success(1e300, [0]), [1.0])

    def test_single_link_with_noise(self):
        # SNR = 10^-3 / 1e-3 = 1.
        np.testing.assert_array_equal(success(1 - 1e-9, [0], noise=1e-3), [1.0])
        np.testing.assert_array_equal(success(1 + 1e-9, [0], noise=1e-3), [0.0])

    def test_boolean_mask(self):
        a = success(500.0, np.array([True, True]))
        b = success(500.0, np.array([0, 1]))
        np.testing.assert_array_equal(a, b)

    def test_empty_active(self):
        assert success(1.0, np.zeros(0, dtype=int)).size == 0

    def test_interference_accumulates(self):
        # A third sender 60 m from receiver 0 lowers its SINR from 1000
        # to 1 / (10^-3 + 60^-3 * 10^3) = 822: between them, it fails.
        three = LinkSet(
            senders=[[0.0, 0.0], [10.0, 100.0], [70.0, 0.0]],
            receivers=[[10.0, 0.0], [0.0, 100.0], [80.0, 0.0]],
        )
        assert success(900.0, [0, 1], links=three)[0] == 1.0
        assert success(900.0, [0, 1, 2], links=three)[0] == 0.0

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            success(1.0, [5])

    def test_bad_mask_shape(self):
        with pytest.raises(ValueError):
            success(1.0, np.array([True]))


class TestDeterministicSuccess:
    def test_threshold_behaviour(self):
        # Success is SINR >= gamma_th: the SINR itself passes, the next
        # float above it fails.
        p = FadingRLS(links=two_links(), alpha=3.0)
        _, means = fading_means(p.distances(), np.array([0, 1]), 3.0)
        signal = means[0, 0]
        sinr = float(signal / (means[:, 0].sum() - signal))
        np.testing.assert_array_equal(success(sinr), [1.0, 1.0])
        np.testing.assert_array_equal(success(np.nextafter(sinr, np.inf)), [0.0, 0.0])

    def test_power_cancels(self):
        for gamma_th in (1.0, 999.0, 1001.0):
            a = success(gamma_th, power=1.0)
            b = success(gamma_th, power=7.0)
            np.testing.assert_array_equal(a, b)
