"""Tests for repro.network.links."""

import warnings

import numpy as np
import pytest

from repro.network.links import Link, LinkSet


def make_linkset(n=4, spacing=100.0, length=10.0):
    senders = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    receivers = senders + np.array([length, 0.0])
    return LinkSet(senders=senders, receivers=receivers)


class TestLink:
    def test_length(self):
        l = Link(sender=(0.0, 0.0), receiver=(3.0, 4.0))
        assert l.length == pytest.approx(5.0)

    def test_default_rate(self):
        assert Link(sender=(0, 0), receiver=(1, 0)).rate == 1.0


class TestLinkSetConstruction:
    def test_basic(self):
        ls = make_linkset(3)
        assert len(ls) == 3
        np.testing.assert_allclose(ls.lengths, 10.0)

    def test_default_rates(self):
        ls = make_linkset(3)
        np.testing.assert_array_equal(ls.rates, np.ones(3))

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LinkSet(
                senders=[[0, 0]], receivers=[[1, 0]], rates=[0.0]
            )
        with pytest.raises(ValueError):
            LinkSet(senders=[[0, 0]], receivers=[[1, 0]], rates=[-1.0])

    def test_rates_length_mismatch(self):
        with pytest.raises(ValueError):
            LinkSet(senders=[[0, 0]], receivers=[[1, 0]], rates=[1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinkSet(senders=np.zeros((2, 2)), receivers=np.zeros((3, 2)))

    def test_zero_length_link_rejected(self):
        with pytest.raises(ValueError):
            LinkSet(senders=[[1.0, 1.0]], receivers=[[1.0, 1.0]])

    def test_overflowing_length_rejected_without_a_warning(self):
        # Finite coordinates whose difference overflows a double.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite length"):
                LinkSet(senders=[[1e308, 0.0]], receivers=[[-1e308, 0.0]])

    def test_immutability(self):
        ls = make_linkset(2)
        with pytest.raises(ValueError):
            ls.senders[0, 0] = 99.0

    def test_from_links_roundtrip(self):
        links = [Link((0, 0), (1, 0), 2.0), Link((5, 5), (5, 8), 3.0)]
        ls = LinkSet.from_links(links)
        assert len(ls) == 2
        assert ls.link(1).rate == 3.0
        assert ls.link(1).receiver == (5.0, 8.0)

    def test_from_links_empty(self):
        assert len(LinkSet.from_links([])) == 0

    def test_empty(self):
        ls = LinkSet.empty()
        assert len(ls) == 0
        assert ls.has_uniform_rates

    def test_iter(self):
        ls = make_linkset(3)
        assert len(list(ls)) == 3
        assert all(isinstance(l, Link) for l in ls)


class TestUniformRates:
    def test_uniform(self):
        assert make_linkset(3).has_uniform_rates

    def test_non_uniform(self):
        ls = make_linkset(2).with_rates(np.array([1.0, 2.0]))
        assert not ls.has_uniform_rates


class TestGeometry:
    def test_sender_receiver_diagonal_is_length(self):
        ls = make_linkset(4)
        d = ls.sender_receiver_distances()
        np.testing.assert_allclose(np.diag(d), ls.lengths)

    def test_sender_receiver_cross(self):
        ls = make_linkset(2, spacing=100.0, length=10.0)
        d = ls.sender_receiver_distances()
        # d(s_0, r_1) = 110, d(s_1, r_0) = 90.
        assert d[0, 1] == pytest.approx(110.0)
        assert d[1, 0] == pytest.approx(90.0)

    def test_sender_distances_symmetric(self):
        ls = make_linkset(3)
        d = ls.sender_distances()
        np.testing.assert_allclose(d, d.T)

    def test_distance_spread(self):
        ls = make_linkset(2, spacing=100.0, length=10.0)
        # Node set: s0=(0,0), s1=(100,0), r0=(10,0), r1=(110,0).
        # max = 110 (s0..r1), min = 10 (s0..r0 or s1..r1).
        assert ls.distance_spread() == pytest.approx(11.0)


class TestSubsetting:
    def test_subset_order_preserved(self):
        ls = make_linkset(5)
        sub = ls.subset([3, 1])
        np.testing.assert_allclose(sub.senders[:, 0], [300.0, 100.0])

    def test_subset_out_of_range(self):
        with pytest.raises(IndexError):
            make_linkset(3).subset([5])

    def test_mask(self):
        ls = make_linkset(4)
        sub = ls.mask(np.array([True, False, True, False]))
        assert len(sub) == 2

    def test_mask_wrong_length(self):
        with pytest.raises(ValueError):
            make_linkset(3).mask(np.array([True]))

    def test_concat(self):
        a, b = make_linkset(2), make_linkset(3)
        c = a.concat(b)
        assert len(c) == 5

    def test_with_rates(self):
        ls = make_linkset(2).with_rates(np.array([5.0, 6.0]))
        np.testing.assert_array_equal(ls.rates, [5.0, 6.0])

    def test_total_rate(self):
        ls = make_linkset(3).with_rates(np.array([1.0, 2.0, 4.0]))
        assert ls.total_rate() == 7.0
        assert ls.total_rate(np.array([0, 2])) == 5.0
