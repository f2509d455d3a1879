"""Tests for repro.network.topology."""

import numpy as np
import pytest

from repro.geometry.region import Region
from repro.network.topology import (
    TOPOLOGIES,
    chain_topology,
    clustered_topology,
    exponential_length_topology,
    grid_topology,
    make_topology,
    paper_topology,
    random_rates_topology,
)


class TestPaperTopology:
    def test_count(self):
        assert len(paper_topology(50, seed=0)) == 50

    def test_senders_in_region(self):
        ls = paper_topology(200, seed=1)
        assert Region.square(500.0).contains(ls.senders).all()

    def test_lengths_in_range(self):
        ls = paper_topology(200, seed=2)
        assert (ls.lengths >= 5.0 - 1e-9).all()
        assert (ls.lengths <= 20.0 + 1e-9).all()

    def test_unit_rates(self):
        ls = paper_topology(10, seed=0)
        np.testing.assert_array_equal(ls.rates, 1.0)

    def test_reproducible(self):
        a = paper_topology(20, seed=9)
        b = paper_topology(20, seed=9)
        np.testing.assert_array_equal(a.senders, b.senders)
        np.testing.assert_array_equal(a.receivers, b.receivers)

    def test_custom_params(self):
        ls = paper_topology(30, region_side=100.0, min_length=1.0, max_length=2.0, rate=5.0, seed=0)
        assert Region.square(100.0).contains(ls.senders).all()
        assert (ls.lengths <= 2.0 + 1e-9).all()
        np.testing.assert_array_equal(ls.rates, 5.0)

    def test_zero_links(self):
        assert len(paper_topology(0, seed=0)) == 0

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            paper_topology(5, min_length=10.0, max_length=5.0)
        with pytest.raises(ValueError):
            paper_topology(-1)

    def test_directions_vary(self):
        ls = paper_topology(100, seed=3)
        offsets = ls.receivers - ls.senders
        angles = np.arctan2(offsets[:, 1], offsets[:, 0])
        # Random directions should cover all four quadrants.
        assert (angles > np.pi / 2).any() and (angles < -np.pi / 2).any()


class TestClusteredTopology:
    def test_count_and_region(self):
        ls = clustered_topology(100, seed=0)
        assert len(ls) == 100
        assert Region.square(500.0).contains(ls.senders).all()

    def test_clustering_tighter_than_uniform(self):
        clustered = clustered_topology(300, n_clusters=3, cluster_std=10.0, seed=1)
        uniform = paper_topology(300, seed=1)
        # Mean nearest-neighbour distance shrinks under clustering.
        def mean_nnd(ls):
            from repro.geometry.distance import pairwise_distances

            d = pairwise_distances(ls.senders)
            np.fill_diagonal(d, np.inf)
            return d.min(axis=1).mean()

        assert mean_nnd(clustered) < mean_nnd(uniform)

    def test_invalid_clusters(self):
        with pytest.raises(ValueError):
            clustered_topology(10, n_clusters=0)


class TestGridTopology:
    def test_count(self):
        assert len(grid_topology(4)) == 16

    def test_deterministic_without_jitter(self):
        a = grid_topology(3, seed=0)
        b = grid_topology(3, seed=99)
        np.testing.assert_array_equal(a.senders, b.senders)

    def test_spacing(self):
        ls = grid_topology(2, spacing=50.0)
        from repro.geometry.distance import pairwise_distances

        d = pairwise_distances(ls.senders)
        np.fill_diagonal(d, np.inf)
        assert d.min() == pytest.approx(50.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            grid_topology(0)


class TestChainTopology:
    def test_collinear(self):
        ls = chain_topology(5)
        assert (ls.senders[:, 1] == 0).all()
        assert (ls.receivers[:, 1] == 0).all()

    def test_lengths(self):
        ls = chain_topology(4, link_length=7.0)
        np.testing.assert_allclose(ls.lengths, 7.0)

    def test_hop(self):
        ls = chain_topology(3, hop=25.0)
        np.testing.assert_allclose(np.diff(ls.senders[:, 0]), 25.0)

    def test_empty(self):
        assert len(chain_topology(0)) == 0


class TestExponentialLengthTopology:
    def test_lengths_are_powers(self):
        ls = exponential_length_topology(200, base_length=2.0, growth=2.0, seed=0)
        logs = np.log2(ls.lengths / 2.0)
        np.testing.assert_allclose(logs, np.round(logs), atol=1e-9)

    def test_diversity_grows(self):
        from repro.network.diversity import length_diversity

        narrow = paper_topology(200, seed=0)
        wide = exponential_length_topology(200, n_magnitudes=8, seed=0)
        assert length_diversity(wide) > length_diversity(narrow)

    def test_invalid_growth(self):
        with pytest.raises(ValueError):
            exponential_length_topology(10, growth=1.0)


class TestPppTopology:
    def test_count_is_poisson_around_mean(self):
        from repro.network.topology import ppp_topology

        counts = [len(ppp_topology(1e-3, seed=s)) for s in range(30)]
        # intensity * area = 250; Poisson sd ~ 16.
        assert 180 < np.mean(counts) < 320

    def test_reproducible(self):
        from repro.network.topology import ppp_topology

        a = ppp_topology(5e-4, seed=1)
        b = ppp_topology(5e-4, seed=1)
        assert len(a) == len(b)
        np.testing.assert_array_equal(a.senders, b.senders)

    def test_senders_in_region(self):
        from repro.network.topology import ppp_topology

        ls = ppp_topology(1e-3, region_side=200.0, seed=2)
        assert Region.square(200.0).contains(ls.senders).all()

    def test_invalid_intensity(self):
        from repro.network.topology import ppp_topology

        with pytest.raises(ValueError):
            ppp_topology(0.0)


class TestRandomRates:
    def test_rates_in_range(self):
        ls = random_rates_topology(100, rate_low=2.0, rate_high=9.0, seed=0)
        assert (ls.rates >= 2.0).all() and (ls.rates <= 9.0).all()
        assert not ls.has_uniform_rates

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            random_rates_topology(10, rate_low=5.0, rate_high=1.0)


class TestMakeTopology:
    """The one name -> generator switch behind ``--topology`` and scenarios."""

    BUILDERS = {
        "paper": lambda: paper_topology(16, seed=3),
        "clustered": lambda: clustered_topology(16, seed=3),
        "grid": lambda: grid_topology(4, seed=3),
        "chain": lambda: chain_topology(16),
        "exponential": lambda: exponential_length_topology(16, seed=3),
    }

    def test_names_are_the_builders(self):
        assert TOPOLOGIES == tuple(self.BUILDERS)

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_each_name_builds_its_generator(self, name):
        links, expected = make_topology(name, 16, 3), self.BUILDERS[name]()
        np.testing.assert_array_equal(links.senders, expected.senders)
        np.testing.assert_array_equal(links.receivers, expected.receivers)

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown topology 'mesh'"):
            make_topology("mesh", 10, 0)
