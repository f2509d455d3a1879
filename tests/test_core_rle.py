"""Tests for the RLE algorithm (Algorithm 2, Thms 4.3-4.4)."""

import time
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.core.base import SchedulerError
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.network.links import LinkSet
from repro.network.topology import paper_topology, random_rates_topology
from repro.obs import metrics as obs_metrics


class TestRleBasics:
    def test_empty(self):
        p = FadingRLS(links=LinkSet.empty())
        assert rle_schedule(p).size == 0

    def test_single_link(self):
        links = LinkSet(senders=[[0.0, 0.0]], receivers=[[10.0, 0.0]])
        s = rle_schedule(FadingRLS(links=links))
        assert s.size == 1

    def test_always_picks_shortest_link(self, paper_problem):
        s = rle_schedule(paper_problem)
        shortest = int(np.argmin(paper_problem.links.lengths))
        assert shortest in s

    def test_deterministic(self, paper_problem):
        a = rle_schedule(paper_problem)
        b = rle_schedule(paper_problem)
        np.testing.assert_array_equal(a.active, b.active)

    def test_diagnostics(self, paper_problem):
        s = rle_schedule(paper_problem)
        d = s.diagnostics
        assert d["c1"] > 1 and d["c2"] == 0.5
        assert d["removed_by_radius"] + d["removed_by_interference"] + s.size == paper_problem.n_links

    def test_invalid_c2(self, paper_problem):
        for c2 in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                rle_schedule(paper_problem, c2=c2)


class TestUniformRateGuard:
    def test_non_uniform_raises_by_default(self):
        links = random_rates_topology(20, seed=0)
        with pytest.raises(SchedulerError):
            rle_schedule(FadingRLS(links=links))

    def test_non_uniform_allowed_explicitly(self):
        links = random_rates_topology(20, seed=0)
        p = FadingRLS(links=links)
        s = rle_schedule(p, strict_uniform=False)
        assert s.size >= 1
        assert p.is_feasible(s.active)


class TestThm43Feasibility:
    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_on_paper_workloads(self, seed):
        p = FadingRLS(links=paper_topology(250, seed=seed))
        s = rle_schedule(p)
        assert p.is_feasible(s.active)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 5.0, 6.0])
    def test_feasible_across_alpha(self, alpha):
        p = FadingRLS(links=paper_topology(200, seed=1), alpha=alpha)
        assert p.is_feasible(rle_schedule(p).active)

    @pytest.mark.parametrize("c2", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_feasible_across_c2(self, c2):
        p = FadingRLS(links=paper_topology(200, seed=2))
        assert p.is_feasible(rle_schedule(p, c2=c2).active)

    def test_dense_cluster_feasible(self):
        """Clustered topologies stress the elimination rules hardest."""
        from repro.network.topology import clustered_topology

        p = FadingRLS(links=clustered_topology(200, n_clusters=2, cluster_std=15.0, seed=3))
        assert p.is_feasible(rle_schedule(p).active)


class TestEliminationInvariants:
    def test_lemma41_sender_separation(self):
        """Any two scheduled senders must be far apart: the radius rule
        guarantees later senders are >= c1 * d_ii from r_i, hence
        senders are >= (c1 - 1) * (shorter link length) apart."""
        p = FadingRLS(links=paper_topology(250, seed=4))
        s = rle_schedule(p)
        c1 = s.diagnostics["c1"]
        idx = s.active
        senders = p.links.senders[idx]
        lengths = p.links.lengths[idx]
        from repro.geometry.distance import pairwise_distances

        d = pairwise_distances(senders)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                shorter = min(lengths[a], lengths[b])
                assert d[a, b] >= (c1 - 1) * shorter - 1e-9

    def test_no_sender_inside_elimination_radius(self):
        p = FadingRLS(links=paper_topology(250, seed=5))
        s = rle_schedule(p)
        c1 = s.diagnostics["c1"]
        dist = p.distances()
        idx = s.active
        lengths = p.links.lengths
        for i in idx:
            for j in idx:
                if i == j:
                    continue
                # Scheduled sender j must be outside c1 * d_ii of r_i
                # whenever link i was picked before j (i shorter).
                if lengths[i] <= lengths[j]:
                    assert dist[j, i] >= c1 * lengths[i] - 1e-9

    def test_interference_budget_split(self):
        """Each scheduled receiver's final interference stays within
        gamma_eps (the c2/(1-c2) split of Thm 4.3)."""
        p = FadingRLS(links=paper_topology(250, seed=6))
        s = rle_schedule(p, c2=0.5)
        inf = p.interference_on(s.active)
        assert (inf[s.active] <= p.gamma_eps + 1e-12).all()


class TestTrace:
    def test_every_link_accounted(self, paper_problem):
        s = rle_schedule(paper_problem, trace=True)
        elim = s.diagnostics["elimination"]
        picked = set(s.active.tolist())
        assert set(elim) | picked == set(range(paper_problem.n_links))
        assert not (set(elim) & picked)

    def test_causes_are_picks(self, paper_problem):
        s = rle_schedule(paper_problem, trace=True)
        picked = set(s.active.tolist())
        for victim, (rule, cause) in s.diagnostics["elimination"].items():
            assert rule in ("radius", "interference")
            assert cause in picked

    def test_radius_cause_geometry(self, paper_problem):
        """A radius-eliminated link's sender really is inside the
        eliminating pick's radius."""
        s = rle_schedule(paper_problem, trace=True)
        c1 = s.diagnostics["c1"]
        dist = paper_problem.distances()
        lengths = paper_problem.links.lengths
        for victim, (rule, cause) in s.diagnostics["elimination"].items():
            if rule == "radius":
                assert dist[victim, cause] < c1 * lengths[cause]

    def test_pick_order_increasing_length(self, paper_problem):
        s = rle_schedule(paper_problem, trace=True)
        order = s.diagnostics["pick_order"]
        lengths = paper_problem.links.lengths[order]
        assert (np.diff(lengths) >= -1e-12).all()

    def test_trace_off_by_default(self, paper_problem):
        s = rle_schedule(paper_problem)
        assert "elimination" not in s.diagnostics

    def test_trace_does_not_change_schedule(self, paper_problem):
        a = rle_schedule(paper_problem)
        b = rle_schedule(paper_problem, trace=True)
        np.testing.assert_array_equal(a.active, b.active)


class TestC2Tradeoff:
    def test_c2_affects_radius(self, paper_problem):
        lo = rle_schedule(paper_problem, c2=0.1)
        hi = rle_schedule(paper_problem, c2=0.9)
        assert lo.diagnostics["c1"] < hi.diagnostics["c1"]


#: Seeds of the 12-link Thm 4.4 instances that violate the literal bound.
THM44_LITERAL_VIOLATED = (0, 1, 2, 4)


class TestThm44Ratio:
    """Approximation quality against the exact optimum.

    NOTE (reproduction finding, recorded in EXPERIMENTS.md): the literal
    Thm 4.4 constant ``3^alpha * 5 eps / (c2 (1-eps) gamma_th) + 1``
    (~3.73 at the paper's parameters) is *violated* empirically — tight
    12-link instances reach opt/RLE = 5.0.  The theorem's
    eps-dependence is suspect (as eps -> 0 it claims RLE is optimal).
    We pin the honest empirical behaviour with a constant sanity bound,
    and pin the literal claim per seed: it fails on seeds 0, 1, 2 and 4
    (strict xfails) and holds on seed 3.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_ratio_bounded_by_small_constant(self, seed):
        from repro.core.exact import branch_and_bound_schedule

        links = paper_topology(12, region_side=150, seed=seed)
        p = FadingRLS(links=links)
        opt = p.scheduled_rate(branch_and_bound_schedule(p).active)
        rle = p.scheduled_rate(rle_schedule(p).active)
        assert rle > 0
        # Constant bound holds empirically with wide margin (max seen: 5).
        assert opt / rle <= 10.0

    @pytest.mark.parametrize(
        "seed",
        [
            pytest.param(
                seed,
                marks=pytest.mark.xfail(
                    reason="Thm 4.4's literal constant does not hold on this "
                    "seed; see EXPERIMENTS.md (reproduction finding 1)",
                    strict=True,
                ),
            )
            if seed in THM44_LITERAL_VIOLATED
            else seed
            for seed in range(5)
        ],
    )
    def test_paper_literal_bound(self, seed):
        from repro.core.bounds import rle_approximation_ratio
        from repro.core.exact import branch_and_bound_schedule

        links = paper_topology(12, region_side=150, seed=seed)
        p = FadingRLS(links=links)
        opt = p.scheduled_rate(branch_and_bound_schedule(p).active)
        rle = p.scheduled_rate(rle_schedule(p).active)
        bound = rle_approximation_ratio(p.alpha, p.eps, p.gamma_th, 0.5)
        assert opt / rle <= bound + 1e-9


class TestNoDenseArrays:
    """RLE and its Corollary 3.1 verdict read rows, columns and a K x K
    block computed on demand, never an N x N matrix."""

    def test_n4096_stays_far_below_one_dense_matrix(self):
        problem = FadingRLS(links=paper_topology(4096, seed=0))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            schedule = rle_schedule(problem)
            feasible = problem.is_feasible(schedule.active)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        assert feasible and schedule.size > 0
        # One dense N x N float64 array would be 128 MiB.
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
        assert "distances" not in problem._cache and "F" not in problem._cache
        assert elapsed < 0.5, f"took {elapsed:.3f} s"

    def test_counts_block_cells_and_no_full_build(self):
        problem = FadingRLS(links=paper_topology(60, seed=2))
        obs.enable()
        obs.reset()
        try:
            schedule = rle_schedule(problem)
            problem.is_feasible(schedule.active)
            counters = obs_metrics.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        k = schedule.size
        # One F row per pick, then the K x K verdict block.
        assert counters["fmatrix.block_cells"] == k * 60 + k * k
        assert "fmatrix.builds" not in counters

    def test_same_schedule_as_the_dense_matrices(self):
        for seed in range(5):
            links = paper_topology(300, seed=seed)
            lazy, dense = FadingRLS(links=links), FadingRLS(links=links)
            dense.interference_matrix()
            a = rle_schedule(lazy, trace=True)
            b = rle_schedule(dense, trace=True)
            assert np.array_equal(a.active, b.active)
            assert a.diagnostics == b.diagnostics

