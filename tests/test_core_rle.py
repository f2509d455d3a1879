"""Tests for the RLE algorithm (Algorithm 2, Thms 4.3-4.4)."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.base import SchedulerError
from repro.core.bounds import rle_c1
from repro.core.problem import FadingRLS
from repro.core.rle import BLOCK_CELLS, rle_schedule
from repro.core.schedule import Schedule
from repro.network.links import LinkSet
from repro.network.topology import paper_topology, random_rates_topology
from repro.obs import metrics as obs_metrics


def per_pick_rle(problem: FadingRLS, c2: float = 0.5, trace: bool = False) -> Schedule:
    """RLE as it ran before the block loop: one distance column and one F
    row per pick, on N-length arrays.  The oracle the block loop must
    match bit for bit (uniform rates and powers assumed)."""
    links = problem.links
    n = len(links)
    if n == 0:
        return Schedule.empty("rle")

    budgets = problem.effective_budgets()
    serviceable = budgets > 0.0
    if not serviceable.any():
        return Schedule(
            active=np.zeros(0, dtype=np.int64),
            algorithm="rle",
            diagnostics={"unserviceable": int(n)},
        )
    b_min = float(budgets[serviceable].min())
    c1 = rle_c1(problem.alpha, problem.gamma_th, b_min, c2)
    lengths = links.lengths
    radii = c1 * lengths
    limits = c2 * budgets

    order = np.argsort(lengths, kind="stable")
    remaining = serviceable.copy()
    accumulated = np.zeros(n, dtype=float)  # f_{P, r_j} for every receiver j
    picked: list[int] = []
    removed_by_radius = 0
    removed_by_interference = 0
    elimination: dict[int, tuple[str, int]] = {}

    # Every killed link is still remaining, so ``remaining ^= kill``
    # clears exactly the killed ones.
    for i in order:
        if not remaining[i]:
            continue
        picked.append(int(i))
        remaining[i] = False

        # Line 4: drop links whose sender is within c1 * d_ii of r_i
        # (column i of the distance matrix: d(s_j, r_i) for every j).
        radius_kill = remaining & (problem.distance_block(None, i) < radii[i])
        removed_by_radius += int(np.count_nonzero(radius_kill))
        remaining ^= radius_kill
        if trace:
            for j in np.flatnonzero(radius_kill):
                elimination[int(j)] = ("radius", int(i))

        # Line 5: drop links whose receiver exceeds the c2 budget under
        # the picked set (the new pick contributes row F[i, :]).
        accumulated += problem.factor_block(i, None)
        interference_kill = remaining & (accumulated > limits)
        removed_by_interference += int(np.count_nonzero(interference_kill))
        remaining ^= interference_kill
        if trace:
            for j in np.flatnonzero(interference_kill):
                elimination[int(j)] = ("interference", int(i))

    return Schedule(
        active=np.array(sorted(picked), dtype=np.int64),
        algorithm="rle",
        diagnostics={
            "c1": c1,
            "c2": c2,
            "removed_by_radius": removed_by_radius,
            "removed_by_interference": removed_by_interference,
            "unserviceable": int(n - int(serviceable.sum())),
            "uniform_rates": bool(links.has_uniform_rates),
            **({"elimination": elimination, "pick_order": picked} if trace else {}),
        },
    )


def assert_same_run(block: Schedule, oracle: Schedule) -> None:
    """Same schedule and diagnostics, the trace's insertion order included."""
    assert np.array_equal(block.active, oracle.active)
    got, want = dict(block.diagnostics), dict(oracle.diagnostics)
    assert list(got.pop("elimination", {}).items()) == list(want.pop("elimination", {}).items())
    assert got == want


def clustered_links(n_clusters: int, size: int = 16, spacing: float = 100.0) -> LinkSet:
    """Clusters of ``size`` links with consecutive lengths, far apart.

    Every link of cluster c is shorter than every link of cluster c + 1,
    and a cluster's first pick eliminates the rest by radius.  So while
    more than 256 links remain, a block's heads (at most 16) share one
    cluster and the block makes one pick: the worst case for blocks.
    """
    k = np.arange(n_clusters * size)
    cluster, m = np.divmod(k, size)
    side = int(np.ceil(np.sqrt(n_clusters)))
    centres = np.column_stack([cluster % side, cluster // side]) * spacing
    theta = 2 * np.pi * m / size
    out = np.column_stack([np.cos(theta), np.sin(theta)])
    senders = centres + 2.0 * out
    receivers = senders + (1.0 + k * 1e-4)[:, None] * out
    return LinkSet(senders=senders, receivers=receivers)


def pythagorean_links(n: int, side: float, seed: int) -> LinkSet:
    """Integer 3-4-5 and 9-12-15 links, so lengths tie exactly at 5 and 15.

    Senders sit on even coordinates and every leg has one odd step, so
    no sender lands on a receiver (a zero distance).
    """
    rng = np.random.default_rng(seed)
    senders = 2.0 * rng.integers(0, int(side) // 2, size=(n, 2))
    legs = np.array([(3, 4), (4, 3), (-3, 4), (-4, 3), (3, -4), (4, -3), (-3, -4), (-4, -3)])
    steps = legs[rng.integers(0, len(legs), size=n)] * rng.choice([1, 3], size=(n, 1))
    return LinkSet(senders=senders, receivers=senders + steps)


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
        # (n, seed, picks, F cells of the RLE run).  At N = 60 one block
        # holds every link (4096 // 60 heads); the heads' own radius
        # test leaves 7 standing, which are the 7 picks: 7 rows of 60.
        # At N = 200 the first block's 20 heads leave 8 standing (8 rows
        # of 200) and the 20 links left form a second block with 2 rows.
        for n, seed, picks, rle_cells in ((60, 2, 7, 7 * 60), (200, 2, 10, 8 * 200 + 2 * 20)):
            problem = FadingRLS(links=paper_topology(n, seed=seed))
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
            assert k == picks
            # Then the K x K verdict block.
            assert counters["fmatrix.block_cells"] == rle_cells + k * k
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



_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def rle_cases(draw):
    """An instance, c2, and whether to cache both N x N matrices first."""
    n = draw(st.integers(0, 300))
    side = draw(st.sampled_from([100.0, 500.0, 5000.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        links = pythagorean_links(n, side, seed)
    else:
        links = paper_topology(n, region_side=side, seed=seed)
    params = dict(
        alpha=draw(st.floats(2.0, 5.0, exclude_min=True)),
        gamma_th=draw(st.floats(0.1, 4.0)),
        eps=draw(st.floats(1e-6, 0.999)),
        # 1e-4 leaves long links at region side 5000 unserviceable.
        noise=draw(st.sampled_from([0.0, 1e-6, 1e-4])),
    )
    if draw(st.booleans()):
        params["powers"] = np.full(n, draw(st.floats(0.5, 2.0)))
    # A small c2 makes interference kills among a block's heads common.
    c2 = draw(st.one_of(st.floats(1e-3, 0.05), st.floats(1e-3, 0.999)))
    cached = draw(st.booleans())
    return links, params, c2, cached


class TestBlockLoopMatchesPerPick:
    """The block loop makes the per-pick loop's picks, eliminations and
    trace, bit for bit."""

    @_SETTINGS
    @given(rle_cases())
    def test_same_schedule_and_trace(self, case):
        links, params, c2, cached = case
        block, oracle = FadingRLS(links=links, **params), FadingRLS(links=links, **params)
        if cached:
            for problem in (block, oracle):
                problem.distances()
                problem.interference_matrix()
        assert_same_run(
            rle_schedule(block, c2=c2, trace=True), per_pick_rle(oracle, c2=c2, trace=True)
        )

    def test_paper_instances(self):
        for seed in range(20):
            links = paper_topology(200, seed=seed)
            assert_same_run(
                rle_schedule(FadingRLS(links=links), trace=True),
                per_pick_rle(FadingRLS(links=links), trace=True),
            )

    @pytest.mark.parametrize("seed", [3, 7, 9])
    def test_a_spared_head_starts_the_next_block(self, seed, monkeypatch):
        """With c2 = 0.02 a head the heads' radius test dooms can outlive
        the head that doomed it (an interference kill); the block ends
        there and the next one starts with it."""
        calls = []
        factor_block = FadingRLS.factor_block

        def counted(problem, rows, cols):
            calls.append(rows)
            return factor_block(problem, rows, cols)

        monkeypatch.setattr(FadingRLS, "factor_block", counted)
        links = paper_topology(60, seed=seed)
        block = rle_schedule(FadingRLS(links=links, eps=0.2), c2=0.02, trace=True)
        # 4096 // 60 heads cover all 60 links: a second call means the
        # first block ended early.
        assert len(calls) >= 2
        assert_same_run(block, per_pick_rle(FadingRLS(links=links, eps=0.2), c2=0.02, trace=True))

    @pytest.mark.parametrize("n_clusters", [13, 32, 256])
    def test_clustered_worst_case_stays_within_its_cell_bound(self, n_clusters):
        """Most of each block's heads die at the block's first pick; F
        cells stay within K * max(N, BLOCK_CELLS)."""
        links = clustered_links(n_clusters)
        problem = FadingRLS(links=links)
        obs.enable()
        obs.reset()
        try:
            schedule = rle_schedule(problem, trace=True)
            cells = obs_metrics.snapshot()["counters"]["fmatrix.block_cells"]
        finally:
            obs.disable()
            obs.reset()
        assert schedule.size == n_clusters
        assert cells <= schedule.size * max(len(links), BLOCK_CELLS)
        assert_same_run(schedule, per_pick_rle(FadingRLS(links=links), trace=True))
