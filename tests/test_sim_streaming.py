"""Memory-bounded Monte-Carlo replay tests.

Asserts the guarantees of the streaming simulator: chunked replays are
bit-identical to the one-shot dense path for every chunk size, and peak
allocation during a replay stays far below the dense tensor — the full
``(T, K, K)`` array is never materialised.  Chunk sizes are pinned
through ``iter_fading_trials(chunk_trials=...)``, rebound where the
replay looks it up.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.channel.sampling import (
    instantaneous_sinr,
    iter_fading_trials,
    sample_fading_trials,
)
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.network.topology import paper_topology
from repro.obs import metrics as obs_metrics
from repro.sim import montecarlo
from repro.sim.montecarlo import simulate_schedule, simulate_trials


@pytest.fixture()
def chunked(monkeypatch):
    """``chunked(n)``: later replays stream ``n`` trials per chunk."""

    def pin(chunk_trials):
        monkeypatch.setattr(
            montecarlo,
            "iter_fading_trials",
            functools.partial(iter_fading_trials, chunk_trials=chunk_trials),
        )

    return pin


class TestChunkedEqualsUnchunked:
    def test_success_matrix_identical_across_chunk_sizes(self, paper_problem, chunked):
        s = rle_schedule(paper_problem)
        specs = (None, "nakagami:m=2", "shadowing:sigma_db=6,static=true")
        reference = {
            spec: simulate_trials(paper_problem, s, 300, seed=17, channel=spec) for spec in specs
        }
        for chunk_trials in (1, 7, 64, 300):
            chunked(chunk_trials)
            for spec in specs:
                np.testing.assert_array_equal(
                    simulate_trials(paper_problem, s, 300, seed=17, channel=spec),
                    reference[spec],
                )

    def test_matches_legacy_dense_path(self, paper_problem):
        """The streamed replay equals one dense (T, K, K) draw + reduce —
        the seed repository's original computation."""
        idx = np.arange(paper_problem.n_links)
        z = sample_fading_trials(
            paper_problem.distances(),
            idx,
            paper_problem.alpha,
            150,
            power=paper_problem.tx_powers(),
            seed=55,
        )
        legacy = instantaneous_sinr(z, noise=paper_problem.noise) >= paper_problem.gamma_th
        streamed = simulate_trials(paper_problem, idx, 150, seed=55)
        np.testing.assert_array_equal(streamed, legacy)

    def test_summary_identical_across_chunk_sizes(self, paper_problem, chunked):
        s = rle_schedule(paper_problem)
        a = simulate_schedule(paper_problem, s, n_trials=200, seed=9)
        chunked(9)
        b = simulate_schedule(paper_problem, s, n_trials=200, seed=9)
        assert a.mean_failed == b.mean_failed
        assert a.mean_throughput == b.mean_throughput
        np.testing.assert_array_equal(a.per_link_success, b.per_link_success)

    def test_noise_passed_through_chunks(self, chunked):
        links = paper_topology(30, seed=2)
        p = FadingRLS(links=links)
        idx = np.arange(30)
        a = simulate_trials(p, idx, 100, noise=1e-6, seed=4)
        chunked(11)
        b = simulate_trials(p, idx, 100, noise=1e-6, seed=4)
        np.testing.assert_array_equal(a, b)


class TestReplayObservability:
    @pytest.mark.parametrize(
        "spec, label",
        [
            (None, "rayleigh"),
            ("nakagami:m=2", "nakagami:m=2"),
            ("shadowing:sigma_db=6", "shadowing:sigma_db=6,static=false"),
        ],
    )
    def test_one_span_per_replay_and_one_chunk_counter(self, chunked, spec, label):
        p = FadingRLS(links=paper_topology(20, seed=4))
        chunked(8)
        obs.enable()
        obs.reset()
        try:
            simulate_trials(p, np.arange(20), 30, seed=1, channel=spec)
            spans = obs.drain_spans()
            counters = obs_metrics.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert [(s.name, s.attrs["law"]) for s in spans] == [("mc.replay", label)]
        assert counters["mc.chunks_sampled"] == 4  # 8 + 8 + 8 + 6 trials
        assert "channel.chunks_sampled" not in counters


class TestMemoryBudget:
    def test_peak_allocation_under_budget(self):
        """K=200, T=5000: the dense tensor would be 1.6 GB; the capped
        chunks keep the streamed replay under 16 MiB."""
        k, t = 200, 5000
        bound = 16 * 2**20
        p = FadingRLS(links=paper_topology(k, seed=1))
        schedule = np.arange(k)
        # Warm the problem's caches (distances, F) outside the window —
        # they are instance state, not replay working memory.
        p.distances(), p.tx_powers()
        tracemalloc.start()
        try:
            result = simulate_schedule(p, schedule, n_trials=t, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.n_trials == t
        dense_bytes = 8 * t * k * k
        assert peak <= bound, f"peak {peak} exceeds {bound}"
        assert peak < dense_bytes / 10  # nowhere near the dense tensor

    def test_acceptance_scale_never_materialises_dense(self):
        """K=300, T=2000: dense would be 1.44 GB; peak must stay under
        16 MiB."""
        k, t = 300, 2000
        bound = 16 * 2**20
        p = FadingRLS(links=paper_topology(k, seed=6))
        p.distances(), p.tx_powers()
        tracemalloc.start()
        try:
            result = simulate_schedule(p, np.arange(k), n_trials=t, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.n_trials == t
        assert peak <= bound, f"peak {peak} exceeds {bound}"
