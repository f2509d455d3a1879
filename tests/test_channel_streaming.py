"""Tests for the streaming (memory-bounded) fading sampler.

Pins the RNG stream-layout contract of :mod:`repro.channel.sampling`:
one exponential stream consumed in C order over ``(T, K, K)`` with the
diagonal interleaved and mean scaling applied after the draw — so
chunking along the trial axis is invisible to the statistics.
"""

import numpy as np
import pytest

from repro.channel.laws import ShadowingLaw, _lognormal_factor, get_channel_law
from repro.channel.sampling import (
    CHUNK_BYTES,
    _trials_per_chunk,
    fading_means,
    instantaneous_sinr,
    iter_fading_trials,
    sample_fading_trials,
)
from repro.network.topology import paper_topology
from repro.utils.rng import spawn_rngs


def distances(n=3, own=10.0, cross=60.0):
    d = np.full((n, n), cross)
    np.fill_diagonal(d, own)
    return d


class TestTrialChunkSize:
    def test_fixed_cap(self):
        assert CHUNK_BYTES == 4 * 2**20
        assert _trials_per_chunk(100) == (CHUNK_BYTES // 2) // (8 * 100 * 100)

    def test_at_least_one(self):
        # A single K=1000 trial matrix (8 MB) exceeds the 4 MiB cap:
        # the sampler still makes progress one trial at a time.
        assert _trials_per_chunk(1000) == 1

    def test_half_budget_for_draw(self):
        for k in (1, 50, 90, 500):
            chunk = _trials_per_chunk(k)
            assert chunk * 8 * k * k <= CHUNK_BYTES // 2 or chunk == 1
            assert (chunk + 1) * 8 * k * k > CHUNK_BYTES // 2


class TestStreamLayout:
    """The RNG stream contract chunking relies on."""

    def test_chunked_concatenation_is_exact(self):
        d = distances(5)
        idx = np.arange(5)
        full = sample_fading_trials(d, idx, 3.0, 23, seed=11)
        for chunk_trials in (1, 2, 7, 23, 100):
            chunks = list(
                iter_fading_trials(d, idx, 3.0, 23, seed=11, chunk_trials=chunk_trials)
            )
            np.testing.assert_array_equal(np.concatenate(chunks), full)

    def test_capped_chunking_is_exact(self):
        # K=200 caps a chunk at 6 trials: 20 trials stream as 6+6+6+2.
        d = paper_topology(200, seed=5).sender_receiver_distances()
        idx = np.arange(200)
        for spec in ("rayleigh", "nakagami:m=2", "shadowing:sigma_db=6"):
            full = sample_fading_trials(d, idx, 3.0, 20, seed=3, law=spec)
            chunks = list(iter_fading_trials(d, idx, 3.0, 20, seed=3, law=spec))
            assert [z.shape[0] for z in chunks] == [6, 6, 6, 2]
            np.testing.assert_array_equal(np.concatenate(chunks), full)

    def test_c_order_stream(self):
        """Variates are raw Exp(1) draws in C order, scaled afterwards:
        dividing the sample by the mean matrix recovers exactly the
        generator's flat exponential stream, diagonal interleaved."""
        d = distances(4)
        idx = np.arange(4)
        z = sample_fading_trials(d, idx, 3.0, 6, seed=99)
        _, means = fading_means(d, idx, 3.0)
        raw = np.random.default_rng(99).exponential(1.0, size=6 * 4 * 4)
        np.testing.assert_allclose(
            (z / means[None, :, :]).reshape(-1), raw, rtol=1e-12
        )

    def test_diagonal_comes_from_same_stream(self):
        """Z[t, a, a] are interleaved members of the single stream (not a
        separate draw): their raw variates sit at flat offsets
        t*K*K + a*K + a."""
        k, t = 3, 4
        d = distances(k)
        z = sample_fading_trials(d, np.arange(k), 3.0, t, seed=7)
        _, means = fading_means(d, np.arange(k), 3.0)
        raw = np.random.default_rng(7).exponential(1.0, size=t * k * k)
        for trial in range(t):
            for a in range(k):
                expected = raw[trial * k * k + a * k + a] * means[a, a]
                assert z[trial, a, a] == pytest.approx(expected, rel=1e-12)

    def test_generator_seed_continues_stream(self):
        """Passing one Generator through successive chunks continues the
        stream — the basis for chunked == unchunked equality."""
        d = distances(3)
        idx = np.arange(3)
        rng = np.random.default_rng(42)
        a = sample_fading_trials(d, idx, 3.0, 4, seed=rng)
        b = sample_fading_trials(d, idx, 3.0, 4, seed=rng)
        full = sample_fading_trials(d, idx, 3.0, 8, seed=np.random.default_rng(42))
        np.testing.assert_array_equal(np.concatenate([a, b]), full)


class TestExponentialOracle:
    """The Rayleigh draws use ``standard_exponential``; recorded results
    were drawn with ``exponential(1.0)``.  Both are the same stream, bit
    for bit and position for position, chunk by chunk."""

    N_TRIALS = 50

    @staticmethod
    def _means(k, seed):
        d = paper_topology(k, seed=seed).sender_receiver_distances()
        return d, fading_means(d, np.arange(k), 3.0)[1]

    @pytest.mark.parametrize("seed", [0, 7, 2017])
    @pytest.mark.parametrize("k", [1, 5, 40])
    @pytest.mark.parametrize("chunk_trials", [1, 3, 16, 50])
    def test_inline_chunks(self, seed, k, chunk_trials):
        d, means = self._means(k, seed)
        oracle = np.random.default_rng(seed)
        chunks = iter_fading_trials(
            d, np.arange(k), 3.0, self.N_TRIALS, seed=seed, chunk_trials=chunk_trials
        )
        drawn = 0
        for z in chunks:
            want = oracle.exponential(1.0, size=z.shape) * means
            assert np.array_equal(z, want)
            drawn += z.shape[0]
        assert drawn == self.N_TRIALS
        # The stream stands at the same position afterwards.
        rng = np.random.default_rng(seed)
        rng.standard_exponential(size=(self.N_TRIALS, k, k))
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("seed", [0, 7, 2017])
    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_batched_draw(self, seed, k):
        d, means = self._means(k, seed)
        z = sample_fading_trials(d, np.arange(k), 3.0, 9, seed=seed)
        want = np.random.default_rng(seed).exponential(1.0, size=(9, k, k)) * means
        assert np.array_equal(z, want)

    @pytest.mark.parametrize("spec", ["rayleigh", "shadowing:sigma_db=0"])
    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_law_chunks(self, spec, k):
        _, means = self._means(k, 3)
        law = get_channel_law(spec)
        state = law.start_stream(np.random.default_rng(3), means)
        oracle = np.random.default_rng(3)
        for t_c in (1, 4, 9):
            want = oracle.exponential(1.0, size=(t_c, k, k)) * means
            assert np.array_equal(law.sample_chunk(state, means, t_c), want)

    @pytest.mark.parametrize("static", [False, True])
    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_suzuki_chunks(self, static, k):
        _, means = self._means(k, 4)
        law = ShadowingLaw(sigma_db=6.0, static=static)
        state = law.start_stream(np.random.default_rng(4), means)
        shadow_rng, ray_rng = spawn_rngs(np.random.default_rng(4), 2)
        frozen = _lognormal_factor(shadow_rng, 6.0, means.shape, True) if static else None
        for t_c in (1, 4, 9):
            shape = (t_c, k, k)
            factor = frozen if static else _lognormal_factor(shadow_rng, 6.0, shape, True)
            want = ray_rng.exponential(1.0, size=shape) * factor * means
            assert np.array_equal(law.sample_chunk(state, means, t_c), want)


class TestIterFadingTrialsEdges:
    def test_zero_trials(self):
        chunks = list(iter_fading_trials(distances(3), np.arange(2), 3.0, 0, seed=0))
        assert len(chunks) == 1 and chunks[0].shape == (0, 2, 2)

    def test_empty_active(self):
        chunks = list(
            iter_fading_trials(distances(3), np.zeros(0, dtype=int), 3.0, 5, seed=0)
        )
        assert len(chunks) == 1 and chunks[0].shape == (5, 0, 0)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            list(iter_fading_trials(distances(2), np.array([0]), 3.0, -1))

    def test_bad_chunk_trials(self):
        with pytest.raises(ValueError):
            list(iter_fading_trials(distances(2), np.array([0]), 3.0, 4, chunk_trials=0))

    def test_out_of_range_active(self):
        with pytest.raises(IndexError):
            list(iter_fading_trials(distances(2), np.array([7]), 3.0, 1))

    def test_chunk_sinr_matches_full(self):
        d = paper_topology(15, seed=8).sender_receiver_distances()
        idx = np.arange(15)
        full = instantaneous_sinr(sample_fading_trials(d, idx, 3.0, 40, seed=1))
        parts = [
            instantaneous_sinr(z)
            for z in iter_fading_trials(d, idx, 3.0, 40, seed=1, chunk_trials=9)
        ]
        np.testing.assert_array_equal(np.concatenate(parts), full)
