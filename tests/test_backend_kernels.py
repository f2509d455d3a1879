"""Kernel-level tests for the compute backend (``repro.backend``).

The instance-level paths (:class:`FadingRLS` and :func:`simulate_trials`
dispatching through :func:`repro.backend.get_active`) must reproduce the
numpy reference kernels *exactly*: bit-identical F matrices and
Monte-Carlo success bits, and the historical feasibility verdicts
(verdict equality — not float-sum equality — is the feasibility
contract; see ``repro.backend.kernels``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import base as backend_base
from repro.backend import kernels
from repro.channel.sampling import instantaneous_sinr, sample_fading_trials
from repro.core.problem import FadingRLS
from repro.geometry.distance import coordinate_distances, cross_distances
from repro.network.links import LinkSet
from repro.network.topology import paper_topology
from repro.sim.montecarlo import simulate_trials


def _problem(n=24, *, seed=3, noise=0.0, powers=None, alpha=3.0):
    links = paper_topology(n, seed=seed)
    return FadingRLS(links=links, alpha=alpha, noise=noise, powers=powers)


class TestFmatrixKernel:
    def test_matches_reference_bits(self):
        p = _problem(30)
        ref = kernels.fmatrix(p.distances(), p.alpha, p.gamma_th)
        np.testing.assert_array_equal(p.interference_matrix(), ref)

    def test_non_uniform_powers(self):
        rng = np.random.default_rng(5)
        powers = rng.uniform(0.5, 2.0, size=20)
        p = _problem(20, powers=powers)
        ref = kernels.fmatrix(p.distances(), p.alpha, p.gamma_th, powers=powers)
        np.testing.assert_array_equal(p.interference_matrix(), ref)

    def test_zero_diagonal(self):
        p = _problem(12)
        assert np.all(np.diagonal(p.interference_matrix()) == 0.0)

    def test_singleton(self):
        links = LinkSet(
            senders=np.array([[0.0, 0.0]]),
            receivers=np.array([[10.0, 0.0]]),
            rates=np.ones(1),
        )
        p = FadingRLS(links=links, alpha=3.0)
        f = p.interference_matrix()
        assert f.shape == (1, 1) and f[0, 0] == 0.0


class TestFeasibilityKernel:
    def test_empty_set_feasible(self):
        p = _problem(10)
        assert p.is_feasible(np.array([], dtype=np.int64))

    def test_singleton_feasible(self):
        p = _problem(10)
        assert p.is_feasible(np.array([0]))

    def test_unserviceable_singleton_infeasible(self):
        # Noise so high the longest link cannot decode even alone:
        # effective budget < 0, so even the empty interference load
        # exceeds it (serviceable-mask edge).
        p = _problem(10, noise=1e9)
        assert not p.serviceable().any()
        assert not p.is_feasible(np.array([0]))
        # The truly empty set stays feasible by convention.
        assert p.is_feasible(np.array([], dtype=np.int64))

    def test_matches_reference_verdicts(self):
        # The gathered O(K^2) kernel against the full masked reduction.
        p = _problem(30)
        rng = np.random.default_rng(9)
        for _ in range(10):
            k = int(rng.integers(0, 12))
            active = rng.choice(30, size=k, replace=False)
            assert p.is_feasible(active) == bool(np.all(p.informed(active)[active]))

    def test_overloaded_set_infeasible_everywhere(self):
        p = _problem(40, seed=1)
        full = np.arange(40)
        assert not p.is_feasible(full)
        assert not np.all(p.informed(full))


class TestMCKernel:
    def test_success_bits_match_reference(self):
        # The streamed replay's kernel against the one-shot SINR form.
        p = _problem(16)
        active = np.arange(8)
        got = simulate_trials(p, active, 64, seed=123)
        z = sample_fading_trials(
            p.distances(), active, p.alpha, 64, power=p.tx_powers(), seed=123
        )
        ref = instantaneous_sinr(z, noise=p.noise) >= p.gamma_th
        np.testing.assert_array_equal(got, ref)

    def test_empty_schedule(self):
        p = _problem(8)
        out = simulate_trials(p, np.array([], dtype=np.int64), 16, seed=0)
        assert out.shape == (16, 0)

    def test_chunk_kernel_matches_naive(self):
        rng = np.random.default_rng(11)
        z = rng.exponential(size=(10, 6, 6))
        gamma_th, noise = 1.0, 0.25
        out = np.empty((10, 6), dtype=bool)
        kernels.mc_success_chunk(z, gamma_th, noise, out=out)
        signal = np.diagonal(z, axis1=1, axis2=2)
        denom = z.sum(axis=1) - signal + noise
        with np.errstate(divide="ignore"):
            sinr = np.where(denom > 0, signal / denom, np.inf)
        np.testing.assert_array_equal(out, sinr >= gamma_th)


class TestGatheredInterference:
    def test_matches_ix_sum(self):
        rng = np.random.default_rng(2)
        f = rng.uniform(size=(15, 15))
        rows = np.array([1, 4, 7])
        cols = np.array([0, 2, 9, 11])
        np.testing.assert_array_equal(
            kernels.gathered_interference(f, rows, cols),
            f[np.ix_(rows, cols)].sum(axis=0),
        )

    def test_empty_active(self):
        f = np.ones((5, 5))
        empty = np.array([], dtype=np.int64)
        assert kernels.gathered_interference(f, empty, empty).shape == (0,)
        assert kernels.feasible_verdict(f[np.ix_(empty, empty)], np.zeros(0))


class TestActiveBackend:
    def test_numpy_always_available(self):
        backend = backend_base.get_active()
        assert backend is backend_base.get_active()
        assert backend.fmatrix is kernels.fmatrix
        assert backend.feasible_verdict is kernels.feasible_verdict
        assert backend.mc_success_chunk is kernels.mc_success_chunk

    def test_kernels_looked_up_at_call_time(self, monkeypatch):
        # Replacing a kernel on the active backend reroutes every later
        # call: the seam profilers wrap.
        calls = []
        backend = backend_base.get_active()

        def counted(*args, **kwargs):
            calls.append("mc")
            return kernels.mc_success_chunk(*args, **kwargs)

        monkeypatch.setattr(backend, "mc_success_chunk", counted)
        monkeypatch.setattr(
            backend, "fmatrix", lambda *a: calls.append("F") or kernels.fmatrix(*a)
        )
        p = _problem(8)
        p.interference_matrix()
        simulate_trials(p, np.arange(4), 16, seed=0)
        assert calls == ["F", "mc"]


# -- the one Eq. 17 block kernel -------------------------------------

_coords = st.floats(-500.0, 500.0, allow_nan=False, allow_infinity=False)


@st.composite
def _block_case(draw):
    """A link set, optional per-link powers, and a row and column subset.

    Subsets may repeat links, share links (same-link cells) or be empty.
    """
    n = draw(st.integers(1, 12))
    senders = np.array(draw(st.lists(st.tuples(_coords, _coords), min_size=n, max_size=n)))
    offsets = np.array(
        draw(
            st.lists(
                st.tuples(st.floats(1.0, 50.0), st.floats(0.0, 2 * np.pi)),
                min_size=n,
                max_size=n,
            )
        )
    )
    receivers = senders + offsets[:, :1] * np.column_stack(
        [np.cos(offsets[:, 1]), np.sin(offsets[:, 1])]
    )
    powers = None
    if draw(st.booleans()):
        powers = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    index = st.lists(st.integers(0, n - 1), max_size=2 * n)
    rows = np.array(draw(index), dtype=np.int64)
    cols = np.array(draw(index), dtype=np.int64)
    alpha = draw(st.sampled_from([2.5, 3.0, 4.0]))
    gamma_th = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return LinkSet(senders=senders, receivers=receivers), powers, rows, cols, alpha, gamma_th


# Near-coincident senders and receivers of different links overflow
# (own / d) ** alpha to inf, in the full build and in a block alike.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
class TestFactorBlockKernel:
    @settings(max_examples=200, deadline=None)
    @given(_block_case())
    def test_block_matches_fmatrix_slice(self, case):
        links, powers, rows, cols, alpha, gamma_th = case
        d = links.sender_receiver_distances()
        full = kernels.fmatrix(d, alpha, gamma_th, powers)
        block = kernels.factor_block(
            d[np.ix_(rows, cols)], np.diag(d)[cols], rows[:, None], cols, alpha, gamma_th, powers
        )
        assert block.shape == (rows.size, cols.size)
        np.testing.assert_array_equal(block, full[np.ix_(rows, cols)])
        # One row and one column, as (N,) vectors.
        links_ids = np.arange(len(links))
        i = int(rows[0]) if rows.size else 0
        row = kernels.factor_block(d[i], np.diag(d), i, links_ids, alpha, gamma_th, powers)
        col = kernels.factor_block(d[:, i], d[i, i], links_ids, i, alpha, gamma_th, powers)
        np.testing.assert_array_equal(row, full[i])
        np.testing.assert_array_equal(col, full[:, i])

    @settings(max_examples=200, deadline=None)
    @given(_block_case())
    def test_problem_blocks_match_dense_slices(self, case):
        # Bare instances compute the cells; cached ones slice the matrices.
        links, powers, rows, cols, alpha, gamma_th = case
        lazy = FadingRLS(links=links, alpha=alpha, gamma_th=gamma_th, powers=powers)
        dense = FadingRLS(links=links, alpha=alpha, gamma_th=gamma_th, powers=powers)
        d, f = dense.distances(), dense.interference_matrix()
        # (rows, cols, the same cells of a dense matrix)
        selections = [
            (rows, cols, np.ix_(rows, cols)),
            (None, cols, (slice(None), cols)),
            (rows, None, (rows, slice(None))),
            (None, None, (slice(None), slice(None))),
        ]
        if rows.size:
            i = int(rows[0])
            selections += [
                (None, i, (slice(None), i)),
                (i, None, (i, slice(None))),
                (i, cols, (i, cols)),
                (rows, i, (rows, i)),
                (i, i, (i, i)),
            ]
        for r, c, index in selections:
            for problem in (lazy, dense):
                got_d, got_f = problem.distance_block(r, c), problem.factor_block(r, c)
                assert np.shape(got_d) == np.shape(d[index]) == np.shape(got_f)
                np.testing.assert_array_equal(got_d, d[index])
                np.testing.assert_array_equal(got_f, f[index])
        assert "distances" not in lazy._cache and "F" not in lazy._cache

    def test_same_link_cells_are_zero(self):
        p = _problem(6)
        idx = np.array([2, 4, 2])
        block = p.factor_block(idx, idx)
        assert block[0, 0] == block[0, 2] == block[2, 0] == block[1, 1] == 0.0
        assert block[0, 1] > 0.0

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            _problem(6).factor_block([-1], [0])
        with pytest.raises(IndexError):
            _problem(6).distance_block(None, -1)

    def test_past_the_end_index_rejected(self):
        with pytest.raises(IndexError):
            _problem(6).factor_block(None, [6])
        with pytest.raises(IndexError):
            _problem(6).distance_block(6, None)


class TestCoordinateDistances:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(_coords, _coords, _coords, _coords), min_size=0, max_size=30
        )
    )
    def test_cells_match_cross_distances(self, rows):
        # The diagonal (a link's own length), one column and one row,
        # each computed on its own, against the full cross matrix.
        pts = np.array(rows, dtype=float).reshape(-1, 4)
        a, b = pts[:, :2], pts[:, 2:]
        full = cross_distances(a, b)
        ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
        np.testing.assert_array_equal(coordinate_distances(ax, ay, bx, by), np.diag(full))
        for i in range(min(len(pts), 3)):
            np.testing.assert_array_equal(coordinate_distances(ax, ay, bx[i], by[i]), full[:, i])
            np.testing.assert_array_equal(coordinate_distances(ax[i], ay[i], bx, by), full[i])
