"""Kernel-level tests for the compute backend (``repro.backend``).

The instance-level paths (:class:`FadingRLS` and :func:`simulate_trials`
dispatching through :func:`repro.backend.get_active`) must reproduce the
numpy reference kernels *exactly*: bit-identical F matrices and
Monte-Carlo success bits, and the historical feasibility verdicts
(verdict equality — not float-sum equality — is the feasibility
contract; see ``repro.backend.kernels``).
"""

import numpy as np

from repro.backend import base as backend_base
from repro.backend import kernels
from repro.channel.sampling import instantaneous_sinr, sample_fading_trials
from repro.core.problem import FadingRLS
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
        # The scratch-buffer kernel against the materialising SINR form.
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

    def test_scratch_regrows(self):
        scratch = kernels.MCScratch()
        a = scratch.buffers(4, 3)
        b = scratch.buffers(8, 5)  # larger shape forces a re-grow
        c = scratch.buffers(2, 2)  # smaller shape reuses the backing
        assert a[0].shape == (4, 3)
        assert b[0].shape == (8, 5)
        assert c[0].shape == (2, 2)

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
        out = kernels.active_interference(f, np.array([], dtype=np.int64))
        assert out.shape == (0,)


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
