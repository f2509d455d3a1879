"""The compute backend the scheduling/simulation hot path dispatches through.

A :class:`ComputeBackend` bundles the three kernel entry points of
:mod:`repro.backend.kernels` — F-matrix build, Corollary 3.1
feasibility verdict, Monte-Carlo chunk reduction.  There is one
instance per process, the numpy reference; :func:`get_active` returns
it, and :meth:`FadingRLS.interference_matrix` / ``is_feasible`` /
``simulate_trials`` look each kernel up on it **at call time**.  A
profiler or a test can therefore wrap one kernel by replacing the
attribute on the returned instance, and every later call goes through
the wrapper.
"""

from __future__ import annotations

from repro.backend import kernels


class ComputeBackend:
    """The three hot-path kernels, as replaceable attributes.

    Attributes
    ----------
    fmatrix, feasible_verdict, mc_success_chunk:
        Kernel callables, initially the :mod:`repro.backend.kernels`
        references (:func:`~repro.backend.kernels.fmatrix`,
        :func:`~repro.backend.kernels.feasible_verdict`,
        :func:`~repro.backend.kernels.mc_success_chunk`).
    """

    def __init__(self) -> None:
        self.fmatrix = kernels.fmatrix
        self.feasible_verdict = kernels.feasible_verdict
        self.mc_success_chunk = kernels.mc_success_chunk


_ACTIVE = ComputeBackend()


def get_active() -> ComputeBackend:
    """The backend current computations dispatch through."""
    return _ACTIVE
