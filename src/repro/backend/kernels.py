"""Allocation-conscious numpy kernels behind the compute backend.

These are the reference implementations of the three hot-path
computations the backend layer (:mod:`repro.backend.base`) dispatches:

- :func:`fmatrix` — the Eq. 17 interference-factor matrix build,
  operation-for-operation identical to the historical
  :func:`repro.core.problem.interference_factors` body (that function
  now delegates here through the active backend);
- :func:`active_interference` / :func:`feasible_verdict` — the
  Corollary 3.1 feasibility check restricted to the active set.  Where
  :meth:`FadingRLS.interference_on` reduces a full ``(N,)`` masked
  matvec (O(N^2)), the verdict only needs the ``K = |P|`` active
  columns, so the kernel gathers the ``(K, K)`` sub-matrix and reduces
  it — O(K^2) — which is the single biggest win for the schedulers'
  ``K << N`` regime;
- :class:`MCScratch` + :func:`mc_success_chunk` — the Monte-Carlo
  success reduction for one streamed fading chunk, writing through
  preallocated buffers so the per-chunk temporaries (interference sums,
  SINR, positivity mask) are materialised once per replay instead of
  once per chunk.

Bit-identity contract
---------------------
``mc_success_chunk`` produces the *same bits* as the historical
``instantaneous_sinr(z) >= gamma_th`` path: the reductions use the same
numpy pairwise summation (``np.sum`` with ``out=`` equals the allocating
form), division happens only where the denominator is positive, and
zero-denominator receivers decode with SINR ``inf`` exactly as before.
``feasible_verdict`` reproduces the historical *verdict* (a boolean),
not the historical partial sums: summing ``K`` gathered rows groups the
pairwise reduction differently from the masked ``N``-row matvec, so the
float loads may differ by O(ulp) — every consumer of float interference
sums (:meth:`FadingRLS.interference_on`, the incremental ledger) keeps
its original reduction, and only the threshold comparisons route here.
:func:`gathered_interference` is the ledger's shared sub-matrix
reduction, bit-identical to the expression the incremental engine has
always used.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def fmatrix(
    distances: np.ndarray,
    alpha: float,
    gamma_th: float,
    powers: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Interference-factor matrix ``F`` (Eq. 17) — numpy reference.

    ``F[i, j] = ln(1 + gamma_th * (P_i d_ij^-alpha)/(P_j d_jj^-alpha))``
    for ``i != j``, ``F[i, i] = 0``.  The arithmetic (including operation
    order) is the contract every backend must reproduce bit-for-bit.
    """
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"distances must be square, got {d.shape}")
    if n == 0:
        return np.zeros((0, 0), dtype=float)
    own = np.diag(d)
    ratio = (own[None, :] / d) ** alpha
    if powers is not None:
        p = np.asarray(powers, dtype=float).reshape(-1)
        if p.shape[0] != n:
            raise ValueError(f"powers has length {p.shape[0]}, expected {n}")
        if np.any(p <= 0):
            raise ValueError("powers must be positive")
        ratio = ratio * (p[:, None] / p[None, :])
    f = np.log1p(gamma_th * ratio)
    np.fill_diagonal(f, 0.0)
    return f


def gathered_interference(
    f: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Column sums of ``F`` over a row subset, at selected columns.

    ``out[c] = sum_{i in rows} F[i, cols[c]]`` — the incremental
    ledger's refresh expression, shared here so every backend and the
    engine agree on the reduction (numpy pairwise summation over the
    gathered block, exactly ``f[np.ix_(rows, cols)].sum(axis=0)``).
    """
    return f[np.ix_(rows, cols)].sum(axis=0)


def active_interference(f: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Interference load at each *active* receiver from the active set.

    ``out[a] = sum_{i in idx} F[i, idx[a]]`` — the O(K^2) gathered form
    of the Corollary 3.1 left-hand side (``F`` has a zero diagonal, so
    a receiver never counts itself).  Returns ``(K,)`` floats aligned
    with ``idx``.
    """
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        return np.zeros(0, dtype=float)
    return np.add.reduce(f[np.ix_(idx, idx)], axis=0)


def feasible_verdict(
    f: np.ndarray,
    idx: np.ndarray,
    budgets: np.ndarray,
    tol: float = 1e-12,
) -> bool:
    """Corollary 3.1 verdict for an active index set.

    True iff every active receiver's gathered interference load fits
    its effective budget (``gamma_eps - nu_j``) within ``tol``.  The
    empty set is trivially feasible.
    """
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        return True
    load = active_interference(f, idx)
    return bool(np.all(load <= budgets[idx] + tol))


class MCScratch:
    """Reusable reduction buffers for a Monte-Carlo replay.

    One replay streams equal-size fading chunks (the tail chunk may be
    smaller); the scratch allocates its ``(T_c, K)`` buffers on first
    use and hands out views, so subsequent chunks reduce with **zero**
    new array allocations.  Not thread-safe; use one scratch per replay
    (or per worker — shapes re-grow on demand).
    """

    __slots__ = ("_interference", "_sinr", "_positive")

    def __init__(self) -> None:
        self._interference: Optional[np.ndarray] = None
        self._sinr: Optional[np.ndarray] = None
        self._positive: Optional[np.ndarray] = None

    def buffers(self, t: int, k: int):
        """``(interference, sinr, positive)`` views of shape ``(t, k)``."""
        cur = self._interference
        if cur is None or cur.shape[0] < t or cur.shape[1] != k:
            rows = t if cur is None or cur.shape[1] != k else max(t, cur.shape[0])
            self._interference = np.empty((rows, k), dtype=float)
            self._sinr = np.empty((rows, k), dtype=float)
            self._positive = np.empty((rows, k), dtype=bool)
        return (
            self._interference[:t],
            self._sinr[:t],
            self._positive[:t],
        )


def mc_success_chunk(
    z: np.ndarray,
    gamma_th: float,
    noise: float,
    out: np.ndarray,
    scratch: Optional[MCScratch] = None,
) -> np.ndarray:
    """Per-trial decode successes for one ``(T_c, K, K)`` fading chunk.

    Writes ``out[t, a] = (SINR of active link a in trial t) >= gamma_th``
    into the caller's boolean slab and returns it.  Bit-identical to
    ``instantaneous_sinr(z, noise=noise) >= gamma_th`` (see the module
    docstring); with a :class:`MCScratch` the reduction allocates
    nothing beyond the scratch's one-time buffers.
    """
    zz = np.asarray(z, dtype=float)
    if zz.ndim != 3 or zz.shape[1] != zz.shape[2]:
        raise ValueError(f"z must have shape (T, K, K), got {zz.shape}")
    t_c, k = zz.shape[0], zz.shape[1]
    if out.shape != (t_c, k):
        raise ValueError(f"out must have shape ({t_c}, {k}), got {out.shape}")
    if scratch is None:
        scratch = MCScratch()
    interference, sinr, positive = scratch.buffers(t_c, k)
    signal = np.diagonal(zz, axis1=1, axis2=2)
    np.sum(zz, axis=1, out=interference)
    np.subtract(interference, signal, out=interference)
    np.add(interference, noise, out=interference)  # denom = I + N0
    np.greater(interference, 0.0, out=positive)
    sinr.fill(np.inf)  # zero-denominator receivers decode: SINR = inf
    np.divide(signal, interference, out=sinr, where=positive)
    np.greater_equal(sinr, gamma_th, out=out)
    return out
