"""The numpy kernels behind the compute backend.

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
- :func:`mc_success_chunk` — the Monte-Carlo success reduction for one
  streamed fading chunk, written into the caller's success slab: it is
  :func:`~repro.channel.sampling.instantaneous_sinr` against the
  threshold, so the replay and the one-shot reference share one SINR.

Bit-identity contract
---------------------
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

from repro.channel.sampling import instantaneous_sinr


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


def mc_success_chunk(z: np.ndarray, gamma_th: float, noise: float, out: np.ndarray) -> np.ndarray:
    """Per-trial decode successes for one ``(T_c, K, K)`` fading chunk.

    Writes ``out[t, a] = (SINR of active link a in trial t) >= gamma_th``
    into the caller's boolean slab and returns it — exactly
    ``instantaneous_sinr(z, noise=noise) >= gamma_th``.
    """
    sinr = instantaneous_sinr(z, noise=noise)
    if out.shape != sinr.shape:
        raise ValueError(f"out must have shape {sinr.shape}, got {out.shape}")
    return np.greater_equal(sinr, gamma_th, out=out)
