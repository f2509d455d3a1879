"""The numpy kernels behind the compute backend.

These are the reference implementations of the hot-path computations
the backend layer (:mod:`repro.backend.base`) dispatches:

- :func:`factor_block` — the Eq. 17 interference factors of one
  ``(rows, cols)`` block, the one place the factor arithmetic lives.
  :func:`fmatrix` is its full ``N x N`` block;
  :meth:`FadingRLS.factor_block`, the incremental engine's row and
  column refresh and :func:`repro.channel.rayleigh.success_probability`
  compute smaller blocks with it;
- :func:`feasible_verdict` — the Corollary 3.1 feasibility check on the
  active set's ``(K, K)`` factor block.  Where
  :meth:`FadingRLS.interference_on` reduces a full ``(N,)`` masked
  matvec (O(N^2)), the verdict only needs the ``K = |P|`` active
  columns — O(K^2) — which is the single biggest win for the
  schedulers' ``K << N`` regime;
- :func:`mc_success_chunk` — the Monte-Carlo success reduction for one
  streamed fading chunk, written into the caller's success slab: it is
  :func:`~repro.channel.sampling.instantaneous_sinr` against the
  threshold, so the replay and the one-shot reference share one SINR.

Bit-identity contract
---------------------
Every cell of a :func:`factor_block` goes through the same operations
in the same order, whatever the block's shape, so a block is
bit-identical to the same cells of :func:`fmatrix`.
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


def factor_block(
    d_block: np.ndarray,
    own: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    alpha: float,
    gamma_th: float,
    powers: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Interference factors (Eq. 17) of the cells of one distance block.

    ``F[i, j] = ln(1 + gamma_th * (P_i d_ij^-alpha)/(P_j d_jj^-alpha))``
    and ``F[i, i] = 0``.

    Parameters
    ----------
    d_block : array
        ``d(s_i, r_j)`` for the cells wanted: ``(R, C)`` for a block,
        ``(N,)`` for one row or one column.
    own : array
        The column links' own lengths ``d_jj``, broadcast against
        ``d_block`` (``(C,)`` for a block or a row, a scalar for a
        column).
    rows, cols : int arrays or ints
        The link of each cell's row and column, broadcast the same way
        (``rows[:, None]`` and ``cols`` for a block).  A cell whose row
        and column are the same link is 0.
    powers : (N,) array, optional
        Per-link transmit powers.  ``None`` is uniform power, where the
        ratio ``P_i / P_j`` is exactly 1 and is not multiplied in.

    Every cell goes through the same operations in the same order,
    whatever the block's shape — the contract every caller relies on for
    bits that match the full build.
    """
    ratio = np.asarray((own / d_block) ** alpha)
    if powers is not None:
        ratio *= powers[rows] / powers[cols]
    ratio *= gamma_th
    f = np.log1p(ratio, out=ratio)
    np.copyto(f, 0.0, where=rows == cols)
    return f


def fmatrix(
    distances: np.ndarray,
    alpha: float,
    gamma_th: float,
    powers: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Interference-factor matrix ``F`` (Eq. 17) — numpy reference.

    The full ``N x N`` :func:`factor_block`, with the distance matrix's
    diagonal as the links' own lengths.
    """
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"distances must be square, got {d.shape}")
    if n == 0:
        return np.zeros((0, 0), dtype=float)
    p = None
    if powers is not None:
        p = np.asarray(powers, dtype=float).reshape(-1)
        if p.shape[0] != n:
            raise ValueError(f"powers has length {p.shape[0]}, expected {n}")
        if np.any(p <= 0):
            raise ValueError("powers must be positive")
    links = np.arange(n)
    return factor_block(d, np.diag(d), links[:, None], links, alpha, gamma_th, p)


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


def feasible_verdict(
    block: np.ndarray,
    budgets: np.ndarray,
    tol: float = 1e-12,
) -> bool:
    """Corollary 3.1 verdict from the active set's factor block.

    ``block`` is the C-contiguous ``(K, K)`` block ``F[idx, idx]`` of
    the active links (zero diagonal, so a receiver never counts
    itself) and ``budgets`` their effective budgets
    (``gamma_eps - nu_j``).  True iff every column sum fits its budget
    within ``tol``; the empty set is trivially feasible.
    """
    load = np.add.reduce(block, axis=0)
    return bool(np.all(load <= budgets + tol))


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
