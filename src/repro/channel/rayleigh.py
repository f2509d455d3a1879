"""Rayleigh-fading channel law.

Under Rayleigh fading the instantaneous received power ``Z_ij`` from
sender ``i`` at receiver ``j`` is exponentially distributed with mean
``P * d_ij^-alpha`` (Eq. 4-5).  Theorem 3.1 gives the success
probability of an active link in closed form:

    ``Pr(X_j >= gamma_th)
        = prod_{i in P\\j} 1 / (1 + gamma_th * (d_jj / d_ij)^alpha)``

(the Laplace transform of the interference sum evaluated at
``gamma_th / (P d_jj^-alpha)``).  This module implements the law's CDF
and that closed form, vectorised over links.  Draws come from
:class:`~repro.channel.laws.RayleighLaw` through
:mod:`repro.channel.sampling`.
"""

from __future__ import annotations

import numpy as np

from repro.backend import kernels as backend_kernels
from repro.channel.pathloss import mean_received_power
from repro.utils.validation import check_positive


def received_power_cdf(
    x: np.ndarray | float,
    distance: np.ndarray | float,
    alpha: float,
    power: float = 1.0,
) -> np.ndarray | float:
    """CDF of the instantaneous received power (Eq. 5).

    ``F(x) = 1 - exp(-x / (P d^-alpha))`` for ``x >= 0`` (0 below).
    Broadcasts ``x`` against ``distance``.
    """
    mean = mean_received_power(distance, alpha, power)
    xv = np.asarray(x, dtype=float)
    out = np.where(xv >= 0.0, 1.0 - np.exp(-np.maximum(xv, 0.0) / mean), 0.0)
    return float(out) if out.ndim == 0 else out


def success_probability(
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    gamma_th: float,
    *,
    noise: float = 0.0,
    power: float | np.ndarray = 1.0,
    log: bool = False,
) -> np.ndarray:
    """Closed-form success probability per active link (Theorem 3.1).

    Parameters
    ----------
    distances : (N, N) array
        ``distances[i, j] = d(s_i, r_j)``.
    active:
        Bool mask of shape ``(N,)`` or integer index array: the
        concurrently transmitting set ``P``.
    alpha, gamma_th:
        Path loss exponent and decoding threshold.
    noise:
        Ambient noise ``N0 >= 0``.  The paper's Eq. 9 is the ``N0 = 0``
        case; with noise the standard Rayleigh extension multiplies in
        ``e^(-gamma_th N0 d_jj^alpha / P_j)``.
    power:
        Uniform transmit power, or an ``(N,)`` array of per-link powers
        (power cancels from the interference ratio only when uniform).
    log:
        When true, return log-probabilities (numerically exact for very
        small success probabilities; the negative of the summed
        interference factors of Corollary 3.1 plus the noise factor).

    Returns
    -------
    (K,) array ordered like the sorted active indices.

    Notes
    -----
    Computed as
    ``exp(-nu_j - sum_i ln(1 + gamma_th (P_i/P_j)(d_jj/d_ij)^alpha))``
    with :func:`numpy.log1p` for accuracy at small interference; the
    factors are the active set's block of the one Eq. 17 kernel
    (:func:`repro.backend.kernels.factor_block`).
    """
    check_positive(alpha, "alpha")
    check_positive(gamma_th, "gamma_th")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"distances must be square, got {d.shape}")
    p = np.asarray(power, dtype=float)
    if p.ndim == 0:
        p = np.full(n, float(p))
    elif p.shape != (n,):
        raise ValueError(f"power must be scalar or shape ({n},), got {p.shape}")
    if np.any(p <= 0):
        raise ValueError("power must be positive")
    idx = _as_index(active, n)
    if idx.size == 0:
        return np.zeros(0, dtype=float)
    sub = d[np.ix_(idx, idx)]  # sub[a, b] = d(s_{idx_a}, r_{idx_b})
    own = np.diag(sub)  # d_jj for each active link
    factors = backend_kernels.factor_block(sub, own, idx[:, None], idx, alpha, gamma_th, p)
    nu = gamma_th * noise * own**alpha / p[idx]
    log_p = -factors.sum(axis=0) - nu
    return log_p if log else np.exp(log_p)


def _as_index(active: np.ndarray, n: int) -> np.ndarray:
    a = np.asarray(active)
    if a.dtype == bool:
        if a.shape != (n,):
            raise ValueError(f"boolean active mask must have shape ({n},), got {a.shape}")
        return np.flatnonzero(a)
    idx = np.unique(a.astype(np.int64).reshape(-1))
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"active indices out of range for {n} links")
    return idx
