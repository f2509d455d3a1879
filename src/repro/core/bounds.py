"""The paper's geometric constants and approximation-ratio formulas.

Centralising the closed-form constants keeps the algorithm modules free
of magic numbers and lets tests check each constant against the
inequality it is supposed to guarantee:

- ``ldp_beta`` — Eq. (37), the LDP square-size factor;
- ``ldp_square_size`` — ``beta_k = 2^(h_k+1) * beta * delta``;
- ``ldp_square_capacity`` — Eq. (49), the per-square capacity ``u`` of
  any optimal schedule used in Thm 4.2;
- ``rle_c1`` — Eq. (59), RLE's elimination radius factor;
- ``ldp_approximation_ratio`` / ``rle_approximation_ratio`` — Thm 4.2
  (``16 g(L)``) and Thm 4.4;
- ``ldp_ring_interference_bound`` / ``rle_ring_interference_bound`` —
  the ring sums from the feasibility proofs (Thm 4.1 / 4.3), evaluated
  numerically so tests can confirm the constants really push the sums
  under ``gamma_eps``.

All formulas require ``alpha > 2`` (so ``zeta(alpha - 1)`` converges),
matching the paper's standing assumption.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import (
    CODE_NOT_FINITE,
    CODE_REQUIREMENT,
    ValidationError,
    check_positive,
    check_probability,
)
from repro.utils.zeta import riemann_zeta


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha > 2.0:
        raise ValidationError(
            f"the paper's constants require alpha > 2 (zeta convergence), got {alpha}",
            code=CODE_REQUIREMENT,
            param="alpha",
        )
    return check_positive(alpha, "alpha")  # rejects inf


def ldp_beta(alpha: float, gamma_th: float, gamma_eps: float) -> float:
    """LDP square-size factor ``beta`` (Eq. 37).

    ``beta = (8 * zeta(alpha - 1) * gamma_th / gamma_eps)^(1/alpha)``.
    """
    _check_alpha(alpha)
    check_positive(gamma_th, "gamma_th")
    check_positive(gamma_eps, "gamma_eps")
    return float((8.0 * riemann_zeta(alpha - 1.0) * gamma_th / gamma_eps) ** (1.0 / alpha))


def ldp_square_size(h: int, delta: float, beta: float) -> float:
    """Side of LDP's grid squares for length class ``h``:
    ``beta_k = 2^(h+1) * beta * delta``."""
    if h < 0:
        raise ValueError("class magnitude h must be >= 0")
    check_positive(delta, "delta")
    check_positive(beta, "beta")
    return float(2.0 ** (h + 1) * beta * delta)


def ldp_square_capacity(alpha: float, gamma_th: float, gamma_eps: float) -> int:
    """Eq. (49): max receivers any *feasible* schedule fits in one LDP square.

    ``u = ceil(gamma_eps / ln(1 + 1 / (2^alpha * beta^alpha * gamma_th)))``.
    This is the pigeonhole constant behind the ``O(g(L))`` ratio proof.
    """
    _check_alpha(alpha)
    beta = ldp_beta(alpha, gamma_th, gamma_eps)
    try:
        denom = float(np.log1p(1.0 / (2.0**alpha * beta**alpha * gamma_th)))
    except OverflowError:  # 2^alpha past the float range
        denom = 0.0
    except ZeroDivisionError:  # the product underflows to 0
        denom = math.inf
    if not denom > 0.0:
        raise ValidationError(
            f"the LDP square capacity (Eq. 49) overflows at alpha={alpha}, "
            f"gamma_th={gamma_th}",
            code=CODE_NOT_FINITE,
        )
    # An underflowed product makes ln(1 + 1/x) exceed any gamma_eps, and
    # the quotient can round to 0: one receiver still fits.
    return max(1, int(np.ceil(gamma_eps / denom)))


def ldp_approximation_ratio(g_l: int) -> float:
    """Thm 4.2: LDP is within factor ``16 * g(L)`` of the optimum."""
    if g_l < 1:
        raise ValueError("g(L) must be >= 1 for a non-empty link set")
    return 16.0 * g_l


def rle_c1(alpha: float, gamma_th: float, gamma_eps: float, c2: float) -> float:
    """RLE's elimination radius factor ``c1`` (Eq. 59).

    ``c1 = sqrt(2) * (12 * zeta(alpha-1) * gamma_th
           / (gamma_eps * (1 - c2)))^(1/alpha) + 1``.
    """
    _check_alpha(alpha)
    check_positive(gamma_th, "gamma_th")
    check_positive(gamma_eps, "gamma_eps")
    check_probability(c2, "c2")
    try:
        inner = 12.0 * riemann_zeta(alpha - 1.0) * gamma_th / (gamma_eps * (1.0 - c2))
    except ZeroDivisionError:  # gamma_eps * (1 - c2) underflows to 0
        inner = math.inf
    c1 = float(np.sqrt(2.0) * inner ** (1.0 / alpha) + 1.0)
    # The quotient also passes the float range at gamma_th near 1e305, or
    # over a subnormal gamma_eps * (1 - c2): no finite radius either way.
    if not math.isfinite(c1):
        raise ValidationError(
            f"the RLE radius factor c1 (Eq. 59) overflows at gamma_th={gamma_th}, "
            f"gamma_eps={gamma_eps}, c2={c2}",
            code=CODE_NOT_FINITE,
            param="c1",
        )
    return c1


def rle_approximation_ratio(alpha: float, eps: float, gamma_th: float, c2: float) -> float:
    """Thm 4.4: RLE is within ``3^alpha * 5 * eps / (c2 (1-eps) gamma_th) + 1``
    of the optimum (uniform rates)."""
    _check_alpha(alpha)
    check_probability(eps, "eps")
    check_positive(gamma_th, "gamma_th")
    check_probability(c2, "c2")
    try:
        return float(3.0**alpha * 5.0 * eps / (c2 * (1.0 - eps) * gamma_th) + 1.0)
    except (OverflowError, ZeroDivisionError):
        # 3^alpha past the float range, or a denominator that underflows
        # to 0: no finite bound.
        return math.inf


def ldp_ring_interference_bound(
    alpha: float,
    gamma_th: float,
    beta: float,
    *,
    n_rings: int = 10_000,
    worst_case_geometry: bool = False,
) -> float:
    """Numeric ring sum from Thm 4.1's feasibility proof.

    With the paper's accounting (same-colour squares at ring ``q`` hold
    at most ``8q`` interferers at normalised distance ``2 q beta - 1``):

        ``sum_q 8 q gamma_th / (2 q beta - 1)^alpha``

    With ``worst_case_geometry=True`` the distance is the rigorous
    corner-to-corner minimum ``(2q - 1) beta - 1`` instead — the paper's
    proof silently uses centre spacing; the rigorous variant is what
    :func:`ldp_rigorous_beta` sizes squares against.
    """
    _check_alpha(alpha)
    q = np.arange(1, n_rings + 1, dtype=float)
    if worst_case_geometry:
        dist = (2.0 * q - 1.0) * beta - 1.0
    else:
        dist = 2.0 * q * beta - 1.0
    if np.any(dist <= 0):
        raise ValueError("beta too small: nonpositive separation in ring sum")
    # Far rings' terms underflow to 0.  An extreme alpha or gamma_th
    # makes the sum inf or nan, which the callers report as an overflow.
    with np.errstate(all="ignore"):
        return float(np.sum(8.0 * q * gamma_th / dist**alpha))


def ldp_rigorous_beta(
    alpha: float,
    gamma_th: float,
    gamma_eps: float,
    *,
    tol: float = 1e-10,
) -> float:
    """Smallest ``beta`` whose *worst-case-geometry* ring sum fits ``gamma_eps``.

    The paper's Eq. (37) bounds interferer distance by same-colour
    square *spacing* ``2 q beta_k``; the true minimum between points of
    those squares is ``(2q - 1) beta_k``.  This solver (bisection on the
    monotone ring sum) returns a square-size factor that restores a
    rigorous feasibility certificate for any ``alpha > 2``; LDP exposes
    it via ``rigorous=True``.
    """
    _check_alpha(alpha)
    check_positive(gamma_th, "gamma_th")
    check_positive(gamma_eps, "gamma_eps")

    def total(beta: float) -> float:
        return ldp_ring_interference_bound(
            alpha, gamma_th, beta, worst_case_geometry=True
        )

    lo = 1.0 + 1e-6  # just above where the q=1 separation hits zero
    hi = max(4.0, ldp_beta(alpha, gamma_th, gamma_eps))
    while total(hi) > gamma_eps:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket rigorous beta")
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if total(mid) > gamma_eps:
            lo = mid
        else:
            hi = mid
    return float(hi)


def rle_ring_interference_bound(
    alpha: float,
    gamma_th: float,
    c1: float,
    *,
    n_rings: int = 10_000,
) -> float:
    """Numeric ring sum from Thm 4.3 (normalised by ``d_ii^alpha``).

    ``sum_q 4 (2q + 1) gamma_th / (q * chi)^alpha`` with
    ``chi = (c1 - 1) / sqrt(2)``; the proof upper-bounds it by
    ``12 chi^-alpha zeta(alpha - 1) gamma_th`` which ``c1`` (Eq. 59)
    makes equal ``(1 - c2) gamma_eps``.
    """
    _check_alpha(alpha)
    if c1 <= 1.0:
        raise ValueError("c1 must be > 1")
    chi = (c1 - 1.0) / np.sqrt(2.0)
    q = np.arange(1, n_rings + 1, dtype=float)
    return float(np.sum(4.0 * (2.0 * q + 1.0) * gamma_th / (q * chi) ** alpha))


def interferer_count_bound(alpha: float, eps: float, gamma_th: float, k: float) -> float:
    """Lemma 4.2: in any feasible schedule, at most
    ``(e^gamma_eps - 1)/gamma_th * (1 + k)^alpha`` senders lie within
    ``k * d_ii`` of an active sender ``s_i``.

    (Note ``e^gamma_eps - 1 = eps / (1 - eps)``.)
    """
    check_probability(eps, "eps")
    check_positive(gamma_th, "gamma_th")
    if k < 0:
        raise ValueError("k must be >= 0")
    return float(eps / ((1.0 - eps) * gamma_th) * (1.0 + k) ** alpha)
