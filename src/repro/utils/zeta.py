"""Riemann zeta evaluation and tail bounds.

The paper's geometric constants — the LDP square-size factor ``beta``
(Eq. 37) and the RLE elimination radius factor ``c1`` (Eq. 59) — both
contain ``zeta(alpha - 1)``, which converges for path-loss exponents
``alpha > 2``.  :func:`riemann_zeta` is a statement-by-statement
transcription of the Cephes Hurwitz ``zeta(x, q)`` at ``q = 1``, the
routine :func:`scipy.special.zeta` evaluates, so every bit of ``beta``
and ``c1`` is SciPy's without importing SciPy;
``tests/test_utils_zeta.py`` checks it against ``scipy.special.zeta``
for exact equality.  The module also provides the partial-sum tail
bound used in the feasibility proofs (Thm 4.1 / 4.3), which is handy
for unit-testing the proofs' summation arguments numerically.
"""

from __future__ import annotations

import numpy as np

#: Cephes' machine epsilon, 2**-53: the direct sum and the
#: Euler-Maclaurin tail stop once a term falls below it relative to the sum.
_MACHEP = 1.11022302462515654042e-16
#: Cephes' Euler-Maclaurin denominators, (2k)! / B_2k for k = 1 .. 12.
_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)


def riemann_zeta(s: float) -> float:
    """Return ``zeta(s)`` for real ``s > 1``.

    Sums ``k^-s`` directly for ``k <= 10`` (fewer when the terms stop
    mattering), then adds the Euler-Maclaurin tail, in exactly the
    order of operations of Cephes ``zeta(x, 1)``.

    Raises
    ------
    ValueError
        If ``s <= 1`` (the series diverges; in the paper this would mean
        ``alpha <= 2``, outside the assumed regime).
    """
    x = float(s)
    if not x > 1.0:
        raise ValueError(f"zeta(s) requires s > 1 for convergence, got s={x}")
    # Cephes' names from here on: x is the argument, s the running sum.
    s = 1.0
    a = 1.0
    i = 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for denominator in _A:
        a *= x + k
        b /= w
        t = a * b / denominator
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def zeta_partial_sum(s: float, n_terms: int) -> float:
    """Partial sum ``sum_{q=1}^{n} q^-s`` (vectorised)."""
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    if n_terms == 0:
        return 0.0
    q = np.arange(1, n_terms + 1, dtype=float)
    return float(np.sum(q**-s))


def zeta_tail_bound(s: float, start: int) -> float:
    """Upper bound on the tail ``sum_{q=start}^{inf} q^-s`` via integral test.

    ``tail <= start^-s + integral_start^inf x^-s dx`` for ``s > 1``.
    The proofs of Thm 4.1 and 4.3 bound ring-by-ring interference with
    exactly this kind of tail; tests use it to confirm the ring sums the
    algorithms rely on really are below ``gamma_eps``.
    """
    s = float(s)
    if not s > 1.0:
        raise ValueError(f"tail bound requires s > 1, got s={s}")
    if start < 1:
        raise ValueError("start must be >= 1")
    return float(start ** (-s) + start ** (1.0 - s) / (s - 1.0))
