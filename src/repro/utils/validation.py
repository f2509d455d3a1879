"""Argument-validation helpers.

Small, explicit checks used at the public API boundary.  Internal hot
loops skip them (per the optimization guide: validate once at the edge,
keep kernels branch-free).

Failures raise :class:`ValidationError`, a ``ValueError`` subclass that
carries a stable machine-readable ``code`` and the offending parameter
``param`` — callers that need to *react* to a specific failure (the
verification harness, structured audits) match on the code instead of
parsing the message.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

#: Stable reason codes for validation failures.
CODE_REQUIREMENT = "requirement-failed"
CODE_NOT_POSITIVE = "not-positive"
CODE_NEGATIVE = "negative"
CODE_NOT_PROBABILITY = "not-a-probability"
CODE_OUT_OF_RANGE = "out-of-range"
CODE_NOT_FINITE = "not-finite"
CODE_WRONG_NDIM = "wrong-ndim"
CODE_WRONG_AXIS = "wrong-axis-size"


class ValidationError(ValueError):
    """A failed argument check with a machine-readable reason.

    Attributes
    ----------
    code:
        Stable reason-code string (one of the ``CODE_*`` constants).
    param:
        Name of the offending parameter, when known.
    """

    def __init__(
        self, message: str, *, code: str = CODE_REQUIREMENT, param: Optional[str] = None
    ):
        # ``code`` has a default so that unpickling (``cls(message)``
        # plus the instance dict) works: a check that fails in a worker
        # process reaches the parent with its code and param intact.
        super().__init__(message)
        self.code = code
        self.param = param


def require(condition: bool, message: str, *, code: str = CODE_REQUIREMENT) -> None:
    """Raise :class:`ValidationError` when ``condition`` is false."""
    if not condition:
        raise ValidationError(message, code=code)


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that a scalar is positive (or non-negative) and finite.

    NaN fails the sign check (``not-positive`` / ``negative``); ``+inf``
    passes it and is rejected as ``not-finite``.
    """
    v = float(value)
    if strict and not v > 0:
        raise ValidationError(
            f"{name} must be > 0, got {value!r}", code=CODE_NOT_POSITIVE, param=name
        )
    if not strict and not v >= 0:
        raise ValidationError(
            f"{name} must be >= 0, got {value!r}", code=CODE_NEGATIVE, param=name
        )
    if v == math.inf:
        raise ValidationError(
            f"{name} must be finite, got {value!r}", code=CODE_NOT_FINITE, param=name
        )
    return v


def check_count(value: int, name: str, *, minimum: int = 0, note: str = "") -> int:
    """Validate that an integer count is at least ``minimum`` (0 or 1).

    ``note`` explains a special value in the message, e.g. ``"0 = skip"``.
    """
    if not value >= minimum:
        hint = f" ({note})" if note else ""
        raise ValidationError(
            f"{name} must be >= {minimum}{hint}, got {value}",
            code=CODE_NEGATIVE if minimum == 0 else CODE_NOT_POSITIVE,
            param=name,
        )
    return value


def check_interval(
    value: float,
    name: str,
    lo: float,
    hi: float,
    *,
    lo_open: bool = False,
    hi_open: bool = False,
    code: str = CODE_OUT_OF_RANGE,
) -> float:
    """Validate that a scalar lies in the interval from ``lo`` to ``hi``.

    Each end is closed unless ``lo_open`` / ``hi_open``; NaN is outside
    every interval.
    """
    v = float(value)
    above = v > lo if lo_open else v >= lo
    below = v < hi if hi_open else v <= hi
    if not (above and below):
        shown = f"{'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"
        raise ValidationError(
            f"{name} must be in {shown}, got {value!r}", code=code, param=name
        )
    return v


def check_probability(value: float, name: str, *, open_interval: bool = True) -> float:
    """Validate that a scalar is a probability.

    With ``open_interval`` (the default) the value must lie strictly in
    ``(0, 1)`` — the paper's acceptable error rate ``eps`` is meaningless
    at the endpoints (``eps = 0`` makes every schedule infeasible under
    fading; ``eps = 1`` removes the constraint entirely).
    """
    return check_interval(
        value,
        name,
        0.0,
        1.0,
        lo_open=open_interval,
        hi_open=open_interval,
        code=CODE_NOT_PROBABILITY,
    )


def check_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """Validate that an array contains no NaN/inf."""
    a = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValidationError(
            f"{name} must be finite, found NaN or inf",
            code=CODE_NOT_FINITE,
            param=name,
        )
    return a


def check_shape(arr: np.ndarray, shape: Sequence[Any], name: str) -> np.ndarray:
    """Validate an array's shape.

    ``shape`` entries may be ``None`` to mean "any size along this
    axis"; the number of dimensions must match exactly.
    """
    a = np.asarray(arr)
    if a.ndim != len(shape):
        raise ValidationError(
            f"{name} must have {len(shape)} dims, got {a.ndim}",
            code=CODE_WRONG_NDIM,
            param=name,
        )
    for axis, want in enumerate(shape):
        if want is not None and a.shape[axis] != want:
            raise ValidationError(
                f"{name} has shape {a.shape}, expected {tuple(shape)} "
                f"(mismatch on axis {axis})",
                code=CODE_WRONG_AXIS,
                param=name,
            )
    return a
