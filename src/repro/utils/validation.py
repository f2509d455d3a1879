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

    def __init__(self, message: str, *, code: str, param: Optional[str] = None):
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


def check_probability(value: float, name: str, *, open_interval: bool = True) -> float:
    """Validate that a scalar is a probability.

    With ``open_interval`` (the default) the value must lie strictly in
    ``(0, 1)`` — the paper's acceptable error rate ``eps`` is meaningless
    at the endpoints (``eps = 0`` makes every schedule infeasible under
    fading; ``eps = 1`` removes the constraint entirely).
    """
    v = float(value)
    if open_interval:
        if not 0.0 < v < 1.0:
            raise ValidationError(
                f"{name} must be in (0, 1), got {value!r}",
                code=CODE_NOT_PROBABILITY,
                param=name,
            )
    else:
        if not 0.0 <= v <= 1.0:
            raise ValidationError(
                f"{name} must be in [0, 1], got {value!r}",
                code=CODE_NOT_PROBABILITY,
                param=name,
            )
    return v


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
