"""The numpy compute kernels and the one backend that dispatches them.

See :mod:`repro.backend.kernels` for the kernels and
:mod:`repro.backend.base` for :func:`get_active`, the call-time seam the
hot path looks its kernels up through.
"""

from repro.backend.base import ComputeBackend, get_active  # noqa: F401

__all__ = ["ComputeBackend", "get_active"]
