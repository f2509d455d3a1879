"""Shared utilities: RNG plumbing, validation, and math constants.

These helpers are intentionally dependency-light; everything in
:mod:`repro` that needs a random stream or argument checking goes
through this package so behaviour (e.g. seeding discipline) is uniform.
"""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import (
    check_count,
    check_finite,
    check_interval,
    check_positive,
    check_probability,
    check_shape,
    require,
)
from repro.utils.zeta import riemann_zeta, zeta_tail_bound

__all__ = [
    "as_rng",
    "spawn_rngs",
    "check_count",
    "check_finite",
    "check_interval",
    "check_positive",
    "check_probability",
    "check_shape",
    "require",
    "riemann_zeta",
    "zeta_tail_bound",
]
