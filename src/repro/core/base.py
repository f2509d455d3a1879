"""Scheduler protocol and registry.

A *scheduler* is any callable ``(problem: FadingRLS, **kwargs) ->
Schedule``.  The registry gives experiments and benchmarks a uniform way
to sweep over algorithms by name; each algorithm module registers itself
at import time.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List

from repro.core.schedule import Schedule

SchedulerFn = Callable[..., Schedule]


class SchedulerError(RuntimeError):
    """Raised when a scheduler cannot run on the given instance
    (e.g. RLE on non-uniform rates with ``strict=True``)."""


_REGISTRY: Dict[str, SchedulerFn] = {}


def register_scheduler(name: str, fn: SchedulerFn | None = None):
    """Register a scheduler under ``name``.

    Usable as a decorator (``@register_scheduler("ldp")``) or directly
    (``register_scheduler("ldp", ldp_schedule)``).  Re-registration of
    the same name raises — silent replacement has bitten every plugin
    registry ever written.
    """

    def _register(f: SchedulerFn) -> SchedulerFn:
        if name in _REGISTRY and _REGISTRY[name] is not f:
            raise ValueError(f"scheduler {name!r} is already registered")
        _REGISTRY[name] = f
        return f

    if fn is None:
        return _register
    return _register(fn)


def get_scheduler(name: str) -> SchedulerFn:
    """Look up a scheduler by registry name."""
    _ensure_builtin_schedulers()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def takes_seed(fn: SchedulerFn) -> bool:
    """Does the scheduler take a ``seed`` keyword?

    Such a scheduler draws fresh OS entropy when it gets no seed, so a
    caller that wants reproducible runs passes one whenever this holds.
    """
    return "seed" in inspect.signature(fn).parameters


def list_schedulers() -> List[str]:
    """Sorted names of all registered schedulers."""
    _ensure_builtin_schedulers()
    return sorted(_REGISTRY)


def _ensure_builtin_schedulers() -> None:
    """Import the algorithm modules so their registrations run.

    Local import breaks the circular dependency (algorithm modules
    import :func:`register_scheduler` from here).
    """
    import repro.core.baselines  # noqa: F401
    import repro.core.dls  # noqa: F401
    import repro.core.exact  # noqa: F401
    import repro.core.ldp  # noqa: F401
    import repro.core.localsearch  # noqa: F401
    import repro.core.rle  # noqa: F401
