"""Fault activation and the injection point.

Activation is an **environment variable** (:data:`ENV_PLAN` holds the
plan's JSON), deliberately: the executor's pool workers inherit the
parent's environment at spawn time, so a plan activated before the pool
exists is visible inside every worker with no pickling or configuration
plumbing.  :data:`ENV_PARENT` records the activating process's pid so
process-killing faults can be downgraded to plain exceptions when they
would otherwise take down the coordinator itself.

:func:`maybe_inject` is called by the executor
(:func:`repro.sim.resilient.resilient_map`) with the unit's key and
0-based attempt number, *before* each try of the unit body runs, with
or without a retry policy.  Faulted attempts therefore
consume no randomness and record no metrics — retrying a unit re-runs
exactly the computation the fault pre-empted.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.faults.plan import FaultPlan

#: Environment variable carrying the active plan's JSON.
ENV_PLAN = "REPRO_FAULT_PLAN"
#: Environment variable carrying the activating (parent) process's pid.
ENV_PARENT = "REPRO_FAULT_PARENT"

#: ``os._exit`` status used by ``die`` faults — distinctive in worker
#: post-mortems, never seen by callers (the pool reports the death as a
#: ``BrokenProcessPool``).
DIE_EXIT_CODE = 86

# Parse cache: (raw env string, parsed plan).  Plans are immutable and
# the env var rarely changes, so re-parsing per call would be pure waste.
_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


class InjectedFault(RuntimeError):
    """An artificially injected unit failure (``crash``/``hang`` kinds)."""

    def __init__(self, key: str, kind: str):
        super().__init__(f"injected {kind} fault for unit {key!r}")
        self.key = key
        self.kind = kind

    def __reduce__(self):
        # Rebuild from (key, kind): the default exception pickling passes
        # only the message, so a fault raised in a pool worker could not
        # be unpickled in the parent and broke the whole pool instead.
        return (type(self), (self.key, self.kind))


@dataclass(frozen=True)
class PoisonResult:
    """The corrupt value a ``poison`` fault returns in place of a result.

    Picklable so it can cross the process boundary like a real result;
    the executor's validator rejects it and schedules a retry.
    """

    key: str
    attempt: int


def activate(plan: FaultPlan) -> None:
    """Arm ``plan`` for this process and all future child processes."""
    os.environ[ENV_PLAN] = plan.to_json()
    os.environ[ENV_PARENT] = str(os.getpid())


def deactivate() -> None:
    """Disarm any active plan (idempotent)."""
    os.environ.pop(ENV_PLAN, None)
    os.environ.pop(ENV_PARENT, None)


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: activate ``plan``, restore the previous state after.

    The restore puts back whatever plan (or absence) was active before,
    so chaos tests nest and clean up even on failure.
    """
    previous = os.environ.get(ENV_PLAN)
    previous_parent = os.environ.get(ENV_PARENT)
    activate(plan)
    try:
        yield plan
    finally:
        if previous is None:
            deactivate()
        else:
            os.environ[ENV_PLAN] = previous
            if previous_parent is not None:
                os.environ[ENV_PARENT] = previous_parent


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or ``None`` (cached per env value)."""
    global _cache
    raw = os.environ.get(ENV_PLAN)
    if raw is None:
        return None
    cached_raw, cached_plan = _cache
    if raw == cached_raw:
        return cached_plan
    plan = FaultPlan.from_json(raw)
    _cache = (raw, plan)
    return plan


def in_activating_process() -> bool:
    """Whether this process is the one that activated the plan."""
    return os.environ.get(ENV_PARENT) == str(os.getpid())


def maybe_inject(key: str, attempt: int) -> Optional[PoisonResult]:
    """Fire the fault armed for ``(key, attempt)``, if any.

    Returns ``None`` when no fault fires (the caller proceeds with the
    real computation) or a :class:`PoisonResult` the caller must return
    in place of the real result.  ``crash``/``hang`` raise
    :class:`InjectedFault`, ``oom`` raises ``MemoryError``, and ``die``
    kills the process — unless this *is* the activating process, where
    dying would destroy the coordinator, so it downgrades to ``crash``.
    """
    plan = active_plan()
    if plan is None:
        return None
    spec = plan.spec_for(key)
    if spec is None or not spec.fires(attempt):
        return None
    if spec.kind == "poison":
        return PoisonResult(key=key, attempt=attempt)
    if spec.kind == "oom":
        raise MemoryError(f"injected memory blowout for unit {key!r} (attempt {attempt})")
    if spec.kind == "hang":
        time.sleep(spec.seconds)
        raise InjectedFault(key, "hang")
    if spec.kind == "die" and not in_activating_process():
        os._exit(DIE_EXIT_CODE)
    # "crash", or "die" downgraded inside the coordinating process.
    raise InjectedFault(key, spec.kind)
