"""Verification harness: fuzzed scenarios x registered oracles.

:func:`run_verification` is the always-on oracle behind
``python -m repro verify`` and ``make verify-fuzz``: it streams
adversarial scenarios from :mod:`repro.verify.fuzz` and executes every
registered differential check and metamorphic relation on each, under
a **cell budget** (one cell = one (scenario, check) execution) and an
optional wall-clock budget.  The run is a pure function of
``(budget, seed, check selection)`` — CI reruns reproduce the exact
same cells — and returns a structured
:class:`~repro.verify.report.VerificationReport`.

:func:`verify_scenario` runs the oracles on a single (possibly
hand-built or deliberately faulted) scenario; the fault-injection tests
use it to prove the harness actually detects corruption.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.validation import ValidationError, check_count, check_positive
from repro.verify.differential import CheckFn, DIFFERENTIAL_CHECKS
from repro.verify.fuzz import FAMILIES, Scenario, make_scenario
from repro.verify.metamorphic import METAMORPHIC_RELATIONS

# Imported for their registration side-effects: the queue-stability
# relations (they pull in repro.workload), the channel-law oracles
# (they pull in repro.channel.laws) and the schedule-cache check (it
# pulls in repro.cache) live in their own modules but register into
# the same registries read above.
from repro.verify import cache  # noqa: F401  (registration import)
from repro.verify import channels  # noqa: F401  (registration import)
from repro.verify import service  # noqa: F401  (registration import)
from repro.verify import stability  # noqa: F401  (registration import)
from repro.verify.report import CheckOutcome, VerificationReport


def all_checks() -> Dict[str, CheckFn]:
    """Every registered oracle: differential checks + metamorphic relations.

    Name collisions across the two registries are a configuration bug
    and raise immediately.
    """
    merged: Dict[str, CheckFn] = dict(DIFFERENTIAL_CHECKS)
    for name, fn in METAMORPHIC_RELATIONS.items():
        if name in merged:
            raise ValueError(
                f"{name!r} is registered as both a differential check and "
                f"a metamorphic relation"
            )
        merged[name] = fn
    return merged


def resolve_checks(names: Optional[Iterable[str]] = None) -> Dict[str, CheckFn]:
    """Subset the merged registry by name (``None`` = everything).

    An unknown name raises :class:`ValidationError` (param ``check``),
    which ``repro verify --check`` reports as one line.
    """
    registry = all_checks()
    if names is None:
        return dict(sorted(registry.items()))
    selected: Dict[str, CheckFn] = {}
    for name in names:
        if name not in registry:
            raise ValidationError(
                f"unknown check {name!r}; available: {sorted(registry)}",
                param="check",
            )
        selected[name] = registry[name]
    return dict(sorted(selected.items()))


def verify_scenario(
    scenario: Scenario,
    *,
    checks: Optional[Iterable[str]] = None,
) -> List[CheckOutcome]:
    """Run the selected oracles on one scenario, in sorted-name order."""
    outcomes: List[CheckOutcome] = []
    for name, fn in resolve_checks(checks).items():
        t0 = time.perf_counter()
        with span("verify.cell", check=name, scenario=scenario.name):
            mismatches = tuple(fn(scenario))
        obs_metrics.inc("verify.checks_run")
        obs_metrics.inc("verify.mismatches", len(mismatches))
        outcomes.append(
            CheckOutcome(
                check=name,
                scenario=scenario.name,
                mismatches=mismatches,
                wall_seconds=time.perf_counter() - t0,
            )
        )
    return outcomes


def run_verification(
    budget: int = 200,
    *,
    seed: int = 0,
    checks: Optional[Iterable[str]] = None,
    families: tuple = FAMILIES,
    time_budget: Optional[float] = None,
) -> VerificationReport:
    """Run the oracle matrix over fuzzed scenarios under a cell budget.

    Parameters
    ----------
    budget:
        Maximum number of (scenario, check) cells to execute.  Scenarios
        are consumed in the deterministic fuzz order; a partially
        verified final scenario counts its executed cells only.
    seed:
        Root seed for the scenario stream (and all per-cell randomness).
    checks:
        Check-name subset (``None`` = all registered oracles).
    families:
        Scenario families to rotate through (default: all).
    time_budget:
        Optional wall-clock cap in seconds.  The harness stops *between*
        cells once exceeded, so the report never contains a half-run
        check; the cap is enforced on a best-effort basis for CI, not a
        hard real-time guarantee.

    Returns
    -------
    VerificationReport
        ``report.passed`` is the oracle verdict; ``report.summary()``
        names every failing check, scenario and reason code.
    """
    check_count(budget, "budget")
    if time_budget is not None:
        check_positive(time_budget, "time_budget", strict=False)
    selected = resolve_checks(checks)
    if not selected:
        raise ValueError("no checks selected")
    t_start = time.perf_counter()
    outcomes: List[CheckOutcome] = []
    cells = 0
    scenario_index = 0
    with span("verify.run", budget=budget, seed=seed):
        while cells < budget:
            family = families[scenario_index % len(families)]
            scenario = make_scenario(
                family, scenario_index // len(families), root_seed=seed
            )
            scenario_index += 1
            for name, fn in selected.items():
                if cells >= budget:
                    break
                if (
                    time_budget is not None
                    and time.perf_counter() - t_start > time_budget
                ):
                    cells = budget  # stop the outer loop too
                    break
                t0 = time.perf_counter()
                with span("verify.cell", check=name, scenario=scenario.name):
                    mismatches = tuple(fn(scenario))
                obs_metrics.inc("verify.checks_run")
                obs_metrics.inc("verify.mismatches", len(mismatches))
                outcomes.append(
                    CheckOutcome(
                        check=name,
                        scenario=scenario.name,
                        mismatches=mismatches,
                        wall_seconds=time.perf_counter() - t0,
                    )
                )
                cells += 1
    return VerificationReport(
        outcomes=tuple(outcomes),
        budget=budget,
        seed=seed,
        wall_seconds=time.perf_counter() - t_start,
    )
