"""Local-search improvement of feasible schedules.

Any feasible schedule can be polished: try to *add* unscheduled links,
and try to *swap out* one scheduled link for two or more unscheduled
ones (rate-weighted).  Both moves preserve feasibility by construction,
so the result dominates the input — useful as a post-pass on LDP/RLE
(whose conservative constants leave budget on the table) and as a
strong heuristic reference in the approximation-quality ablations.

Moves:

- **add**: insert any link whose own budget and the members' budgets
  survive (the greedy closure);
- **1-out / k-in swap**: remove one member, then greedily add from the
  non-members (including the removed link's own slot budget freed at
  other receivers); keep the swap iff total rate strictly improves.

The search runs moves to a fixed point (no improving move), which
terminates because total scheduled rate strictly increases and is
bounded by the instance total.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import register_scheduler
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.utils.rng import SeedLike, as_rng


def _greedy_close(
    problem: FadingRLS,
    member: np.ndarray,
    accumulated: np.ndarray,
    order: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Add links in ``order`` while feasibility survives (in place)."""
    f = problem.interference_matrix()
    budgets = problem.effective_budgets()
    for i in order:
        i = int(i)
        if member[i] or accumulated[i] > budgets[i]:
            continue
        new_acc = accumulated + f[i, :]
        if np.any(new_acc[member] > budgets[member]):
            continue
        member[i] = True
        accumulated = new_acc
    return member, accumulated


def improve_schedule(
    problem: FadingRLS,
    schedule: Schedule | np.ndarray,
    *,
    max_rounds: int = 50,
    seed: SeedLike = None,
) -> Schedule:
    """Run add/swap local search from a feasible starting schedule.

    Raises ``ValueError`` if the start is infeasible (local search
    preserves feasibility; it cannot repair).  The output's total rate
    is >= the input's, and no single add or 1-out swap improves it
    further.
    """
    active = schedule.active if isinstance(schedule, Schedule) else np.asarray(schedule)
    if not problem.is_feasible(active):
        raise ValueError("local search requires a feasible starting schedule")
    n = problem.n_links
    f = problem.interference_matrix()
    rates = problem.links.rates
    rng = as_rng(seed)

    member = problem.active_mask(active)
    accumulated = member.astype(float) @ f

    # Candidate order: by descending rate with random tie-breaking so
    # repeated calls explore different plateaus.
    base_order = np.lexsort((rng.permutation(n), -rates))

    member, accumulated = _greedy_close(problem, member, accumulated, base_order)
    rounds = 0
    swaps = 0
    for rounds in range(1, max_rounds + 1):
        improved = False
        current_rate = float(rates[member].sum())
        for out in np.flatnonzero(member):
            trial_member = member.copy()
            trial_member[out] = False
            trial_acc = accumulated - f[out, :]
            trial_member, trial_acc = _greedy_close(
                problem, trial_member, trial_acc, base_order
            )
            trial_rate = float(rates[trial_member].sum())
            if trial_rate > current_rate + 1e-12:
                member, accumulated = trial_member, trial_acc
                current_rate = trial_rate
                improved = True
                swaps += 1
        if not improved:
            break

    result = Schedule(
        active=np.flatnonzero(member),
        algorithm="local_search",
        diagnostics={
            "rounds": rounds,
            "swaps": swaps,
            "start_algorithm": schedule.algorithm if isinstance(schedule, Schedule) else "raw",
        },
    )
    return result


@register_scheduler("local_search")
def local_search_schedule(
    problem: FadingRLS,
    *,
    start: Optional[str] = "greedy",
    seed: SeedLike = None,
    **start_kwargs,
) -> Schedule:
    """Scheduler facade: start from a registered scheduler's output and
    locally improve it.  ``start=None`` starts from the empty schedule
    (pure local search)."""
    from repro.core.base import get_scheduler, takes_seed

    if start is None:
        initial = Schedule.empty("empty")
    else:
        fn = get_scheduler(start)
        if takes_seed(fn):
            start_kwargs.setdefault("seed", seed)
        initial = fn(problem, **start_kwargs)
    return improve_schedule(problem, initial, seed=seed)
