"""Exact (optimal) solvers for Fading-R-LS.

Fading-R-LS is NP-hard (Thm 3.2), so these are exponential-time tools
for *small* instances, used to measure how close LDP/RLE land to the
optimum (ablation A3):

- :func:`brute_force_schedule` — enumerate all ``2^N`` subsets
  (``N <= 22`` guarded);
- :func:`branch_and_bound_schedule` — depth-first search exploiting
  that feasibility is *hereditary* (interference only grows with the
  active set, so an infeasible partial set can be pruned) with a
  remaining-rate upper bound;
- :func:`milp_schedule` — the Eq. 20-22 program handed to
  ``scipy.optimize.milp`` (HiGHS).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import register_scheduler
from repro.core.ilp import build_ilp
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule

BRUTE_FORCE_LIMIT = 22


@register_scheduler("brute_force")
def brute_force_schedule(problem: FadingRLS, *, limit: int = BRUTE_FORCE_LIMIT) -> Schedule:
    """Optimal schedule by exhaustive subset enumeration.

    Guarded at ``limit`` links (default 22, ~4M subsets); raises above.
    Iterates subsets in Gray-code-free plain order but keeps incremental
    cost low by testing feasibility on the subset's own sub-matrix.
    """
    n = problem.n_links
    if n > limit:
        raise ValueError(
            f"brute force on {n} links would enumerate 2^{n} subsets; "
            f"limit is {limit} (raise `limit` explicitly if you mean it)"
        )
    if n == 0:
        return Schedule.empty("brute_force")
    f = problem.interference_matrix()
    rates = problem.links.rates
    budgets = problem.effective_budgets()
    best_idx = np.zeros(0, dtype=np.int64)
    best_rate = 0.0
    n_feasible = 0
    for bits in range(1, 1 << n):
        idx = np.array([i for i in range(n) if bits >> i & 1], dtype=np.int64)
        sub = f[np.ix_(idx, idx)]
        if np.all(sub.sum(axis=0) <= budgets[idx] + 1e-12):
            n_feasible += 1
            rate = float(rates[idx].sum())
            if rate > best_rate:
                best_rate = rate
                best_idx = idx
    return Schedule(
        active=best_idx,
        algorithm="brute_force",
        diagnostics={"n_subsets": (1 << n) - 1, "n_feasible": n_feasible, "optimum": best_rate},
    )


@register_scheduler("branch_and_bound")
def branch_and_bound_schedule(problem: FadingRLS) -> Schedule:
    """Optimal schedule by branch-and-bound.

    Links are branched in descending-rate order.  Invariants:

    - a node carries the accumulated interference of its chosen set on
      *every* receiver, so the include-branch feasibility check is two
      vectorised comparisons;
    - feasibility is hereditary, so infeasible include-branches are
      pruned outright;
    - the fractional bound is simply ``chosen + remaining`` total rate
      (rates are all positive), fathoming nodes that cannot beat the
      incumbent.
    """
    n = problem.n_links
    if n == 0:
        return Schedule.empty("branch_and_bound")
    f = problem.interference_matrix()
    rates = problem.links.rates
    budgets = problem.effective_budgets() + 1e-12

    order = np.argsort(-rates, kind="stable")
    f_ord = f[np.ix_(order, order)]
    r_ord = rates[order]
    b_ord = budgets[order]
    # suffix_rates[k] = total rate of links order[k:].
    suffix_rates = np.concatenate([np.cumsum(r_ord[::-1])[::-1], [0.0]])

    best_rate = 0.0
    best_set: list[int] = []
    nodes_visited = 0

    # Iterative DFS: stack entries are (depth, chosen-list, accumulated
    # interference vector, chosen_rate).  Accumulation is in the
    # reordered index space.
    stack = [(0, [], np.zeros(n), 0.0)]
    while stack:
        depth, chosen, acc, chosen_rate = stack.pop()
        nodes_visited += 1
        if chosen_rate > best_rate:
            best_rate = chosen_rate
            best_set = chosen
        if depth == n:
            continue
        if chosen_rate + suffix_rates[depth] <= best_rate:
            continue  # fathomed: cannot beat incumbent
        i = depth
        # Exclude branch (pushed first so include is explored first:
        # good incumbents early tighten the bound).
        stack.append((depth + 1, chosen, acc, chosen_rate))
        # Include branch, if it stays feasible.
        if acc[i] <= b_ord[i]:
            new_acc = acc + f_ord[i, :]
            members = chosen + [i]
            if np.all(new_acc[members] <= b_ord[members]):
                stack.append((depth + 1, members, new_acc, chosen_rate + float(r_ord[i])))

    active = np.sort(order[np.array(best_set, dtype=np.int64)]) if best_set else np.zeros(0, dtype=np.int64)
    return Schedule(
        active=active,
        algorithm="branch_and_bound",
        diagnostics={"nodes_visited": nodes_visited, "optimum": best_rate},
    )


@register_scheduler("milp")
def milp_schedule(problem: FadingRLS, *, time_limit: float | None = None) -> Schedule:
    """Optimal schedule via ``scipy.optimize.milp`` on the Eq. 20-22 program.

    Raises :class:`RuntimeError` when HiGHS reports anything but
    success (``x = 0`` is always feasible, so failures mean limits, not
    genuine infeasibility).
    """
    from scipy.optimize import LinearConstraint, milp  # only the ILP solvers load SciPy

    n = problem.n_links
    if n == 0:
        return Schedule.empty("milp")
    data = build_ilp(problem)
    constraints = LinearConstraint(
        data.constraint_matrix, ub=data.upper_bounds
    )
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = milp(
        c=-data.objective,  # milp minimises
        constraints=constraints,
        integrality=np.ones(n),
        bounds=(0, 1),
        options=options,
    )
    if not res.success:
        raise RuntimeError(f"MILP solver failed: {res.message}")
    x = np.round(res.x).astype(np.int64)
    active = np.flatnonzero(x == 1)
    return Schedule(
        active=active,
        algorithm="milp",
        diagnostics={"optimum": float(data.objective @ x), "mip_gap": float(res.mip_gap or 0.0)},
    )
