"""LP relaxation of the Fading-R-LS ILP (Eq. 20-22).

Exact solvers stop scaling around N ~ 40; the LP relaxation (drop the
integrality constraint) still gives a *sound upper bound* on the
optimum at any size, so approximation quality can be measured on the
paper's 300-500-link workloads:

    ``rate(alg) <= OPT <= LP bound``.

Big-M relaxations are notoriously loose, so the bound is most useful on
dense instances (where the budget constraints bite); the ablation bench
reports both the bound and the trivial ``sum of rates`` cap for
context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ilp import build_ilp
from repro.core.problem import FadingRLS


@dataclass(frozen=True)
class RelaxationBound:
    """LP upper bound and the fractional solution behind it."""

    upper_bound: float
    fractional: np.ndarray
    trivial_bound: float  # sum of all rates

    @property
    def tightness(self) -> float:
        """LP bound as a fraction of the trivial bound (lower = tighter)."""
        if self.trivial_bound == 0:
            return 1.0
        return self.upper_bound / self.trivial_bound


def lp_upper_bound(problem: FadingRLS) -> RelaxationBound:
    """Solve the LP relaxation of Eq. 20-22 (HiGHS, integrality = 0).

    Returns the optimal objective (an upper bound on the ILP optimum)
    and the fractional ``x``.  Infeasibility cannot occur (``x = 0``
    satisfies every constraint).
    """
    from scipy.optimize import LinearConstraint, milp  # only the ILP solvers load SciPy

    n = problem.n_links
    if n == 0:
        return RelaxationBound(upper_bound=0.0, fractional=np.zeros(0), trivial_bound=0.0)
    data = build_ilp(problem)
    res = milp(
        c=-data.objective,
        constraints=LinearConstraint(data.constraint_matrix, ub=data.upper_bounds),
        integrality=np.zeros(n),
        bounds=(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"LP relaxation failed: {res.message}")
    return RelaxationBound(
        upper_bound=float(data.objective @ res.x),
        fractional=res.x.copy(),
        trivial_bound=float(problem.links.rates.sum()),
    )


def randomized_rounding(
    problem: FadingRLS,
    bound: RelaxationBound,
    *,
    n_samples: int = 50,
    seed=None,
) -> np.ndarray:
    """Feasible schedule from the fractional LP solution.

    Samples link subsets with inclusion probabilities ``x_i``, repairs
    each sample to feasibility by dropping the worst-loaded receivers,
    and keeps the best repaired sample.  A pragmatic rounding (no
    guarantee claimed) that often lands close to the greedy heuristics;
    returns the active index array.
    """
    from repro.utils.rng import as_rng

    rng = as_rng(seed)
    n = problem.n_links
    f = problem.interference_matrix()
    budgets = problem.effective_budgets()
    rates = problem.links.rates
    best_idx = np.zeros(0, dtype=np.int64)
    best_rate = 0.0
    for _ in range(max(1, n_samples)):
        member = rng.uniform(size=n) < bound.fractional
        # Repair: while some member receiver is overloaded, drop the
        # member with the worst (load - budget) excess.
        while True:
            acc = member.astype(float) @ f
            excess = acc - budgets
            bad = member & (excess > 1e-12)
            if not bad.any():
                break
            worst = np.flatnonzero(bad)[np.argmax(excess[bad])]
            member[worst] = False
        rate = float(rates[member].sum())
        if rate > best_rate:
            best_rate = rate
            best_idx = np.flatnonzero(member)
    return best_idx
