"""Power control extensions.

The paper's related work (Section VI-B, refs [24]-[26]) studies *joint*
link scheduling and power control; the paper itself fixes uniform
transmit power.  This module adds the natural power-control layer on
top of the generalised model (per-link ``powers`` on
:class:`~repro.core.problem.FadingRLS`):

- :func:`distance_proportional_powers` — the classic
  ``P_j = c * d_jj^alpha`` policy that equalises mean received signal
  power across links;
- :func:`min_uniform_power` — smallest uniform power keeping every
  link serviceable under ambient noise;
- :func:`min_power_assignment` — a Foschini-Miljanic-style standard
  interference-function iteration in the Rayleigh log-domain: given a
  target active set, find (near-)minimal per-link powers under which
  the set stays fading-feasible, or report infeasibility;
- :func:`joint_power_schedule` — apply a power policy, then re-run any
  scheduler; the usual way power control buys throughput.

All of these respect the closed-form feasibility of Cor. 3.1 (with
noise factors), so results remain machine-checkable via
``problem.is_feasible``.

The experiment pipeline selects among them by **name**: the
:data:`POWER_POLICIES` registry (``uniform``,
``distance_proportional``, ``min_uniform``, ``foschini_miljanic``)
backs the ``power_policy`` field of
:class:`~repro.experiments.config.ExperimentConfig` and the
``--power-policy`` CLI flag; :func:`apply_power_policy` and
:func:`run_scheduler_with_power` are the two entry points the
executors call.  The first three policies re-power the instance
*before* scheduling; ``foschini_miljanic`` schedules first and then
re-powers the admitted set via :func:`min_power_assignment` (keeping
the original powers when the iteration reports infeasibility), so it
composes with any scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.network.links import LinkSet
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.validation import ValidationError


def distance_proportional_powers(
    links: LinkSet, alpha: float, *, target_received: float = 1.0
) -> np.ndarray:
    """Powers ``P_j = target_received * d_jj^alpha``.

    Equalises every link's mean received *signal* power at
    ``target_received``, so long links stop being disadvantaged — the
    standard compensation policy.  Note it also makes long links
    louder interferers; whether it helps is workload-dependent (see the
    power-control example).
    """
    if target_received <= 0:
        raise ValueError("target_received must be > 0")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return target_received * links.lengths**alpha


def min_uniform_power(problem: FadingRLS, *, headroom: float = 0.5) -> float:
    """Smallest uniform power making every link serviceable under noise.

    Serviceability needs ``nu_j = gamma_th N0 d_jj^alpha / P < gamma_eps``;
    ``headroom`` in ``(0, 1)`` reserves ``(1 - headroom) * gamma_eps`` of
    each budget for interference (headroom = the fraction of the budget
    the noise may consume).

    Returns 0.0 when the problem has no noise (any power works).
    """
    if not 0.0 < headroom < 1.0:
        raise ValueError(f"headroom must be in (0, 1), got {headroom}")
    if problem.noise == 0.0:
        return 0.0
    if problem.n_links == 0:
        return 0.0
    worst = float(problem.links.lengths.max())
    return float(
        problem.gamma_th * problem.noise * worst**problem.alpha
        / (problem.gamma_eps * headroom)
    )


@dataclass(frozen=True)
class PowerAssignment:
    """Result of :func:`min_power_assignment`.

    ``feasible`` reports whether the iteration converged to a power
    vector under which the target set passes Cor. 3.1; ``powers`` holds
    the per-link powers (original powers where the link is inactive).
    """

    feasible: bool
    powers: np.ndarray
    iterations: int
    total_power: float


def _min_power_for_link(
    j_local: int,
    powers: np.ndarray,
    own: np.ndarray,
    sub_d: np.ndarray,
    problem: FadingRLS,
    p_max: float,
) -> float:
    """Bisection: smallest ``P_j`` satisfying receiver ``j``'s constraint
    with the other active powers fixed.

    The constraint ``sum_i log1p(gamma P_i d_ij^-a / (P_j d_jj^-a)) + nu_j
    <= gamma_eps`` is strictly decreasing in ``P_j``, so bisection on
    ``[p_lo, p_max]`` is exact.  Returns ``inf`` when even ``p_max``
    fails.
    """
    gamma = problem.gamma_th
    alpha = problem.alpha
    g_eps = problem.gamma_eps
    k = powers.shape[0]
    others = np.arange(k) != j_local
    d_own = own[j_local]

    def load(pj: float) -> float:
        mean_sig = pj * d_own**-alpha
        interf = gamma * (powers[others] * sub_d[others, j_local] ** -alpha) / mean_sig
        nu = gamma * problem.noise / mean_sig
        return float(np.log1p(interf).sum() + nu)

    if load(p_max) > g_eps:
        return np.inf
    lo, hi = 0.0, p_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0 or load(mid) > g_eps:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1.0):
            break
    return hi


def min_power_assignment(
    problem: FadingRLS,
    active,
    *,
    p_max: float = 1e6,
    max_iterations: int = 200,
    tol: float = 1e-9,
) -> PowerAssignment:
    """Near-minimal per-link powers keeping ``active`` fading-feasible.

    Asynchronous best-response iteration: repeatedly set each active
    link's power to the *minimum* satisfying its own Cor. 3.1 constraint
    given the others.  The update is a standard interference function
    (monotone and scalable in the power vector), so when a feasible
    power vector ``<= p_max`` exists the iteration converges to the
    componentwise-minimal one; otherwise some link's requirement
    escapes ``p_max`` and we report infeasibility.

    Links outside ``active`` keep their current powers (they do not
    transmit, so their values are irrelevant to the constraint).
    """
    mask = problem.active_mask(active)
    idx = np.flatnonzero(mask)
    base = problem.tx_powers().astype(float).copy()
    if idx.size == 0:
        return PowerAssignment(feasible=True, powers=base, iterations=0, total_power=0.0)
    d = problem.distances()
    sub_d = d[np.ix_(idx, idx)]
    own = np.diag(sub_d).copy()

    powers = np.full(idx.size, 1e-6)
    with span("powercontrol.iterate", k=int(idx.size)):
        for it in range(1, max_iterations + 1):
            prev = powers.copy()
            for j_local in range(idx.size):
                req = _min_power_for_link(j_local, powers, own, sub_d, problem, p_max)
                if not np.isfinite(req):
                    obs_metrics.inc("powercontrol.iterations", it)
                    return PowerAssignment(
                        feasible=False,
                        powers=base,
                        iterations=it,
                        total_power=float("inf"),
                    )
                powers[j_local] = req
            if np.max(np.abs(powers - prev)) <= tol * max(1.0, np.max(powers)):
                break
    obs_metrics.inc("powercontrol.iterations", it)

    out = base
    out[idx] = np.maximum(powers, 1e-300)
    candidate = problem.with_powers(out)
    feasible = candidate.is_feasible(idx, tol=1e-6)
    return PowerAssignment(
        feasible=bool(feasible),
        powers=out,
        iterations=it,
        total_power=float(powers.sum()),
    )


def joint_power_schedule(
    problem: FadingRLS,
    scheduler: Callable[..., Schedule],
    power_policy: Callable[[FadingRLS], np.ndarray],
    **scheduler_kwargs,
) -> tuple[Schedule, FadingRLS]:
    """Apply a power policy, then schedule under the new powers.

    Returns ``(schedule, powered_problem)`` so callers can verify and
    simulate against the instance the scheduler actually saw.
    """
    powers = np.asarray(power_policy(problem), dtype=float)
    powered = problem.with_powers(powers)
    return scheduler(powered, **scheduler_kwargs), powered


#: Named power policies selectable via config/CLI.  ``uniform`` is the
#: paper's setting (keep the instance's powers untouched);
#: ``distance_proportional`` and ``min_uniform`` re-power the instance
#: before scheduling; ``foschini_miljanic`` re-powers the *scheduled*
#: set afterwards (see :func:`run_scheduler_with_power`).
POWER_POLICIES: Tuple[str, ...] = (
    "uniform",
    "distance_proportional",
    "min_uniform",
    "foschini_miljanic",
)


def _check_policy(policy: str) -> str:
    if policy not in POWER_POLICIES:
        raise ValidationError(
            f"unknown power policy {policy!r}; registered policies: "
            f"{', '.join(POWER_POLICIES)}",
            param="power_policy",
        )
    return policy


def apply_power_policy(
    problem: FadingRLS,
    policy: str,
    *,
    active: Optional[np.ndarray] = None,
) -> FadingRLS:
    """Re-power ``problem`` according to a named policy.

    ``uniform`` returns the problem unchanged.  ``foschini_miljanic``
    needs a target set: with ``active`` it runs
    :func:`min_power_assignment` over that set and applies the powers
    only when the iteration certifies feasibility (else the original
    problem is returned — the conservative fallback); without ``active``
    it is a no-op, because the policy is defined relative to a schedule
    (:func:`run_scheduler_with_power` supplies one).
    """
    _check_policy(policy)
    if policy == "uniform":
        return problem
    if policy == "distance_proportional":
        return problem.with_powers(
            distance_proportional_powers(problem.links, problem.alpha)
        )
    if policy == "min_uniform":
        p = min_uniform_power(problem)
        if p <= 0.0:
            return problem
        return problem.with_powers(np.full(problem.n_links, p))
    # foschini_miljanic
    if active is None:
        return problem
    assignment = min_power_assignment(problem, active)
    if not assignment.feasible:
        return problem
    return problem.with_powers(assignment.powers)


def run_scheduler_with_power(
    problem: FadingRLS,
    scheduler: Callable[..., Schedule],
    policy: str,
    scheduler_kwargs: Optional[Dict] = None,
) -> Tuple[Schedule, FadingRLS]:
    """Run ``scheduler`` under a named power policy.

    Pre-scheduling policies (``uniform``, ``distance_proportional``,
    ``min_uniform``) re-power the instance first so the scheduler's own
    feasibility test sees the final powers.  ``foschini_miljanic``
    schedules on the base instance, then re-powers the admitted set
    (powers applied only if the iteration certifies feasibility).
    Returns ``(schedule, powered_problem)`` — simulate against the
    returned problem, which is what the admitted links actually
    transmit with.

    **Uniform-power schedulers.**  The paper's algorithms (``ldp``,
    ``rle``, ``approx_logn``, ``approx_diversity``) raise
    :class:`~repro.core.base.SchedulerError` on per-link powers — their
    theorems assume uniform power.  For those, a per-link policy falls
    back to certifying the schedule on the *original* instance and
    re-powering only the Monte-Carlo replay: the certificate keeps its
    published (Rayleigh + uniform-power) assumptions, and the replay
    measures how the schedule fares under the policy — the same
    conservative contract the channel laws follow (``docs/CHANNELS.md``).
    """
    _check_policy(policy)
    kwargs = scheduler_kwargs or {}
    if policy == "foschini_miljanic":
        schedule = scheduler(problem, **kwargs)
        powered = apply_power_policy(problem, policy, active=schedule.active)
        return schedule, powered
    powered = apply_power_policy(problem, policy)
    if powered is problem:
        return scheduler(problem, **kwargs), problem
    from repro.core.base import SchedulerError

    try:
        return scheduler(powered, **kwargs), powered
    except SchedulerError:
        return scheduler(problem, **kwargs), powered
