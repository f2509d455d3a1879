"""Reliability/throughput trade-off across the error allowance eps.

The paper fixes ``eps = 0.01``.  But eps is the knob that prices
fading resistance: a larger allowance inflates the interference budget
``gamma_eps = ln(1/(1-eps))`` (almost linearly), letting the
fading-resistant schedulers pack more links per slot at the cost of a
higher per-link failure probability.  This driver sweeps eps and
reports, per scheduler:

- scheduled links and raw scheduled rate,
- *expected goodput* ``sum lambda_j Pr(success_j)`` — the quantity a
  deployment actually cares about,
- Monte-Carlo failures.

The interesting output is the goodput-maximising eps, which is far
above the paper's conservative 0.01 on its own workload (see
``benchmarks/test_eps_tradeoff.py``).

Execution notes: the sweep is repetition-major — one work unit
generates a workload once and walks *all* eps values on it via
:meth:`FadingRLS.with_params`, which carries the cached O(N^2)
interference matrix across the eps-only changes.  Units fan out over
processes with ``n_jobs`` through
:func:`repro.sim.resilient.resilient_map` under the keys ``eps/<i>``
(results are bit-identical to the serial order for every value).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import FadingRLS
from repro.experiments.config import TopologyWorkload
from repro.network.links import LinkSet
from repro.obs.trace import span
from repro.sim.montecarlo import simulate_schedule
from repro.sim.resilient import RetryPolicy, resilient_map
from repro.utils.rng import stable_seed


@dataclass(frozen=True)
class EpsPoint:
    """One (eps, scheduler) cell of the sweep (means over repetitions)."""

    eps: float
    algorithm: str
    mean_scheduled: float
    mean_expected_goodput: float
    mean_failed: float


def _tradeoff_rep(
    rep: int,
    *,
    schedulers: Dict[str, Callable],
    eps_values: Sequence[float],
    alpha: float,
    n_trials: int,
    root_seed: int,
    workload: Callable[[int], LinkSet],
    max_bytes: Optional[int],
) -> Dict[Tuple[float, str], Tuple[float, float, float]]:
    """One repetition: every (eps, scheduler) cell on a shared workload.

    The workload (and hence the interference matrix) is independent of
    eps, so the base problem is built once and eps-only copies share its
    cached ``F`` through :meth:`FadingRLS.with_params`.
    """
    links = workload(stable_seed("eps", rep, root=root_seed))
    base = FadingRLS(links=links, alpha=alpha, eps=float(eps_values[0]))
    out: Dict[Tuple[float, str], Tuple[float, float, float]] = {}
    for eps in eps_values:
        problem = base.with_params(eps=float(eps))
        for name, fn in schedulers.items():
            schedule = fn(problem)
            goodput = problem.expected_throughput(schedule.active)
            result = simulate_schedule(
                problem,
                schedule,
                n_trials=n_trials,
                seed=stable_seed("eps-sim", rep, name, eps, root=root_seed),
                max_bytes=max_bytes,
            )
            out[(float(eps), name)] = (
                float(schedule.size),
                float(goodput),
                float(result.mean_failed),
            )
    return out


def eps_tradeoff(
    schedulers: Dict[str, Callable],
    *,
    eps_values: Sequence[float] = (0.001, 0.01, 0.05, 0.1, 0.2, 0.4),
    n_links: int = 300,
    n_repetitions: int = 5,
    n_trials: int = 300,
    alpha: float = 3.0,
    root_seed: int = 2017,
    workload: Callable[[int], LinkSet] | None = None,
    n_jobs: Optional[int] = 1,
    max_bytes: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
) -> List[EpsPoint]:
    """Run the eps sweep; returns one :class:`EpsPoint` per cell.

    ``n_jobs`` fans repetitions out over worker processes (the workload
    and schedulers must then be picklable); ``max_bytes`` bounds each
    Monte-Carlo replay's memory; ``policy`` upgrades the fan-out to the
    fault-tolerant executor (``docs/ROBUSTNESS.md``).
    """
    if workload is None:
        workload = TopologyWorkload(n_links=n_links)
    worker = partial(
        _tradeoff_rep,
        schedulers=dict(schedulers),
        eps_values=tuple(float(e) for e in eps_values),
        alpha=alpha,
        n_trials=n_trials,
        root_seed=root_seed,
        workload=workload,
        max_bytes=max_bytes,
    )
    with span("experiment.eps_tradeoff", reps=n_repetitions, eps_values=len(eps_values)):
        per_rep = resilient_map(
            worker,
            range(n_repetitions),
            keys=[f"eps/{i}" for i in range(n_repetitions)],
            n_jobs=n_jobs,
            policy=policy,
        )
    out: List[EpsPoint] = []
    for eps in eps_values:
        for name in schedulers:
            rows = np.asarray(
                [rep_rows[(float(eps), name)] for rep_rows in per_rep], dtype=float
            )
            out.append(
                EpsPoint(
                    eps=float(eps),
                    algorithm=name,
                    mean_scheduled=float(rows[:, 0].mean()),
                    mean_expected_goodput=float(rows[:, 1].mean()),
                    mean_failed=float(rows[:, 2].mean()),
                )
            )
    return out


def best_eps(points: List[EpsPoint], algorithm: str) -> EpsPoint:
    """The goodput-maximising sweep point for one scheduler."""
    mine = [p for p in points if p.algorithm == algorithm]
    if not mine:
        raise KeyError(f"no sweep points for {algorithm!r}")
    return max(mine, key=lambda p: p.mean_expected_goodput)
