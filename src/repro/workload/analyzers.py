"""Workload analyzers: delay/backlog statistics and stability sweeps.

Three layers on top of :func:`repro.workload.queues.simulate_workload`:

- :func:`summarize_workload` reduces one trajectory to the reporting
  statistics (delay percentiles, backlog averages, drift);
- :func:`sweep_rates` fans one scenario out over an offered-load grid
  (``arrivals.scaled(factor)`` per point) through
  :func:`repro.sim.resilient.resilient_map` — each point's seed is
  derived from the *factor value*, not the execution order, so the
  sweep is bit-identical for every ``n_jobs``;
- :func:`stability_region` locates the empirical divergence threshold
  lambda* by a coarse geometric probe grid followed by bisection on
  the bracketing interval, reporting the estimate in both scale-factor
  and packets/link/slot units.

Divergence verdict
------------------
An unstable queueing system drifts: total backlog grows linearly at
rate ``(offered - served)`` once the scheduler saturates.  The verdict
(:func:`is_divergent`) therefore requires **both** a positive tail
drift (:func:`drift_estimate`, least-squares slope over the trailing
half of the horizon, normalised per link) and a final backlog well
above the per-link noise floor — either alone misfires on short
horizons (a lucky burst inflates the final backlog; a draining warmup
inflates the slope).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import FadingRLS
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.sim.resilient import resilient_map
from repro.utils.rng import stable_seed
from repro.workload.generators import ArrivalProcess
from repro.workload.queues import WorkloadResult, simulate_workload

__all__ = [
    "WorkloadStats",
    "StabilityEstimate",
    "drift_estimate",
    "is_divergent",
    "summarize_workload",
    "sweep_rates",
    "stability_region",
]


@dataclass(frozen=True)
class WorkloadStats:
    """Scalar summary of one workload trajectory (reporting payload)."""

    n_slots: int
    n_links: int
    policy: str
    algorithm: str
    arrived: int
    served: int
    dropped: int
    failed: int
    delivery_ratio: float
    mean_delay: float
    p50_delay: float
    p95_delay: float
    p99_delay: float
    mean_backlog: float
    final_backlog: int
    drift: float

    def to_dict(self) -> dict:
        """JSON-ready dict (NaN delays become ``None``)."""
        out = {}
        for key in self.__dataclass_fields__:
            value = getattr(self, key)
            if isinstance(value, float) and not np.isfinite(value):
                value = None
            out[key] = value
        return out


def drift_estimate(result: WorkloadResult, *, tail: float = 0.5) -> float:
    """Least-squares backlog growth rate, packets/slot/link.

    Fits a line to the total-backlog trajectory over the trailing
    ``tail`` fraction of the horizon (the quasi-stationary part) and
    normalises the slope by the number of links.  Positive drift means
    offered load exceeds served capacity.
    """
    if not 0.0 < tail <= 1.0:
        raise ValueError(f"tail must be in (0, 1], got {tail}")
    total = result.total_backlog
    start = int(np.floor(result.n_slots * (1.0 - tail)))
    window = total[start:]
    if window.size < 2 or result.n_links == 0:
        return 0.0
    t = np.arange(window.size, dtype=float)
    slope = float(np.polyfit(t, window.astype(float), 1)[0])
    return slope / result.n_links


def is_divergent(
    result: WorkloadResult,
    *,
    drift_tol: float = 0.02,
    backlog_floor: float = 4.0,
) -> bool:
    """Divergence verdict: positive tail drift AND elevated final backlog.

    ``drift_tol`` is in packets/slot/link; ``backlog_floor`` scales the
    per-link final-backlog threshold.  See the module docstring for why
    both conditions are required.
    """
    if result.n_slots == 0 or result.n_links == 0:
        return False
    drifting = drift_estimate(result) > drift_tol
    backlogged = result.final_backlog > backlog_floor * result.n_links
    return bool(drifting and backlogged)


def summarize_workload(result: WorkloadResult, *, warmup: int = 0) -> WorkloadStats:
    """Reduce a trajectory to its scalar reporting statistics."""
    return WorkloadStats(
        n_slots=result.n_slots,
        n_links=result.n_links,
        policy=result.policy,
        algorithm=result.algorithm,
        arrived=result.arrived,
        served=result.served,
        dropped=result.dropped,
        failed=result.failed,
        delivery_ratio=result.delivery_ratio,
        mean_delay=result.mean_delay,
        p50_delay=result.delay_percentile(50),
        p95_delay=result.delay_percentile(95),
        p99_delay=result.delay_percentile(99),
        mean_backlog=result.mean_backlog(warmup),
        final_backlog=result.final_backlog,
        drift=drift_estimate(result),
    )


@dataclass(frozen=True)
class _SweepPoint:
    """One picklable offered-load probe (crosses the pool boundary)."""

    problem: FadingRLS
    arrivals: ArrivalProcess
    scheduler: str
    factor: float
    n_slots: int
    seed: int
    policy: str
    max_queue: Optional[int]
    scheduler_kwargs: Tuple[Tuple[str, object], ...] = ()


def _point_seed(root: int, factor: float) -> int:
    # Identity-derived from the factor *value* (shortest-repr float
    # formatting is canonical), never from grid position — inserting or
    # reordering probes cannot change any existing probe's trajectory.
    return stable_seed("workload.sweep", repr(float(factor)), root=root)


def _simulate_point(point: _SweepPoint) -> WorkloadResult:
    return simulate_workload(
        point.problem,
        point.arrivals.scaled(point.factor),
        point.scheduler,
        n_slots=point.n_slots,
        seed=_point_seed(point.seed, point.factor),
        policy=point.policy,
        max_queue=point.max_queue,
        scheduler_kwargs=dict(point.scheduler_kwargs),
    )


def sweep_rates(
    problem: FadingRLS,
    arrivals: ArrivalProcess,
    scheduler: str = "rle",
    factors: Sequence[float] = (0.5, 1.0, 2.0),
    *,
    n_slots: int = 200,
    seed: int = 0,
    policy: str = "backlogged",
    max_queue: Optional[int] = None,
    n_jobs: Optional[int] = 1,
    scheduler_kwargs: Optional[dict] = None,
) -> List[WorkloadResult]:
    """Simulate the scenario at every offered-load factor, in parallel.

    Each point runs ``arrivals.scaled(factor)`` with a seed derived
    from the factor value, so the returned trajectories are
    **bit-identical** for every ``n_jobs`` (the property suite asserts
    byte equality across 1/2/4).  ``scheduler`` must be a registry name
    (the point must pickle for ``n_jobs > 1``).
    """
    points = [
        _SweepPoint(
            problem=problem,
            arrivals=arrivals,
            scheduler=scheduler,
            factor=float(f),
            n_slots=n_slots,
            seed=seed,
            policy=policy,
            max_queue=max_queue,
            scheduler_kwargs=tuple(sorted((scheduler_kwargs or {}).items())),
        )
        for f in factors
    ]
    with span("workload.sweep", points=len(points), policy=policy):
        results = resilient_map(_simulate_point, points, n_jobs=n_jobs)
    obs_metrics.inc("workload.sweep_points", len(points))
    return results


@dataclass(frozen=True)
class StabilityEstimate:
    """Empirical stability-region estimate from probe + bisection.

    Attributes
    ----------
    factor_lo / factor_hi:
        The final bracket: the largest factor observed stable and the
        smallest observed divergent.  When the sweep never observed one
        side, that bound is the sweep limit and ``bracketed`` is False.
    factor_star:
        Point estimate of the critical scale factor (bracket midpoint).
    lam_star:
        The same estimate in packets/link/slot
        (``factor_star * base_rate``).
    base_rate:
        The unscaled generator's mean rate, packets/link/slot.
    bracketed:
        Whether divergence was actually bracketed inside the sweep
        range (a False value means ``factor_star`` is a one-sided
        bound, not an interior estimate).
    probes:
        Every ``(factor, drift, final_backlog, divergent)`` evaluated,
        in evaluation order (grid first, then bisection).
    """

    factor_lo: float
    factor_hi: float
    factor_star: float
    lam_star: float
    base_rate: float
    bracketed: bool
    probes: Tuple[Tuple[float, float, int, bool], ...] = field(repr=False)

    def to_dict(self) -> dict:
        """JSON-serialisable form, with probes expanded to records."""
        return {
            "factor_lo": self.factor_lo,
            "factor_hi": self.factor_hi,
            "factor_star": self.factor_star,
            "lam_star": self.lam_star,
            "base_rate": self.base_rate,
            "bracketed": self.bracketed,
            "n_probes": len(self.probes),
            "probes": [
                {
                    "factor": f,
                    "drift": drift,
                    "final_backlog": backlog,
                    "divergent": divergent,
                }
                for f, drift, backlog, divergent in self.probes
            ],
        }


def stability_region(
    problem: FadingRLS,
    arrivals: ArrivalProcess,
    scheduler: str = "rle",
    *,
    factor_lo: float = 0.1,
    factor_hi: float = 8.0,
    n_grid: int = 5,
    max_iter: int = 8,
    rel_tol: float = 0.05,
    n_slots: int = 300,
    seed: int = 0,
    policy: str = "backlogged",
    n_jobs: Optional[int] = 1,
    scheduler_kwargs: Optional[dict] = None,
    drift_tol: float = 0.02,
    backlog_floor: float = 4.0,
) -> StabilityEstimate:
    """Locate the empirical divergence threshold by grid + bisection.

    Phase 1 probes a geometric grid of ``n_grid`` factors across
    ``[factor_lo, factor_hi]`` (fanned out over ``n_jobs``); phase 2
    bisects the first stable/divergent bracket until the interval
    shrinks below ``rel_tol`` relatively or ``max_iter`` probes are
    spent.  Every probe's seed derives from its factor value, so the
    estimate is independent of ``n_jobs`` and probe order.

    Queues must be unbounded here: a finite ``max_queue`` converts
    overload into drops instead of drift and hides divergence, so this
    sweep always runs without a queue cap.
    """
    if not 0 < factor_lo < factor_hi:
        raise ValueError(
            f"need 0 < factor_lo < factor_hi, got {factor_lo}, {factor_hi}"
        )
    if n_grid < 2:
        raise ValueError(f"n_grid must be >= 2, got {n_grid}")
    base_rate = arrivals.mean_rate()
    if not base_rate > 0:
        raise ValueError("arrivals.mean_rate() must be > 0 to sweep load")

    probes: List[Tuple[float, float, int, bool]] = []

    def record(factor: float, result: WorkloadResult) -> bool:
        divergent = is_divergent(
            result, drift_tol=drift_tol, backlog_floor=backlog_floor
        )
        probes.append(
            (float(factor), drift_estimate(result), result.final_backlog, divergent)
        )
        return divergent

    with span("workload.stability", grid=n_grid, max_iter=max_iter):
        grid = np.geomspace(factor_lo, factor_hi, n_grid)
        results = sweep_rates(
            problem,
            arrivals,
            scheduler,
            grid,
            n_slots=n_slots,
            seed=seed,
            policy=policy,
            max_queue=None,
            n_jobs=n_jobs,
            scheduler_kwargs=scheduler_kwargs,
        )
        verdicts = [record(f, r) for f, r in zip(grid, results)]

        # Bracket: last stable factor before the first divergent one.
        first_div = next((i for i, v in enumerate(verdicts) if v), None)
        if first_div is None:
            # Stable everywhere we looked: lambda* is at least factor_hi.
            estimate = StabilityEstimate(
                factor_lo=float(grid[-1]),
                factor_hi=float(factor_hi),
                factor_star=float(factor_hi),
                lam_star=float(factor_hi) * base_rate,
                base_rate=base_rate,
                bracketed=False,
                probes=tuple(probes),
            )
        elif first_div == 0:
            # Divergent already at the bottom of the range.
            estimate = StabilityEstimate(
                factor_lo=float(factor_lo),
                factor_hi=float(grid[0]),
                factor_star=float(factor_lo),
                lam_star=float(factor_lo) * base_rate,
                base_rate=base_rate,
                bracketed=False,
                probes=tuple(probes),
            )
        else:
            lo = float(grid[first_div - 1])
            hi = float(grid[first_div])
            for _ in range(max_iter):
                if (hi - lo) <= rel_tol * hi:
                    break
                mid = 0.5 * (lo + hi)
                result = _simulate_point(
                    _SweepPoint(
                        problem=problem,
                        arrivals=arrivals,
                        scheduler=scheduler,
                        factor=mid,
                        n_slots=n_slots,
                        seed=seed,
                        policy=policy,
                        max_queue=None,
                        scheduler_kwargs=tuple(
                            sorted((scheduler_kwargs or {}).items())
                        ),
                    )
                )
                if record(mid, result):
                    hi = mid
                else:
                    lo = mid
            mid = 0.5 * (lo + hi)
            estimate = StabilityEstimate(
                factor_lo=lo,
                factor_hi=hi,
                factor_star=mid,
                lam_star=mid * base_rate,
                base_rate=base_rate,
                bracketed=True,
                probes=tuple(probes),
            )
    obs_metrics.inc("workload.stability_probes", len(probes))
    return estimate
