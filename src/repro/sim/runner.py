"""Batched experiment runner.

One evaluation point of the paper's figures is: *generate a random
workload, run every scheduler on it, replay each schedule through the
fading channel, average over repetitions*.  :func:`run_schedulers`
packages that loop with per-repetition derived seeds so any point is
reproducible in isolation.

Execution is delegated to :mod:`repro.sim.parallel`: the
``rep x scheduler`` grid becomes independent work units that run
serially (``n_jobs=1``, the bit-identical default) or fan out over the
process pool of :func:`repro.sim.resilient.resilient_map`.
:func:`run_sweep` extends the same fan-out across *all* points of a
figure sweep, so a whole panel parallelises as one flat unit list
instead of point-by-point.

Both entry points accept a :class:`~repro.sim.resilient.RetryPolicy`
(fault-tolerant execution: per-unit timeouts, bounded retry, worker
replacement) and a :class:`~repro.experiments.store.UnitCheckpoint`
(per-unit persistence so interrupted runs resume); see
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.network.links import LinkSet
from repro.network.mobility import DeltaTrace
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.sim.metrics import SimulationResult
from repro.sim.parallel import WorkUnit, build_units, execute_units

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.store import UnitCheckpoint
    from repro.sim.resilient import RetryPolicy


@dataclass(frozen=True)
class RunResult:
    """Aggregated results of one scheduler over repetitions.

    ``mean_*`` fields average the per-repetition Monte-Carlo means;
    ``*_std`` are standard deviations *across repetitions* (workload
    variability, not fading noise).
    """

    algorithm: str
    n_repetitions: int
    mean_failed: float
    failed_std: float
    mean_throughput: float
    throughput_std: float
    mean_scheduled: float
    mean_scheduled_rate: float
    per_rep: List[SimulationResult]


def aggregate_results(name: str, results: List[SimulationResult]) -> RunResult:
    """Reduce one scheduler's per-repetition results to a :class:`RunResult`."""
    n_repetitions = len(results)
    failed = np.array([r.mean_failed for r in results])
    throughput = np.array([r.mean_throughput for r in results])
    scheduled = np.array([r.n_scheduled for r in results], dtype=float)
    scheduled_rate = np.array([r.scheduled_rate for r in results])
    return RunResult(
        algorithm=name,
        n_repetitions=n_repetitions,
        mean_failed=float(failed.mean()),
        failed_std=float(failed.std(ddof=1)) if n_repetitions > 1 else 0.0,
        mean_throughput=float(throughput.mean()),
        throughput_std=float(throughput.std(ddof=1)) if n_repetitions > 1 else 0.0,
        mean_scheduled=float(scheduled.mean()),
        mean_scheduled_rate=float(scheduled_rate.mean()),
        per_rep=results,
    )


def _group_by_scheduler(
    schedulers: Mapping[str, Callable[..., Schedule]],
    units: Sequence[WorkUnit],
    results: Sequence[SimulationResult],
) -> Dict[str, RunResult]:
    """Regroup flat unit results into per-scheduler aggregates."""
    per_alg: Dict[str, List[SimulationResult]] = {name: [] for name in schedulers}
    for unit, result in zip(units, results):
        per_alg[unit.name].append(result)
    return {name: aggregate_results(name, results) for name, results in per_alg.items()}


def run_schedulers(
    schedulers: Mapping[str, Callable[..., Schedule]],
    workload: Callable[[int], LinkSet],
    *,
    n_repetitions: int = 10,
    n_trials: int = 500,
    alpha: float = 3.0,
    gamma_th: float = 1.0,
    eps: float = 0.01,
    root_seed: int = 0,
    scheduler_kwargs: Mapping[str, dict] | None = None,
    n_jobs: Optional[int] = 1,
    max_bytes: Optional[int] = None,
    policy: Optional["RetryPolicy"] = None,
    checkpoint: Optional["UnitCheckpoint"] = None,
    channel: Optional[str] = None,
    power_policy: str = "uniform",
) -> Dict[str, RunResult]:
    """Run every scheduler on ``n_repetitions`` random workloads.

    Parameters
    ----------
    schedulers:
        Name -> scheduler callable.
    workload:
        ``workload(seed) -> LinkSet`` — the per-repetition instance
        generator.  All schedulers see the *same* instance in each
        repetition (paired comparison, lower variance).  It must be a
        pure function of its seed: a repetition's schedulers share the
        one link set it returns (see
        :class:`~repro.sim.parallel.UnitRunner`).  Must be picklable
        for ``n_jobs > 1``.
    n_repetitions, n_trials:
        Workload draws, and fading realisations per schedule.
    alpha, gamma_th, eps:
        Channel parameters of the constructed :class:`FadingRLS`.
    root_seed:
        Root of the derived seed tree (workload seeds and fading seeds
        are independent by construction).
    scheduler_kwargs:
        Optional per-scheduler extra keyword arguments.
    n_jobs:
        Worker processes; ``1`` (default) runs serially in-process,
        ``0``/``None`` uses all CPUs.  Results are bit-identical for
        every value — seeds derive from unit identity, not execution
        order.
    max_bytes:
        Memory budget per Monte-Carlo replay chunk (see
        :func:`repro.sim.montecarlo.simulate_schedule`).
    policy:
        Optional retry policy — adds timeouts, bounded
        deterministic-backoff retry and pool replacement to the
        executor, with results still bit-identical; ``None`` tries each
        unit once.
    checkpoint:
        Optional per-unit result store — completed units persist and an
        interrupted run resumed with the same checkpoint recomputes only
        the missing ones.
    channel:
        Channel-law spec for the Monte-Carlo replay
        (:func:`repro.channel.laws.get_channel_law`); ``None`` is the
        paper's Rayleigh channel.
    power_policy:
        Named power policy
        (:data:`repro.core.powercontrol.POWER_POLICIES`) applied around
        each scheduler run; ``uniform`` (default) keeps the instance's
        powers untouched.

    Returns
    -------
    dict of name -> :class:`RunResult`.
    """
    if n_repetitions < 1:
        raise ValueError("n_repetitions must be >= 1")
    with span("runner.run_schedulers", schedulers=len(schedulers), reps=n_repetitions):
        units = build_units(
            schedulers,
            workload,
            n_repetitions=n_repetitions,
            n_trials=n_trials,
            alpha=alpha,
            gamma_th=gamma_th,
            eps=eps,
            root_seed=root_seed,
            scheduler_kwargs=scheduler_kwargs,
            max_bytes=max_bytes,
            channel=channel,
            power_policy=power_policy,
        )
        obs_metrics.inc("runner.units_built", len(units))
        results = execute_units(units, n_jobs=n_jobs, policy=policy, checkpoint=checkpoint)
        return _group_by_scheduler(schedulers, units, results)


@dataclass(frozen=True)
class TraceStepResult:
    """One time step of a dynamic-network run.

    All quantities are evaluated against that step's *effective*
    geometry, so the from-scratch and incremental execution modes
    report directly comparable numbers.
    """

    schedule: Schedule
    feasible: bool
    expected_throughput: float
    scheduled_rate: float


def run_trace(
    scheduler: Union[str, Callable[..., Schedule]],
    trace: Union[DeltaTrace, Sequence[LinkSet], Iterable[LinkSet]],
    *,
    incremental: bool = False,
    alpha: float = 3.0,
    gamma_th: float = 1.0,
    eps: float = 0.01,
    noise: float = 0.0,
    scheduler_kwargs: Optional[Mapping] = None,
    quality_bound: float = 0.8,
) -> List[TraceStepResult]:
    """Schedule every step of a dynamic-network trace.

    Parameters
    ----------
    scheduler:
        Registry name or scheduler callable.
    trace:
        A :class:`~repro.network.mobility.DeltaTrace` (required for the
        incremental mode) or a plain sequence of per-step ``LinkSet``\\ s.
    incremental:
        ``False`` (default) rebuilds a fresh
        :class:`~repro.core.problem.FadingRLS` and reruns the scheduler
        from scratch at every step; ``True`` routes the trace through
        :class:`~repro.core.incremental.IncrementalScheduler` — O(kN)
        interference-matrix maintenance plus warm-start schedule repair,
        falling back to a full run when repair quality degrades below
        ``quality_bound``.
    alpha, gamma_th, eps, noise:
        Channel parameters of each step's problem.
    scheduler_kwargs:
        Extra keyword arguments for the scheduler.
    quality_bound:
        Fallback trigger of the incremental engine (ignored otherwise).

    Returns
    -------
    list of :class:`TraceStepResult`, one per trace step.
    """
    from repro.core.base import get_scheduler

    kwargs = dict(scheduler_kwargs or {})
    out: List[TraceStepResult] = []

    def _evaluate(problem: FadingRLS, schedule: Schedule) -> TraceStepResult:
        return TraceStepResult(
            schedule=schedule,
            feasible=problem.is_feasible(schedule.active),
            expected_throughput=problem.expected_throughput(schedule.active),
            scheduled_rate=problem.scheduled_rate(schedule.active),
        )

    with span("runner.run_trace", incremental=incremental):
        if incremental:
            if not isinstance(trace, DeltaTrace):
                raise TypeError(
                    "incremental=True requires a DeltaTrace (per-step link "
                    "churn); got a materialised LinkSet sequence — build the "
                    "workload with random_waypoint_delta_trace or wrap it in "
                    "a DeltaTrace"
                )
            from repro.core.incremental import IncrementalScheduler

            engine = IncrementalScheduler(
                trace.initial,
                scheduler=scheduler,
                scheduler_kwargs=kwargs,
                alpha=alpha,
                gamma_th=gamma_th,
                eps=eps,
                noise=noise,
                quality_bound=quality_bound,
            )
            schedule = engine.schedule()
            out.append(_evaluate(engine.problem, schedule))
            for delta in trace.deltas:
                schedule = engine.step(delta)
                out.append(_evaluate(engine.problem, schedule))
        else:
            fn = get_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
            linksets = trace.linksets() if isinstance(trace, DeltaTrace) else trace
            for links in linksets:
                problem = FadingRLS(
                    links=links, alpha=alpha, gamma_th=gamma_th, eps=eps, noise=noise
                )
                out.append(_evaluate(problem, fn(problem, **kwargs)))
    obs_metrics.inc("runner.trace_steps", len(out))
    return out


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point of a figure sweep.

    ``x`` is the plotted value; ``workload``, ``alpha`` and
    ``root_seed`` fully determine the point's experiment (the root seed
    is usually derived from ``x`` via ``stable_seed`` so points remain
    reproducible in isolation).
    """

    x: float
    workload: Callable[[int], LinkSet]
    alpha: float
    root_seed: int


def run_sweep(
    schedulers: Mapping[str, Callable[..., Schedule]],
    points: Sequence[SweepPoint],
    *,
    n_repetitions: int = 10,
    n_trials: int = 500,
    gamma_th: float = 1.0,
    eps: float = 0.01,
    scheduler_kwargs: Mapping[str, dict] | None = None,
    n_jobs: Optional[int] = 1,
    max_bytes: Optional[int] = None,
    policy: Optional["RetryPolicy"] = None,
    checkpoint: Optional["UnitCheckpoint"] = None,
    channel: Optional[str] = None,
    power_policy: str = "uniform",
) -> List[Dict[str, RunResult]]:
    """Run a whole sweep as one flat parallel unit list.

    Equivalent to calling :func:`run_schedulers` once per
    :class:`SweepPoint` (same seeds, same results, in order) — but all
    ``point x rep x scheduler`` cells share a single process pool, so
    small per-point grids still saturate the workers.  ``policy``,
    ``checkpoint``, ``channel`` and ``power_policy`` behave
    as in :func:`run_schedulers`.
    """
    with span("runner.run_sweep", points=len(points), schedulers=len(schedulers)):
        all_units: List[WorkUnit] = []
        for i, point in enumerate(points):
            all_units.extend(
                build_units(
                    schedulers,
                    point.workload,
                    tag=i,
                    n_repetitions=n_repetitions,
                    n_trials=n_trials,
                    alpha=point.alpha,
                    gamma_th=gamma_th,
                    eps=eps,
                    root_seed=point.root_seed,
                    scheduler_kwargs=scheduler_kwargs,
                    max_bytes=max_bytes,
                    channel=channel,
                    power_policy=power_policy,
                )
            )
        obs_metrics.inc("runner.units_built", len(all_units))
        obs_metrics.inc("runner.sweep_points", len(points))
        results = execute_units(all_units, n_jobs=n_jobs, policy=policy, checkpoint=checkpoint)
        per_point = len(all_units) // len(points) if points else 0
        out: List[Dict[str, RunResult]] = []
        for i in range(len(points)):
            chunk_units = all_units[i * per_point : (i + 1) * per_point]
            chunk_results = results[i * per_point : (i + 1) * per_point]
            out.append(_group_by_scheduler(schedulers, chunk_units, chunk_results))
        return out


def run_workload(
    config,
    *,
    links: Optional[LinkSet] = None,
    scheduler: str = "rle",
    seed: Optional[int] = None,
):
    """Run the config's traffic workload; returns ``(result, stats)``.

    The :class:`~repro.experiments.config.ExperimentConfig` bridge into
    :mod:`repro.workload`: the ``workload_*`` knobs (set via
    ``config.with_workload``) pick the arrival family, mean offered
    load, horizon, and service policy; the channel parameters come from
    the same config that drives the figure sweeps.  ``links`` defaults
    to one paper-style topology of ``config.n_links_fixed`` links drawn
    from ``config.root_seed``.
    When ``config.cache`` is set (``config.with_cache``), the per-slot
    scheduler runs are answered through a
    :class:`~repro.cache.store.ScheduleCache`.
    """
    from repro.workload.analyzers import summarize_workload
    from repro.workload.queues import simulate_workload

    if links is None:
        links = config.workload(config.n_links_fixed)(config.root_seed)
    problem = FadingRLS(
        links=links,
        alpha=config.alpha_default,
        gamma_th=config.gamma_th,
        eps=config.eps,
    )
    cache = config.schedule_cache()
    with span("runner.run_workload", links=problem.n_links):
        result = simulate_workload(
            problem,
            config.arrival_process(),
            scheduler,
            n_slots=config.workload_slots,
            seed=config.root_seed if seed is None else seed,
            policy=config.workload_policy,
            channel=config.channel,
            cache=cache,
        )
    if cache is not None:
        cache.flush()
    return result, summarize_workload(result)
