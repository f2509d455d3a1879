"""Mobility study: schedule quality and stability under movement.

The paper motivates fading with mobility; this study quantifies what
mobility does to the *schedules*: as nodes move faster, how much of a
slot's schedule survives to the next slot (churn), and does per-slot
throughput suffer?  Per speed level we run a random-waypoint trace,
re-schedule every step, and aggregate.

Two execution modes share one measurement path
(:func:`repro.sim.runner.run_trace`):

- **from-scratch** (default) — each step builds a fresh
  :class:`~repro.core.problem.FadingRLS` (full O(N^2) interference
  matrix) and reruns the scheduler, exactly as a static pipeline would;
- **incremental** — the trace is generated as a
  :class:`~repro.network.mobility.DeltaTrace` and driven through
  :class:`~repro.core.incremental.IncrementalScheduler`: O(kN) matrix
  maintenance plus warm-start schedule repair, the engine this module's
  O(N^2)-per-step loop motivated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from repro.network.mobility import (
    random_waypoint_delta_trace,
    random_waypoint_trace,
    schedule_churn,
)
from repro.sim.runner import run_trace
from repro.utils.rng import stable_seed


@dataclass(frozen=True)
class MobilityPoint:
    """One (speed, scheduler) cell (means over trace steps and reps)."""

    speed: float
    algorithm: str
    mean_throughput: float
    mean_churn: float
    max_churn: float
    all_feasible: bool
    incremental: bool = False
    fallback_rate: float = 0.0


def mobility_sweep(
    schedulers: Dict[str, Union[str, Callable]],
    *,
    speeds: Sequence[float] = (1.0, 5.0, 20.0, 50.0),
    n_links: int = 150,
    n_steps: int = 10,
    n_repetitions: int = 3,
    alpha: float = 3.0,
    root_seed: int = 2017,
    incremental: bool = False,
    move_threshold: float = 0.0,
    quality_bound: float = 0.8,
) -> List[MobilityPoint]:
    """Sweep mobility speed; returns one point per (speed, scheduler).

    Speed is the upper end of the per-step movement range (lower end is
    half of it), in the same units as the 500x500 region per step.

    With ``incremental=True`` the trace is emitted as per-step deltas
    and scheduled by the incremental engine; ``move_threshold=0``
    (default) keeps the emitted geometry identical to the from-scratch
    trace, a positive threshold sparsifies the deltas (see
    :func:`~repro.network.mobility.random_waypoint_delta_trace`).
    ``quality_bound`` is the engine's from-scratch fallback trigger.
    """
    out: List[MobilityPoint] = []
    for speed in speeds:
        acc: Dict[str, List[tuple]] = {k: [] for k in schedulers}
        for rep in range(n_repetitions):
            seed = stable_seed("mob", rep, speed, root=root_seed)
            trace_kwargs = dict(
                speed_range=(speed / 2.0, float(speed)), seed=seed
            )
            if incremental:
                trace = random_waypoint_delta_trace(
                    n_links, n_steps, move_threshold=move_threshold, **trace_kwargs
                )
            else:
                trace = random_waypoint_trace(n_links, n_steps, **trace_kwargs)
            for name, fn in schedulers.items():
                steps = run_trace(
                    fn,
                    trace,
                    incremental=incremental,
                    alpha=alpha,
                    quality_bound=quality_bound,
                )
                # One step has no transition, so no churn.
                churn = schedule_churn([s.schedule for s in steps]) or [0.0]
                fallbacks = sum(
                    1
                    for s in steps
                    if s.schedule.diagnostics.get("reason") == "quality"
                )
                acc[name].append(
                    (
                        np.mean([s.expected_throughput for s in steps]),
                        np.mean(churn),
                        np.max(churn),
                        all(s.feasible for s in steps),
                        fallbacks / len(steps),
                    )
                )
        for name, rows in acc.items():
            arr = np.asarray([(r[0], r[1], r[2], r[4]) for r in rows], dtype=float)
            out.append(
                MobilityPoint(
                    speed=float(speed),
                    algorithm=name,
                    mean_throughput=float(arr[:, 0].mean()),
                    mean_churn=float(arr[:, 1].mean()),
                    max_churn=float(arr[:, 2].max()),
                    all_feasible=all(r[3] for r in rows),
                    incremental=incremental,
                    fallback_rate=float(arr[:, 3].mean()),
                )
            )
    return out
