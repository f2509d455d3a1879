"""Slotted queue simulator: arrivals x scheduler x fading, over time.

The coupling loop of the workload subsystem.  Each slot ``t``:

1. **arrivals** — the trace row ``arrivals[t]`` (drawn once, up front,
   by an :class:`~repro.workload.generators.ArrivalProcess`) joins each
   link's FIFO queue, subject to an optional per-link capacity
   (``max_queue``; overflow packets are *dropped* and counted);
2. **scheduling** — a service policy picks a feasible transmission set
   among the backlogged links:

   - ``backlogged`` (default): run the one-shot scheduler on the
     sub-instance induced by the backlogged links (the classic
     queue-aware setting of the paper's refs [2], [3]);
   - ``multislot``: build one cover frame of *all* links up front via
     :func:`repro.core.multislot.multislot_schedule` and serve slot
     ``t`` with frame slot ``t mod n_frame`` restricted to backlogged
     links (TDMA-style, no per-slot scheduler runs);
   - ``incremental``: maintain an
     :class:`~repro.core.incremental.IncrementalScheduler` over the
     *backlogged* link set, feeding it remove/insert
     :class:`~repro.network.delta.LinkDelta`\\ s as queues drain and
     fill — link churn driven by the traffic itself;

3. **transmission** — one Monte-Carlo fading realisation (through the
   :mod:`repro.backend` kernels) decides per-link success; each
   scheduled link attempts its head-of-line packet, successes drain the
   FIFO, failures stay queued and retry.

Determinism contract
--------------------
The whole trajectory is a pure function of
``(problem, arrivals, scheduler, policy, n_slots, seed)``.  All
randomness is *identity-derived* via
:func:`~repro.utils.rng.stable_seed`: the arrival trace from
``("workload.arrivals", seed)`` and each slot's fading draw from
``("workload.fading", t, seed)`` — never from a shared sequential
stream — so trajectories are **bit-identical** across process
boundaries and any ``n_jobs`` fan-out of a surrounding sweep.  The
property suite asserts equality on
:meth:`WorkloadResult.trajectory_bytes`, not closeness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from repro.core.base import get_scheduler
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.network.delta import LinkDelta
from repro.network.links import LinkSet
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.sim.montecarlo import simulate_slot
from repro.utils.rng import stable_seed
from repro.workload.generators import ArrivalProcess

__all__ = ["POLICIES", "WorkloadResult", "simulate_workload"]

#: Service-policy names accepted by :func:`simulate_workload`.
POLICIES = ("backlogged", "multislot", "incremental")

SchedulerLike = Union[str, Callable[..., Schedule]]


@dataclass(frozen=True)
class WorkloadResult:
    """Full trajectory record of one workload simulation.

    Attributes
    ----------
    n_slots, n_links:
        Horizon and instance size.
    policy, algorithm:
        Service policy and underlying scheduler name.
    arrived / served / dropped / failed:
        Total packets generated, delivered, dropped at a full queue,
        and failed transmission attempts (failures lose slots, not
        packets).
    queue_trajectory : (n_slots, n_links) int64
        Per-link queue length at the *end* of each slot — the
        bit-identity anchor of the determinism contract.
    scheduled_per_slot : (n_slots,) int64
        Transmission attempts per slot (the scheduled backlogged set).
    served_per_slot : (n_slots,) int64
        Successful deliveries per slot.
    delays : (served,) int64
        Slots-in-system of every delivered packet, in delivery order.
    per_link_arrived / per_link_served / per_link_dropped : (n_links,) int64
        Per-link totals (conservation: ``arrived = served + dropped +
        final queue``, per link and in total).
    """

    n_slots: int
    n_links: int
    policy: str
    algorithm: str
    arrived: int
    served: int
    dropped: int
    failed: int
    queue_trajectory: np.ndarray = field(repr=False)
    scheduled_per_slot: np.ndarray = field(repr=False)
    served_per_slot: np.ndarray = field(repr=False)
    delays: np.ndarray = field(repr=False)
    per_link_arrived: np.ndarray = field(repr=False)
    per_link_served: np.ndarray = field(repr=False)
    per_link_dropped: np.ndarray = field(repr=False)

    @property
    def total_backlog(self) -> np.ndarray:
        """(n_slots,) total queued packets after each slot."""
        return self.queue_trajectory.sum(axis=1)

    @property
    def final_backlog(self) -> int:
        """Total queued packets at the end of the horizon."""
        if self.n_slots == 0:
            return 0
        return int(self.queue_trajectory[-1].sum())

    def mean_backlog(self, warmup: int = 0) -> float:
        """Time-averaged total backlog, excluding ``warmup`` slots."""
        if not 0 <= warmup <= self.n_slots:
            raise ValueError(f"warmup must be in [0, {self.n_slots}], got {warmup}")
        counted = self.total_backlog[warmup:]
        return float(counted.mean()) if counted.size else 0.0

    @property
    def mean_delay(self) -> float:
        """Mean slots-in-system of delivered packets (NaN if none)."""
        return float(self.delays.mean()) if self.delays.size else float("nan")

    def delay_percentile(self, q: float) -> float:
        """The ``q``-th percentile of delivered-packet delay (NaN if none)."""
        if not self.delays.size:
            return float("nan")
        return float(np.percentile(self.delays, q))

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of all arrivals (1.0 when none arrived)."""
        return self.served / self.arrived if self.arrived else 1.0

    def trajectory_bytes(self) -> bytes:
        """Canonical bytes of the queue trajectory (C-order int64).

        The invariance tests compare exactly these bytes across
        ``n_jobs`` values.
        """
        return np.ascontiguousarray(self.queue_trajectory, dtype=np.int64).tobytes()


class _BackloggedPolicy:
    """Per-slot one-shot scheduling of the backlogged sub-instance.

    With a :class:`~repro.cache.store.ScheduleCache` attached, each
    slot's restricted sub-instance is answered through the cache: a
    heavy-traffic stream keeps re-scheduling the *same* backlogged
    sets, so steady state serves from bit-identical exact hits instead
    of scheduler runs.  Schedules do not depend on the fading channel,
    so the cache is channel-agnostic here by construction.
    """

    def __init__(self, problem: FadingRLS, scheduler, kwargs: dict, cache=None) -> None:
        self._problem = problem
        self._scheduler = scheduler
        self._kwargs = kwargs
        self._cache = cache

    def choose(self, t: int, backlogged: np.ndarray) -> np.ndarray:
        if not backlogged.size:
            return backlogged
        sub = self._problem.restrict(backlogged)
        if self._cache is not None:
            sched = self._cache.schedule(sub, self._scheduler, scheduler_kwargs=self._kwargs)
        else:
            sched = self._scheduler(sub, **self._kwargs)
        return backlogged[sched.active]


class _MultislotPolicy:
    """TDMA-style service from a fixed multi-slot cover frame."""

    def __init__(self, problem: FadingRLS, scheduler, kwargs: dict) -> None:
        from repro.core.multislot import multislot_schedule

        if bool(np.any(problem.effective_budgets() < 0)):
            raise ValueError(
                "the multislot policy needs every link serviceable (noise "
                "alone over budget on some link); filter the instance with "
                "problem.serviceable() first"
            )
        self._frame = multislot_schedule(problem, scheduler, **kwargs)

    @property
    def frame(self):
        return self._frame

    def choose(self, t: int, backlogged: np.ndarray) -> np.ndarray:
        if not backlogged.size or self._frame.n_slots == 0:
            return np.zeros(0, dtype=np.int64)
        active = self._frame.slot_cycle(t).active
        return np.intersect1d(active, backlogged, assume_unique=True)


class _IncrementalPolicy:
    """Warm-start repair over the backlogged set, churned by traffic.

    The engine's link universe is the *currently backlogged* set.  Each
    slot, links whose queues drained are removed and links that became
    backlogged are inserted — one remove/insert
    :class:`~repro.network.delta.LinkDelta` per slot — and the repaired
    schedule is mapped back to global link ids.  When every queue
    drains the engine is discarded and rebuilt on the next busy slot
    (cheaper and simpler than maintaining an empty engine).
    """

    def __init__(self, problem: FadingRLS, scheduler, kwargs: dict) -> None:
        if problem.powers is not None:
            raise ValueError(
                "the incremental policy supports uniform transmit power only"
            )
        self._problem = problem
        self._scheduler = scheduler
        self._kwargs = kwargs
        self._engine = None
        self._ids = np.zeros(0, dtype=np.int64)  # global id per engine index

    def _sub_links(self, ids: np.ndarray) -> LinkSet:
        links = self._problem.links
        return LinkSet(
            senders=links.senders[ids],
            receivers=links.receivers[ids],
            rates=links.rates[ids],
        )

    def choose(self, t: int, backlogged: np.ndarray) -> np.ndarray:
        from repro.core.incremental import IncrementalScheduler

        if not backlogged.size:
            self._engine = None
            self._ids = np.zeros(0, dtype=np.int64)
            return backlogged
        if self._engine is None:
            self._ids = backlogged.copy()
            self._engine = IncrementalScheduler(
                self._sub_links(self._ids),
                scheduler=self._scheduler,
                scheduler_kwargs=self._kwargs,
                alpha=self._problem.alpha,
                gamma_th=self._problem.gamma_th,
                eps=self._problem.eps,
                noise=self._problem.noise,
                power=self._problem.power,
            )
            schedule = self._engine.schedule()
            return np.sort(self._ids[schedule.active])
        current = set(backlogged.tolist())
        removes = np.flatnonzero(
            np.fromiter((g not in current for g in self._ids), dtype=bool, count=self._ids.size)
        )
        known = set(self._ids.tolist())
        newcomers = np.array([g for g in backlogged if g not in known], dtype=np.int64)
        delta = LinkDelta(
            removes=removes if removes.size else None,
            inserts=self._sub_links(newcomers) if newcomers.size else None,
        )
        if not delta.is_empty:
            self._engine.apply(delta)
            keep = np.ones(self._ids.size, dtype=bool)
            keep[removes] = False
            self._ids = np.concatenate([self._ids[keep], newcomers])
        schedule = self._engine.schedule()
        return np.sort(self._ids[schedule.active])


def _make_policy(policy: str, problem: FadingRLS, scheduler, kwargs: dict, cache=None):
    if cache is not None and policy != "backlogged":
        raise ValueError(
            f"cache= is only supported with the 'backlogged' policy, got {policy!r}"
        )
    if policy == "backlogged":
        return _BackloggedPolicy(problem, scheduler, kwargs, cache)
    if policy == "multislot":
        return _MultislotPolicy(problem, scheduler, kwargs)
    if policy == "incremental":
        return _IncrementalPolicy(problem, scheduler, kwargs)
    raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")


def simulate_workload(
    problem: FadingRLS,
    arrivals: ArrivalProcess,
    scheduler: SchedulerLike = "rle",
    *,
    n_slots: int = 200,
    seed: int = 0,
    policy: str = "backlogged",
    max_queue: Optional[int] = None,
    scheduler_kwargs: Optional[dict] = None,
    channel: Optional[str] = None,
    cache=None,
) -> WorkloadResult:
    """Run the slotted queue simulation (see the module docstring).

    Parameters
    ----------
    problem:
        The full instance; geometry and channel parameters are fixed
        over the horizon (traffic, not mobility, drives the dynamics).
    arrivals:
        Per-link packet-arrival process; its trace is drawn once from
        the identity-derived arrival seed.
    scheduler:
        Registry name or one-shot scheduler callable
        ``(FadingRLS, **kwargs) -> Schedule``.
    n_slots:
        Horizon length (>= 0; a zero-slot run returns empty records).
    seed:
        Root seed of the identity-derived randomness tree.
    policy:
        Service policy: ``backlogged`` | ``multislot`` | ``incremental``.
    max_queue:
        Optional per-link queue capacity; arrivals beyond it are
        dropped (and counted).  ``None`` = unbounded.
    scheduler_kwargs:
        Extra keyword arguments for the scheduler (forwarded to the
        cover builder under the ``multislot`` policy).
    channel:
        Channel-law spec for the per-slot fading draw
        (:func:`repro.channel.laws.get_channel_law`); ``None`` is the
        Rayleigh default, bit-identical to the historical behaviour.
    cache:
        Optional :class:`~repro.cache.store.ScheduleCache` answering
        the per-slot scheduler runs (``backlogged`` policy only).  The
        trajectory is bit-identical to the uncached run.

    Returns
    -------
    WorkloadResult
        Full queue/delay/drop trajectory; conservation
        ``arrived = served + dropped + queued`` holds exactly.
    """
    if n_slots < 0:
        raise ValueError(f"n_slots must be >= 0, got {n_slots}")
    if max_queue is not None and max_queue < 0:
        raise ValueError(f"max_queue must be >= 0, got {max_queue}")
    fn = get_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
    name = scheduler if isinstance(scheduler, str) else getattr(fn, "__name__", "custom")
    kwargs = dict(scheduler_kwargs or {})
    n = problem.n_links
    chooser = _make_policy(policy, problem, fn, kwargs, cache)

    trace = arrivals.sample(n, n_slots, seed=stable_seed("workload.arrivals", root=seed))

    queues: List[List[int]] = [[] for _ in range(n)]
    backlog = np.zeros(n, dtype=np.int64)
    per_link_arrived = np.zeros(n, dtype=np.int64)
    per_link_served = np.zeros(n, dtype=np.int64)
    per_link_dropped = np.zeros(n, dtype=np.int64)
    queue_trajectory = np.zeros((n_slots, n), dtype=np.int64)
    scheduled_per_slot = np.zeros(n_slots, dtype=np.int64)
    served_per_slot = np.zeros(n_slots, dtype=np.int64)
    delays: List[int] = []
    failed = 0

    with span("workload.simulate", slots=n_slots, links=n, policy=policy):
        for t in range(n_slots):
            # 1. Arrivals (with optional finite-queue drops).
            new = trace[t]
            per_link_arrived += new
            if max_queue is not None:
                room = np.maximum(max_queue - backlog, 0)
                admitted = np.minimum(new, room)
                per_link_dropped += new - admitted
            else:
                admitted = new
            for i in np.flatnonzero(admitted):
                queues[i].extend([t] * int(admitted[i]))
            backlog += admitted

            # 2. Service policy picks a feasible backlogged set.
            backlogged = np.flatnonzero(backlog > 0)
            chosen = chooser.choose(t, backlogged)
            scheduled_per_slot[t] = chosen.size

            # 3. One fading realisation decides per-link success.
            if chosen.size:
                success = simulate_slot(
                    problem,
                    chosen,
                    seed=stable_seed("workload.fading", t, root=seed),
                    channel=channel,
                )
                # simulate_slot reports links in sorted-index order and
                # every policy returns sorted ids, so they align 1:1.
                for link, ok in zip(np.sort(chosen), success):
                    if ok:
                        born = queues[link].pop(0)
                        delays.append(t - born + 1)
                        backlog[link] -= 1
                        per_link_served[link] += 1
                        served_per_slot[t] += 1
                    else:
                        failed += 1

            queue_trajectory[t] = backlog

    arrived = int(per_link_arrived.sum())
    served = int(per_link_served.sum())
    dropped = int(per_link_dropped.sum())
    obs_metrics.inc("workload.slots_simulated", n_slots)
    obs_metrics.inc("workload.packets_arrived", arrived)
    obs_metrics.inc("workload.packets_served", served)
    obs_metrics.inc("workload.packets_dropped", dropped)
    return WorkloadResult(
        n_slots=n_slots,
        n_links=n,
        policy=policy,
        algorithm=str(name),
        arrived=arrived,
        served=served,
        dropped=dropped,
        failed=failed,
        queue_trajectory=queue_trajectory,
        scheduled_per_slot=scheduled_per_slot,
        served_per_slot=served_per_slot,
        delays=np.asarray(delays, dtype=np.int64),
        per_link_arrived=per_link_arrived,
        per_link_served=per_link_served,
        per_link_dropped=per_link_dropped,
    )
