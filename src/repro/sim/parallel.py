"""Process-parallel experiment execution.

The figure pipeline is embarrassingly parallel: every
``(sweep point, workload repetition, scheduler)`` cell generates its own
workload, runs one scheduler, and replays the schedule through the
fading channel — no cell reads another's output.  This module turns
those cells into :class:`WorkUnit`\\ s and runs them through the one
process-pool executor, :func:`repro.sim.resilient.resilient_map`.

Determinism
-----------
A unit's randomness is fully determined by its identity: the workload
seed is ``stable_seed("workload", rep, root=root_seed)`` and the fading
seed ``stable_seed("fading", rep, name, root=root_seed)`` — exactly the
derivation the serial runner has always used.  Results are reassembled
in submission order, so ``n_jobs=4`` is **bit-identical** to the serial
``n_jobs=1`` path (the tests assert equality, not closeness).

Pickling
--------
Work units cross a process boundary, so the workload factory and the
scheduler callables must be picklable: module-level functions,
``functools.partial`` of them, or dataclass instances like
:class:`repro.experiments.config.TopologyWorkload` — not closures or
lambdas.  A pickling failure surfacing from the pool is raised as a
readable ``ValueError`` (see :mod:`repro.sim.resilient`).

Shared geometry
---------------
:func:`execute_units` runs the units through one :class:`UnitRunner`,
which keeps the last unit's link set and distance matrix and hands
them to the next unit with the same workload, ``rep`` and
``root_seed`` (:func:`same_geometry`).  :func:`build_units` is
repetition-major, so a serial run calls each repetition's workload and
builds its N x N distance matrix once rather than once per scheduler.
Every unit still builds its own F matrix, and the slot is dropped when
the runner is pickled, so pool workers start empty.

Observability
-------------
Worker metrics and spans travel home with each result and fold into
the parent's registry in submission order (see
:mod:`repro.sim.resilient`), so the merged metric snapshot is
*byte-identical* to the serial run's — ``n_jobs`` changes neither the
results nor the metrics.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.experiments.store import UnitCheckpoint

import numpy as np

from repro.cache.fingerprint import canonical_channel, config_key, describe_callable
from repro.core.powercontrol import run_scheduler_with_power
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.network.links import LinkSet
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.sim.metrics import SimulationResult
from repro.sim.montecarlo import simulate_schedule
from repro.sim.resilient import RetryPolicy, resilient_map
from repro.utils.rng import stable_seed


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` knob to a concrete worker count.

    ``None`` or ``0`` means "all available CPUs"; positive values are
    taken literally (oversubscription is allowed — useful for testing
    the parallel path on small machines); negatives are rejected.
    """
    if n_jobs is None or n_jobs == 0:
        return available_cpus()
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0 (0 = all CPUs), got {n_jobs}")
    return int(n_jobs)


@dataclass(frozen=True)
class WorkUnit:
    """One independent cell of an experiment grid.

    Executing a unit (:class:`UnitRunner`) regenerates its workload from
    the derived seed, builds the :class:`FadingRLS` instance, runs one
    scheduler, and replays the schedule through the fading channel.
    Units carry everything they need, so they can run in any process in
    any order.

    Attributes
    ----------
    tag:
        Opaque grouping key the caller uses to reassemble results
        (e.g. the sweep-point index); never interpreted here.
    rep:
        Workload repetition index (seeds derive from it).
    name:
        Scheduler name (seeds derive from it; becomes the result's
        algorithm label via the schedule).
    scheduler:
        Picklable scheduler callable ``(problem, **kwargs) -> Schedule``.
    workload:
        Picklable factory ``workload(seed) -> LinkSet``.  It must be a
        pure function of its seed: units of one repetition share the
        link set it returns (:class:`UnitRunner`), so a workload with
        hidden state would give the schedulers different instances
        depending on how the units were executed.
    """

    tag: Any
    rep: int
    name: str
    scheduler: Callable[..., Schedule]
    workload: Callable[[int], LinkSet]
    n_trials: int
    alpha: float
    gamma_th: float
    eps: float
    root_seed: int
    scheduler_kwargs: Mapping[str, Any] = field(default_factory=dict)
    noise: float = 0.0
    max_bytes: Optional[int] = None
    #: Channel-law spec string (``None`` = Rayleigh).  Part of the
    #: checkpoint key — the law changes the sampled trials.
    channel: Optional[str] = None
    #: Named power policy from :data:`repro.core.powercontrol.POWER_POLICIES`.
    #: Part of the checkpoint key — re-powering changes the results.
    power_policy: str = "uniform"


def unit_key(unit: WorkUnit) -> str:
    """Human-readable stable identity of a unit: ``tag/rep/name``.

    This is the address fault plans and backoff derivation use; it
    stays stable across runs, processes, and retries because it is
    built purely from the unit's grid coordinates.
    """
    return f"{unit.tag}/{unit.rep}/{unit.name}"


# The stable callable/channel canonicalisers grew into the shared
# repro.cache.fingerprint module (the schedule cache keys build on
# them); the historical underscore names stay importable and the key
# bytes are pinned unchanged by tests/test_cache_fingerprint.py.
_describe_callable = describe_callable
_canonical_channel = canonical_channel


def checkpoint_key(unit: WorkUnit) -> str:
    """Content hash of everything that determines a unit's result.

    Any change to the unit's workload, scheduler, channel parameters or
    seeds produces a different key, so a checkpoint directory can never
    serve a stale result to a reconfigured sweep.
    """
    return config_key(
        "workunit",
        {
            "tag": repr(unit.tag),
            "rep": unit.rep,
            "name": unit.name,
            "scheduler": _describe_callable(unit.scheduler),
            "workload": _describe_callable(unit.workload),
            "n_trials": unit.n_trials,
            "alpha": unit.alpha,
            "gamma_th": unit.gamma_th,
            "eps": unit.eps,
            "noise": unit.noise,
            "root_seed": unit.root_seed,
            "scheduler_kwargs": sorted(
                (k, repr(v)) for k, v in dict(unit.scheduler_kwargs).items()
            ),
            # Canonical law spec, so "shadowing:sigma_db=6" and its
            # fully-spelled form hash the same; None normalises to the
            # Rayleigh default.
            "channel": _canonical_channel(unit.channel),
            "power_policy": unit.power_policy,
        },
    )


def valid_simulation_result(value: Any) -> bool:
    """Poison detector for unit results: right type, finite summaries."""
    if not isinstance(value, SimulationResult):
        return False
    summaries = (
        value.mean_failed,
        value.failed_stderr,
        value.mean_throughput,
        value.throughput_stderr,
        value.scheduled_rate,
    )
    return all(math.isfinite(float(x)) for x in summaries) and value.n_scheduled >= 0


def same_geometry(a: WorkUnit, b: WorkUnit) -> bool:
    """Do two units draw the same link set?

    A unit's links are ``workload(stable_seed("workload", rep,
    root=root_seed))`` and workloads are pure functions of their seed
    (see :class:`WorkUnit`), so equal workloads at equal ``(rep,
    root_seed)`` give the same links and distance matrix.  The channel
    parameters play no part: they enter only the F matrix.

    Workloads compare with ``==`` and are never hashed or described:
    two closures from one factory share a qualified name but are
    distinct objects, so they never match.  An ``==`` that cannot give
    a truth value (a dataclass over numpy arrays, say) counts as
    different — sharing a geometry is only ever an optimisation.
    """
    if a.rep != b.rep or a.root_seed != b.root_seed:
        return False
    if a.workload is b.workload:
        return True
    try:
        return bool(a.workload == b.workload)
    except (TypeError, ValueError):
        return False


class UnitRunner:
    """Runs :class:`WorkUnit`\\ s, building each repetition's geometry once.

    Executing a unit regenerates its workload from the derived seed,
    builds the :class:`FadingRLS` instance, runs one scheduler, and
    replays the schedule through the fading channel.  The runner keeps
    one slot: the last unit's link set and its distance matrix (made
    read-only).  A unit with the same geometry (:func:`same_geometry`)
    reuses both — :func:`build_units` is repetition-major, so a serial
    run calls each repetition's workload and builds its N x N distance
    matrix once instead of once per scheduler.  Every unit still builds
    its own problem and F matrix, so the ``fmatrix.*`` metrics do not
    depend on which units shared a process.

    Picklable: the slot is dropped on pickling, so pool workers and
    retries start empty and no N x N payload crosses a process
    boundary.
    """

    def __init__(self) -> None:
        self._slot: Optional[Tuple[WorkUnit, LinkSet, np.ndarray]] = None

    def __getstate__(self) -> dict:
        return {"_slot": None}

    def _geometry(self, unit: WorkUnit) -> Tuple[LinkSet, np.ndarray]:
        slot = self._slot
        if slot is not None and same_geometry(slot[0], unit):
            return slot[1], slot[2]
        self._slot = None  # never hold two geometries at once
        links = unit.workload(stable_seed("workload", unit.rep, root=unit.root_seed))
        distances = links.sender_receiver_distances()
        distances.setflags(write=False)
        self._slot = (unit, links, distances)
        return links, distances

    def __call__(self, unit: WorkUnit) -> SimulationResult:
        with span("parallel.unit", rep=unit.rep, algorithm=unit.name):
            links, distances = self._geometry(unit)
            problem = FadingRLS(
                links=links,
                alpha=unit.alpha,
                gamma_th=unit.gamma_th,
                eps=unit.eps,
                noise=unit.noise,
            )
            problem._cache["distances"] = distances
            with span("scheduler.run", algorithm=unit.name):
                schedule, powered = run_scheduler_with_power(
                    problem, unit.scheduler, unit.power_policy, dict(unit.scheduler_kwargs)
                )
            obs_metrics.inc("scheduler.links_admitted", schedule.size)
            return simulate_schedule(
                powered,
                schedule,
                n_trials=unit.n_trials,
                seed=stable_seed("fading", unit.rep, unit.name, root=unit.root_seed),
                max_bytes=unit.max_bytes,
                channel=unit.channel,
            )


def execute_unit(unit: WorkUnit) -> SimulationResult:
    """Run one :class:`WorkUnit` on a fresh :class:`UnitRunner`."""
    return UnitRunner()(unit)


def execute_units(
    units: Sequence[WorkUnit],
    *,
    n_jobs: Optional[int] = 1,
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional["UnitCheckpoint"] = None,
) -> List[SimulationResult]:
    """Execute work units through :func:`resilient_map`, preserving order.

    ``n_jobs=1`` runs in-process, in the same iteration order as the
    historical runner; ``n_jobs=0``/``None`` uses all CPUs.  Results
    land at the same index as their unit regardless of completion
    order, so aggregation downstream is order-stable.  Fault plans
    address the units by :func:`unit_key`.

    ``policy=None`` tries each unit once and lets its exception
    propagate; a :class:`~repro.sim.resilient.RetryPolicy` adds per-unit
    timeout, bounded deterministic-backoff retry, dead-worker pool
    replacement, and serial degradation — results stay bit-identical
    because retried units re-derive the same identity seeds.  With a
    ``checkpoint``, each unit's result persists on first success and
    already-checkpointed units are served from disk, so an interrupted
    sweep resumes from its completed cells; the checkpoint never adds
    retries of its own.
    """
    units = list(units)
    results: List[Optional[SimulationResult]] = [None] * len(units)
    pending = list(range(len(units)))
    ck_keys: List[str] = []
    if checkpoint is not None:
        ck_keys = [checkpoint_key(u) for u in units]
        pending = []
        for i, ck in enumerate(ck_keys):
            cached = checkpoint.get(ck)
            if cached is not None:
                results[i] = cached
                obs_metrics.inc("resilience.units_from_checkpoint")
            else:
                pending.append(i)

    def _persist(sub_idx: int, value: SimulationResult) -> None:
        checkpoint.put(ck_keys[pending[sub_idx]], value)

    computed = resilient_map(
        UnitRunner(),
        [units[i] for i in pending],
        keys=[unit_key(units[i]) for i in pending],
        n_jobs=n_jobs,
        policy=policy,
        validate=valid_simulation_result,
        on_result=_persist if checkpoint is not None else None,
    )
    for i, value in zip(pending, computed):
        results[i] = value
    return results  # type: ignore[return-value]


def build_units(
    schedulers: Mapping[str, Callable[..., Schedule]],
    workload: Callable[[int], LinkSet],
    *,
    tag: Any = None,
    n_repetitions: int,
    n_trials: int,
    alpha: float,
    gamma_th: float,
    eps: float,
    root_seed: int,
    scheduler_kwargs: Optional[Mapping[str, dict]] = None,
    noise: float = 0.0,
    max_bytes: Optional[int] = None,
    channel: Optional[str] = None,
    power_policy: str = "uniform",
) -> List[WorkUnit]:
    """The ``rep x scheduler`` unit grid for one sweep point.

    Rep-major, scheduler-minor — the same nesting as the serial loops,
    so zipping results back by index reproduces the historical
    aggregation order exactly.
    """
    kwargs_map = dict(scheduler_kwargs or {})
    return [
        WorkUnit(
            tag=tag,
            rep=rep,
            name=name,
            scheduler=scheduler,
            workload=workload,
            n_trials=n_trials,
            alpha=alpha,
            gamma_th=gamma_th,
            eps=eps,
            root_seed=root_seed,
            scheduler_kwargs=kwargs_map.get(name, {}),
            noise=noise,
            max_bytes=max_bytes,
            channel=channel,
            power_policy=power_policy,
        )
        for rep in range(n_repetitions)
        for name, scheduler in schedulers.items()
    ]
