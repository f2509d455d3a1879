"""Zero-copy shared-memory fan-out for work-unit grids.

The plain executor ships each :class:`~repro.sim.parallel.WorkUnit`
with a workload *factory*.  In one process its
:class:`~repro.sim.parallel.UnitRunner` builds each repetition's link
set and distance matrix once, but every ``(rep, scheduler)`` cell still
builds its own O(N^2) interference-factor matrix — a sweep with ``S``
schedulers pays the F-build ``S`` times per repetition — and a pool
worker, which receives its units one at a time, regenerates the link
set and distances too.  The sharedmem backend instead
materialises each repetition's problem **once** in the parent, places
the arrays in ``multiprocessing.shared_memory`` segments, and fans out
:class:`SharedUnit`\\ s that carry only segment names + shapes
(:class:`ShmArrayRef`).  Workers map the segments read-only; the
problem cache is pre-seeded with the shared distance and F matrices, so
no worker ever rebuilds or copies them.

Lifecycle and leak guards
-------------------------
Segments are owned by the parent's :class:`ShmArena`:

- the arena is a context manager; :func:`repro.sim.parallel.execute_units`
  closes it in a ``finally`` even when the map raises;
- an ``atexit`` hook closes any arena that survives to interpreter
  shutdown (crash-path guard), and the chaos suite asserts no segment
  outlives a run even when workers are killed mid-unit;
- on this Python (3.11+ POSIX) *attaching* registers the segment with
  the ``multiprocessing.resource_tracker`` again.  What to do about
  that depends on whose tracker the attaching process talks to.  A
  **fork**-started worker inherits the parent's tracker: the re-register
  is an idempotent set-add and must be left alone — unregistering would
  strip the parent's create-side entry and break its leak guard.  A
  **spawn**-started worker owns a private tracker: there the entry must
  be dropped, or the worker's tracker "cleans up" (unlinks) the parent's
  live segments when the worker exits.  :func:`attach` distinguishes the
  two by whether the process already had a running tracker before its
  first attach (inherited ⇒ shared; fresh ⇒ private).
- workers cache attachments per segment name with a small LRU bound, so
  a long-lived pool serving many repetition groups releases mappings of
  segments the parent has already unlinked instead of pinning their
  memory until pool shutdown.

Interop with the resilient executor: a pool rebuild kills workers
outright; their mappings die with them (the kernel drops the reference
counts), the parent's segments remain valid, and resubmitted units
re-attach in the fresh workers.  The final serial-fallback attempt
attaches from the parent process itself, which is equally valid.
"""

from __future__ import annotations

import atexit
import os
import secrets
import weakref
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.network.links import LinkSet
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.sim.metrics import SimulationResult
from repro.utils.rng import stable_seed


@dataclass(frozen=True)
class ShmArrayRef:
    """A picklable pointer to an array in a shared-memory segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


#: Arenas still open in this process (leak guard; see :func:`_atexit_sweep`).
_LIVE_ARENAS: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


def _atexit_sweep() -> None:  # pragma: no cover - crash-path guard
    for arena in list(_LIVE_ARENAS):
        arena.close()


atexit.register(_atexit_sweep)


class ShmArena:
    """Parent-side owner of a set of shared-memory segments.

    ``share`` copies an array into a fresh segment and returns its
    :class:`ShmArrayRef`; ``close`` unlinks everything.  Closing twice
    is safe; segments are unlinked exactly once.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._closed = False
        self._seq = 0
        _LIVE_ARENAS.add(self)

    def share(self, array: np.ndarray) -> ShmArrayRef:
        """Materialise ``array`` in a new segment (one copy, at create)."""
        if self._closed:
            raise RuntimeError("arena is closed")
        arr = np.ascontiguousarray(array)
        # Short names keep POSIX shm_open happy on every platform
        # (macOS caps them at 31 chars); the token guards against the
        # pid being recycled while a stale segment lingers.
        name = f"rls{os.getpid() % 1000000}x{self._seq}x{secrets.token_hex(3)}"
        self._seq += 1
        seg = shared_memory.SharedMemory(name=name, create=True, size=max(1, arr.nbytes))
        self._segments.append(seg)
        if arr.nbytes:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            view[...] = arr
        obs_metrics.inc("backend.shm_segments_created")
        obs_metrics.inc("backend.shm_bytes_shared", int(arr.nbytes))
        return ShmArrayRef(name=seg.name, shape=tuple(arr.shape), dtype=arr.dtype.str)

    def segment_names(self) -> List[str]:
        """Names of the segments this arena currently owns."""
        return [seg.name for seg in self._segments]

    def close(self) -> None:
        """Unlink every owned segment (idempotent, best-effort)."""
        if self._closed:
            return
        self._closed = True
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
                obs_metrics.inc("backend.shm_segments_unlinked")
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        _LIVE_ARENAS.discard(self)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-path guard
        try:
            self.close()
        except Exception:
            pass


#: Worker-side attachment cache: segment name -> (handle, read-only array).
#: Segments are immutable once shared, so a worker maps each one once and
#: serves every subsequent unit from the same mapping (zero copies).  The
#: cache is insertion-ordered and LRU-bounded: one payload attaches five
#: segments, so the bound keeps dozens of recent groups hot while letting
#: a long-lived pool drop mappings of segments already unlinked upstream.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}
_ATTACH_CACHE_MAX = 64

#: Lazily computed, once per process: does this process own a *private*
#: resource tracker (spawn-started worker), in which case attach-side
#: registrations must be dropped?  ``None`` = not yet decided.  Inherited
#: trackers (fork workers, the parent itself) already hold the create-side
#: entry, and unregistering there would strip the parent's leak guard.
_PRIVATE_TRACKER: Optional[bool] = None


def _has_private_tracker() -> bool:
    global _PRIVATE_TRACKER
    if _PRIVATE_TRACKER is None:
        tracker = getattr(resource_tracker, "_resource_tracker", None)
        # A tracker with a live fd was started before this call — either
        # by this process (parent creating segments) or pre-fork (shared
        # with the parent).  A fresh spawn-started worker has no fd yet.
        _PRIVATE_TRACKER = getattr(tracker, "_fd", None) is None
    return _PRIVATE_TRACKER


def attach(ref: ShmArrayRef) -> np.ndarray:
    """Map a shared array read-only (cached per process)."""
    cached = _ATTACHED.pop(ref.name, None)
    if cached is not None:
        _ATTACHED[ref.name] = cached  # refresh LRU position
        obs_metrics.inc("backend.shm_attach_hits")
        return cached[1]
    # Decide tracker ownership *before* SharedMemory() lazily starts one.
    private_tracker = _has_private_tracker()
    seg = shared_memory.SharedMemory(name=ref.name)
    if private_tracker:
        try:
            # This spawn-started worker's own tracker would unlink the
            # parent's segment at worker exit; drop the attach-side entry.
            resource_tracker.unregister(seg._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - tracker variations
            pass
    arr = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
    arr.setflags(write=False)
    while len(_ATTACHED) >= _ATTACH_CACHE_MAX:
        oldest = next(iter(_ATTACHED))
        old_seg, _ = _ATTACHED.pop(oldest)
        try:
            old_seg.close()
        except Exception:  # pragma: no cover - best-effort eviction
            pass
    _ATTACHED[ref.name] = (seg, arr)
    obs_metrics.inc("backend.shm_attaches")
    return arr


def detach_all() -> None:
    """Drop this process's attachment cache (tests / explicit cleanup)."""
    for seg, _ in _ATTACHED.values():
        try:
            seg.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    _ATTACHED.clear()


@dataclass(frozen=True)
class SharedProblemPayload:
    """Everything a worker needs to reconstruct a problem, zero-copy.

    Geometry, distance matrix, and F matrix live in shared segments;
    scalars travel inline.  ``build_problem`` attaches the arrays and
    pre-seeds the :class:`FadingRLS` cache, so the worker never runs
    the O(N^2) builds.
    """

    senders: ShmArrayRef
    receivers: ShmArrayRef
    rates: ShmArrayRef
    distances: ShmArrayRef
    fmatrix: ShmArrayRef
    alpha: float
    gamma_th: float
    eps: float
    noise: float

    def build_problem(self) -> FadingRLS:
        """Attach the shared arrays and assemble a cache-seeded problem."""
        with span("backend.shm_attach", n=self.fmatrix.shape[0]):
            links = LinkSet(
                senders=attach(self.senders),
                receivers=attach(self.receivers),
                rates=attach(self.rates),
            )
            problem = FadingRLS(
                links=links,
                alpha=self.alpha,
                gamma_th=self.gamma_th,
                eps=self.eps,
                noise=self.noise,
            )
            problem._cache["distances"] = attach(self.distances)
            problem._cache["F"] = attach(self.fmatrix)
        return problem


@dataclass(frozen=True)
class SharedUnit:
    """A work unit whose problem lives in shared memory.

    Mirrors :class:`~repro.sim.parallel.WorkUnit` minus the workload
    factory (the parent already ran it) plus the shared payload.  Seeds
    still derive from the unit identity, so results are bit-identical
    to the plain executor's.
    """

    tag: Any
    rep: int
    name: str
    scheduler: Callable[..., Schedule]
    payload: SharedProblemPayload
    n_trials: int
    root_seed: int
    scheduler_kwargs: Mapping[str, Any] = field(default_factory=dict)
    noise: float = 0.0
    max_bytes: Optional[int] = None
    channel: Optional[str] = None
    power_policy: str = "uniform"


def execute_shared_unit(unit: SharedUnit) -> SimulationResult:
    """Run one :class:`SharedUnit` — the sharedmem worker function."""
    from repro.backend import base
    from repro.core.powercontrol import run_scheduler_with_power
    from repro.sim.montecarlo import simulate_schedule

    with base.use("sharedmem"):
        with span("parallel.unit", rep=unit.rep, algorithm=unit.name):
            problem = unit.payload.build_problem()
            with span("scheduler.run", algorithm=unit.name):
                # Re-powering drops the shared F cache (with_powers), so
                # the non-uniform policies rebuild F from the attached
                # distances — the same bits the plain executor computes.
                schedule, powered = run_scheduler_with_power(
                    problem,
                    unit.scheduler,
                    unit.power_policy,
                    dict(unit.scheduler_kwargs),
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


def _same_problem(a, b) -> bool:
    """Do two units build the same problem (geometry and F matrix)?"""
    from repro.sim.parallel import same_geometry

    params = (a.alpha, a.gamma_th, a.eps, a.noise)
    return params == (b.alpha, b.gamma_th, b.eps, b.noise) and same_geometry(a, b)


def materialize_units(units) -> Tuple[List[SharedUnit], ShmArena]:
    """Build each distinct problem once and share it across its units.

    Units share a problem when they have the same geometry
    (:func:`repro.sim.parallel.same_geometry`: equal workloads, compared
    with ``==``, at the same repetition and root seed) and the same
    channel parameters, which enter the shared F matrix.  One
    :class:`SharedProblemPayload` per group backs every unit in it.
    The caller owns the returned arena and must ``close()`` it after
    the map completes (segments must outlive the last worker attach).
    """
    arena = ShmArena()
    # (rep, root_seed) -> [(first unit, payload), ...]; workloads are
    # compared, never hashed, so only the scalar coordinates key the dict.
    groups: Dict[Tuple, List[Tuple[Any, SharedProblemPayload]]] = {}
    shared: List[SharedUnit] = []
    try:
        with span("backend.shm_materialize", units=len(units)):
            for unit in units:
                bucket = groups.setdefault((unit.rep, unit.root_seed), [])
                payload = next((p for u, p in bucket if _same_problem(u, unit)), None)
                if payload is None:
                    links = unit.workload(
                        stable_seed("workload", unit.rep, root=unit.root_seed)
                    )
                    problem = FadingRLS(
                        links=links,
                        alpha=unit.alpha,
                        gamma_th=unit.gamma_th,
                        eps=unit.eps,
                        noise=unit.noise,
                    )
                    payload = SharedProblemPayload(
                        senders=arena.share(links.senders),
                        receivers=arena.share(links.receivers),
                        rates=arena.share(links.rates),
                        distances=arena.share(problem.distances()),
                        fmatrix=arena.share(problem.interference_matrix()),
                        alpha=unit.alpha,
                        gamma_th=unit.gamma_th,
                        eps=unit.eps,
                        noise=unit.noise,
                    )
                    bucket.append((unit, payload))
                    obs_metrics.inc("backend.problems_shared")
                shared.append(
                    SharedUnit(
                        tag=unit.tag,
                        rep=unit.rep,
                        name=unit.name,
                        scheduler=unit.scheduler,
                        payload=payload,
                        n_trials=unit.n_trials,
                        root_seed=unit.root_seed,
                        scheduler_kwargs=unit.scheduler_kwargs,
                        noise=unit.noise,
                        max_bytes=unit.max_bytes,
                        channel=unit.channel,
                        power_policy=unit.power_policy,
                    )
                )
    except Exception:
        arena.close()
        raise
    return shared, arena
