"""The process-pool executor: one order-preserving map for every fan-out.

:func:`resilient_map` is the only way the library runs a grid of
independent items — the figure sweeps' work units
(:func:`repro.sim.parallel.execute_units`), the ablation and trade-off
repetitions, the workload stability probes and the
``serial-vs-parallel`` differential check.  ``n_jobs=1`` (or a single
item) is a plain loop in the calling process; otherwise the items run
on a :class:`~concurrent.futures.ProcessPoolExecutor`.  Results come
back in submission order either way.

Policy
------
``policy=None`` (the default) tries each item once: the item's own
exception propagates unchanged (a dead worker surfaces as
``BrokenProcessPool``), there is no backoff, no serial fallback and no
``resilience.*`` counter.  A :class:`RetryPolicy` turns a worker crash,
hang, dead process or poisoned result into one retry instead of the
loss of the whole sweep.

Supervision model (with a policy)
---------------------------------
Every item gets ``max_retries + 2`` total tries: the initial attempt,
``max_retries`` pool retries with deterministic exponential backoff,
and — once pool retries are exhausted — one final **serial** attempt in
the coordinating process (graceful degradation: a sick pool can no
longer lose the unit).  Only when that last try fails does the map
raise, and then it raises :class:`UnitExecutionError` naming the unit
and carrying every recorded :class:`UnitFailure`.

Failure detection, per kind:

- **exception** — the future completes with an error; that unit retries.
- **timeout** — ``unit_timeout`` seconds elapse after submission.  A
  hung task holds its worker hostage, so the pool is abandoned
  (processes killed) and rebuilt; the timed-out unit is charged a
  retry, in-flight innocents are resubmitted at their current attempt.
- **dead worker** — the pool turns ``BrokenProcessPool``.  The executor
  cannot attribute the death, so every in-flight unit is charged one
  retry (bounded blast radius) and the pool is rebuilt.
- **poison** — the future returns, but the value fails validation
  (``validate`` or an injected :class:`~repro.faults.inject.PoisonResult`);
  charged like an exception.  Without a policy a poisoned value raises
  :class:`UnitExecutionError` at once.

Determinism under retry
-----------------------
A retry re-submits the *same item* to the *same function*; per-unit
seeds derive from unit identity (see :mod:`repro.sim.parallel`), never
from the attempt number or worker, so a recovered run is bit-identical
to a fault-free run.  Backoff delays derive from
``stable_seed(unit key, attempt)`` — deterministic, monotone
non-decreasing per attempt, and capped — so even retry *timing* is
reproducible.

Serial mode (``n_jobs=1``) applies the same retry budget in-process;
``unit_timeout`` is not enforceable without preemption there, but hang
faults still terminate because injected hangs sleep-then-raise.

Observability
-------------
Every call records one ``parallel.map`` span and adds the item count to
the ``parallel.items_mapped`` counter.  With :mod:`repro.obs` enabled,
each pool try resets the worker's registries, runs, and ships its
metric snapshot and drained spans home with the value.  The parent
folds the payloads of the successful tries into its own registry **in
submission order** and re-attaches their spans (tagged with the item
index) under its open span.  Because the metric instruments only use
exact, associative aggregations (see :mod:`repro.obs.metrics`), the
merged snapshot is *byte-identical* to the serial run's — ``n_jobs``
changes neither the results nor the metrics.  Execution-plan events
land in volatile ``resilience.*`` counters, excluded from that contract
(see ``docs/OBSERVABILITY.md``).

Pickling
--------
For ``n_jobs > 1`` the function and every item must be picklable:
module-level functions, ``functools.partial`` of them, or dataclass
instances — not closures or lambdas.  Nothing is probe-pickled up
front (the pool pickles every submission anyway); a pickling failure
surfacing from the pool is diagnosed after the fact and raised as a
readable ``ValueError`` instead of being charged as a retry.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.faults import inject
from repro.obs import metrics as obs_metrics
from repro.obs import state as _obs_state
from repro.obs import trace as _obs_trace
from repro.obs.trace import span
from repro.utils.rng import stable_seed


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the resilient executor.

    Attributes
    ----------
    max_retries:
        Pool retries per unit after the initial attempt.  Every unit
        additionally gets one last serial attempt in the parent, so the
        total try budget is ``max_retries + 2``.
    unit_timeout:
        Wall-clock seconds a unit may run in a worker before it is
        declared hung (``None`` disables timeout supervision; serial
        mode never preempts).
    backoff_base, backoff_cap:
        Deterministic exponential backoff before retry ``a`` (1-based):
        ``min(cap, base * 2^(a-1) * (1 + u))`` with ``u`` in ``[0, 1)``
        derived from ``stable_seed(unit key, a)``.  Total sleep per unit
        is strictly bounded by ``(max_retries + 1) * backoff_cap``.
    poll_interval:
        Seconds between supervision sweeps (future completion polls and
        deadline checks).
    """

    max_retries: int = 2
    unit_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.unit_timeout is not None and not self.unit_timeout > 0:
            raise ValueError(f"unit_timeout must be > 0, got {self.unit_timeout}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_cap < 0:
            raise ValueError(f"backoff_cap must be >= 0, got {self.backoff_cap}")
        if not self.poll_interval > 0:
            raise ValueError(f"poll_interval must be > 0, got {self.poll_interval}")

    @property
    def total_tries(self) -> int:
        """Initial attempt + pool retries + final serial fallback."""
        return self.max_retries + 2


def backoff_delay(key: str, attempt: int, policy: RetryPolicy) -> float:
    """Deterministic backoff (seconds) before 1-based retry ``attempt``.

    Pure in ``(key, attempt, policy)``: the jitter term is a hash of the
    unit key and attempt, not a random draw, so schedules are
    reproducible and testable.  Monotone non-decreasing in ``attempt``
    (the doubling dominates the jitter) and capped at
    ``policy.backoff_cap``.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    if policy.backoff_base == 0.0:
        return 0.0
    u = stable_seed("backoff", key, attempt) / float(1 << 63)
    raw = policy.backoff_base * (2.0 ** (attempt - 1)) * (1.0 + u)
    return min(policy.backoff_cap, raw)


@dataclass(frozen=True)
class UnitFailure:
    """One failed try of one unit (kept for the structured error)."""

    key: str
    attempt: int
    kind: str  # "error" | "timeout" | "poison" | "pool-broken"
    detail: str


class UnitExecutionError(RuntimeError):
    """A unit failed every try in its budget; names the unit."""

    def __init__(self, key: str, index: int, failures: Sequence[UnitFailure]):
        self.key = key
        self.index = index
        self.failures: Tuple[UnitFailure, ...] = tuple(failures)
        kinds = ", ".join(f.kind for f in self.failures)
        last = self.failures[-1].detail if self.failures else "no failure recorded"
        super().__init__(
            f"work unit {key!r} (index {index}) failed permanently after "
            f"{len(self.failures)} failed tries ({kinds}); last: {last}"
        )


def _invoke(func: Callable[[Any], Any], item: Any, key: str, attempt: int) -> Any:
    """Run one try: fault-injection gate first, then the real unit."""
    poisoned = inject.maybe_inject(key, attempt)
    if poisoned is not None:
        return poisoned
    return func(item)


def _run_task(
    func: Callable[[Any], Any], item: Any, key: str, attempt: int, observed: bool
) -> Tuple[Any, Any, Any]:
    """Worker-process entry point (module-level, hence picklable).

    With observability on: fresh registries per try, and the try's
    metric snapshot plus drained spans ride home with the value.
    """
    if not observed:
        return _invoke(func, item, key, attempt), None, None
    _obs_state.enable()
    obs_metrics.reset()
    _obs_trace.reset()
    value = _invoke(func, item, key, attempt)
    return value, obs_metrics.snapshot(), _obs_trace.drain_spans()


def _looks_like_pickling_error(exc: BaseException) -> bool:
    """Is this pool-surfaced exception a serialization failure?

    Submit-side (and result-side) pickling failures arrive as
    ``PicklingError``, or as ``AttributeError``/``TypeError`` whose
    message names pickling (``"Can't pickle local object ..."``,
    ``"cannot pickle '...' object"``).
    """
    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (AttributeError, TypeError)) and "pickle" in str(exc).lower()


def _raise_pickling_diagnosis(
    func: Callable[..., Any], items: Sequence[Any], exc: BaseException
) -> None:
    """Turn a pool pickling failure into a readable ``ValueError``.

    Runs only on the failure path, so the happy path pickles each
    submission exactly once (in the pool).  Pinpoints the offender by
    probing ``func`` first, then each item.
    """
    try:
        pickle.dumps(func)
    except Exception as func_exc:
        raise ValueError(
            f"func must be picklable for n_jobs > 1 (module-level function "
            f"or functools.partial of one): {func_exc}"
        ) from exc
    for i, item in enumerate(items):
        try:
            pickle.dumps(item)
        except Exception as item_exc:
            raise ValueError(
                "work units must be picklable for n_jobs > 1: define workload "
                "factories and schedulers at module level (e.g. "
                "repro.experiments.config.TopologyWorkload) instead of "
                f"closures or lambdas (item {i}: {item_exc})"
            ) from exc
    # Everything probes clean (e.g. an unpicklable *result*); still a
    # serialization problem, so keep the readable framing.
    raise ValueError(
        f"serialization across the process pool failed for n_jobs > 1: {exc}"
    ) from exc


def _poison_reason(value: Any, validate: Optional[Callable[[Any], bool]]) -> Optional[str]:
    """Why ``value`` is unusable, or ``None`` if it is a real result."""
    if isinstance(value, inject.PoisonResult):
        return f"injected poison result (attempt {value.attempt})"
    if validate is not None and not validate(value):
        return f"result failed validation: {type(value).__name__}"
    return None


def _backoff_sleep(key: str, attempt: int, policy: RetryPolicy) -> None:
    delay = backoff_delay(key, attempt, policy)
    if delay <= 0.0:
        return
    with span("resilience.backoff", attempt=attempt):
        time.sleep(delay)


def _abandon(pool: ProcessPoolExecutor) -> None:
    """Discard a pool without waiting on it: hung workers are killed.

    ``shutdown(wait=True)`` would block on a sleeping worker; instead
    the queues are torn down and the processes killed outright (their
    tasks are already accounted for by the supervision loop).
    """
    # Snapshot the worker processes BEFORE shutdown(): it unconditionally
    # drops the executor's reference (``self._processes = None``), so
    # reading it afterwards finds nothing and hung workers would survive
    # to stall interpreter exit until their sleep expires.
    processes = dict(getattr(pool, "_processes", None) or {})
    # The executor's manager thread reaps the same pids.  Whichever
    # waitpid() loses that race gets ECHILD, and until the manager
    # records the exit code, ``Process.is_alive()`` reads True for a
    # dead worker.  Joining the manager (snapshotted too: shutdown()
    # drops it as well) after the kills settles every exit code before
    # this returns.
    manager = getattr(pool, "_executor_manager_thread", None)
    # Forget pending work before the kill lands: the manager thread's
    # broken-pool path sets an exception on every pending future, racing
    # the ones the supervision loop already resolved (InvalidStateError
    # in the manager thread).  Supervision keeps its own futures map, so
    # the executor's bookkeeping can be dropped wholesale.
    pending = getattr(pool, "_pending_work_items", None)
    if pending is not None:
        pending.clear()
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes.values():
        try:
            proc.kill()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    for proc in processes.values():
        try:
            proc.join(timeout=1.0)  # reap; SIGKILL lands immediately
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    if manager is not None:
        manager.join(timeout=5.0)


def _serial_unit(
    func: Callable[[Any], Any],
    item: Any,
    key: str,
    index: int,
    policy: Optional[RetryPolicy],
    validate: Optional[Callable[[Any], bool]],
    on_result: Optional[Callable[[int, Any], None]],
) -> Any:
    """The in-process path (``n_jobs=1``): one try, or the retry loop."""
    if policy is None:
        value = _invoke(func, item, key, 0)
        reason = _poison_reason(value, validate)
        if reason is not None:
            raise UnitExecutionError(key, index, [UnitFailure(key, 0, "poison", reason)])
        if on_result is not None:
            on_result(index, value)
        return value
    failures: List[UnitFailure] = []
    for attempt in range(policy.total_tries):
        if attempt:
            obs_metrics.inc("resilience.retries")
            _backoff_sleep(key, attempt, policy)
        try:
            value = _invoke(func, item, key, attempt)
        except Exception as exc:
            failures.append(
                UnitFailure(key, attempt, "error", f"{type(exc).__name__}: {exc}")
            )
            obs_metrics.inc("resilience.failures")
            continue
        reason = _poison_reason(value, validate)
        if reason is not None:
            failures.append(UnitFailure(key, attempt, "poison", reason))
            obs_metrics.inc("resilience.failures")
            continue
        if failures:
            obs_metrics.inc("resilience.units_recovered")
        if on_result is not None:
            on_result(index, value)
        return value
    raise UnitExecutionError(key, index, failures)


def resilient_map(
    func: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    keys: Optional[Sequence[str]] = None,
    n_jobs: Optional[int] = 1,
    policy: Optional[RetryPolicy] = None,
    validate: Optional[Callable[[Any], bool]] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Order-preserving map over a process pool (see the module docstring).

    Parameters
    ----------
    func, items:
        The map; both must be picklable for ``n_jobs > 1``.
    n_jobs:
        Worker processes (:func:`repro.sim.parallel.resolve_n_jobs`):
        ``1`` (or a single item) runs in the calling process with no
        pickling, ``0``/``None`` uses all CPUs.
    keys:
        Stable per-item identity strings (fault-plan addressing,
        backoff derivation, error messages).  Defaults to
        ``"item-<index>"``.
    policy:
        ``None`` tries each item once and lets its exception propagate
        unchanged; a :class:`RetryPolicy` adds timeouts, retries, pool
        replacement and the serial fallback.
    validate:
        Optional result predicate; a falsy verdict counts as a poison
        failure (a retry under a policy, :class:`UnitExecutionError`
        without one).
    on_result:
        Parent-side hook ``(index, value)`` invoked once per item on
        its first success, in *completion* order — the checkpoint
        write-through.
    """
    from repro.sim.parallel import resolve_n_jobs

    items = list(items)
    if keys is None:
        keys = [f"item-{i}" for i in range(len(items))]
    keys = [str(k) for k in keys]
    if len(keys) != len(items):
        raise ValueError(f"got {len(keys)} keys for {len(items)} items")
    workers = max(1, min(resolve_n_jobs(n_jobs), len(items)))
    obs_metrics.inc("parallel.items_mapped", len(items))
    with span("parallel.map", items=len(items), jobs=workers):
        if workers == 1:
            return [
                _serial_unit(func, item, key, i, policy, validate, on_result)
                for i, (item, key) in enumerate(zip(items, keys))
            ]
        return _pool_map(func, items, keys, workers, policy, validate, on_result)


def _pool_map(
    func: Callable[[Any], Any],
    items: List[Any],
    keys: List[str],
    workers: int,
    policy: Optional[RetryPolicy],
    validate: Optional[Callable[[Any], bool]],
    on_result: Optional[Callable[[int, Any], None]],
) -> List[Any]:
    """Supervised pool execution: one try per item, or with a policy
    retry, timeout, and pool rebuild."""
    unit_timeout = policy.unit_timeout if policy is not None else None
    poll_interval = policy.poll_interval if policy is not None else None
    n = len(items)
    observed = _obs_state.enabled
    results: Dict[int, Any] = {}
    payloads: Dict[int, Tuple[Any, Any]] = {}
    attempts: List[int] = [0] * n
    failures: List[List[UnitFailure]] = [[] for _ in range(n)]
    needs_submit: Set[int] = set(range(n))
    futures: Dict[Future, int] = {}
    deadlines: Dict[Future, Optional[float]] = {}
    pool = ProcessPoolExecutor(max_workers=workers)

    def succeed(idx: int, value: Any, payload: Optional[Tuple[Any, Any]]) -> None:
        results[idx] = value
        if payload is not None:
            payloads[idx] = payload
        if failures[idx]:
            obs_metrics.inc("resilience.units_recovered")
        if on_result is not None:
            on_result(idx, value)

    def fail(idx: int, kind: str, detail: str, exc: Optional[BaseException] = None) -> None:
        """Charge one failed try; retry in-pool or degrade to serial.

        Without a policy the first failure ends the map: ``exc`` (the
        item's own exception, or the broken pool) propagates unchanged,
        and a poisoned value raises :class:`UnitExecutionError`.
        """
        if policy is None:
            if exc is not None:
                raise exc
            raise UnitExecutionError(keys[idx], idx, [UnitFailure(keys[idx], 0, kind, detail)])
        failures[idx].append(UnitFailure(keys[idx], attempts[idx], kind, detail))
        obs_metrics.inc("resilience.failures")
        attempts[idx] += 1
        if attempts[idx] <= policy.max_retries:
            obs_metrics.inc("resilience.retries")
            needs_submit.add(idx)
            return
        # Pool retries exhausted: last-resort serial attempt in-parent.
        # Metrics/spans it records land in the live registry directly;
        # counters and histograms are order-free, so the fold stays
        # byte-identical (gauges are not used on the unit path).
        obs_metrics.inc("resilience.serial_fallbacks")
        attempt = attempts[idx]
        try:
            value = _invoke(func, items[idx], keys[idx], attempt)
        except Exception as exc:
            failures[idx].append(
                UnitFailure(keys[idx], attempt, "error", f"{type(exc).__name__}: {exc}")
            )
            obs_metrics.inc("resilience.failures")
            raise UnitExecutionError(keys[idx], idx, failures[idx])
        reason = _poison_reason(value, validate)
        if reason is not None:
            failures[idx].append(UnitFailure(keys[idx], attempt, "poison", reason))
            obs_metrics.inc("resilience.failures")
            raise UnitExecutionError(keys[idx], idx, failures[idx])
        succeed(idx, value, None)

    def rebuild() -> None:
        nonlocal pool
        _abandon(pool)
        obs_metrics.inc("resilience.pool_rebuilds")
        pool = ProcessPoolExecutor(max_workers=workers)

    try:
        while len(results) < n:
            for idx in sorted(needs_submit):
                attempt = attempts[idx]
                if attempt:
                    _backoff_sleep(keys[idx], attempt, policy)
                fut = pool.submit(_run_task, func, items[idx], keys[idx], attempt, observed)
                futures[fut] = idx
                deadlines[fut] = (
                    time.monotonic() + unit_timeout if unit_timeout is not None else None
                )
            needs_submit.clear()
            if not futures:
                if len(results) < n:  # pragma: no cover - supervision invariant
                    raise RuntimeError("resilient pool lost track of unfinished units")
                break
            done, _ = wait(set(futures), timeout=poll_interval, return_when=FIRST_COMPLETED)
            broken = False
            for fut in done:
                idx = futures.pop(fut)
                deadlines.pop(fut, None)
                try:
                    value, snap, spans = fut.result()
                except BrokenExecutor as exc:
                    broken = True
                    fail(idx, "pool-broken", f"{type(exc).__name__}: {exc}", exc)
                except Exception as exc:
                    if _looks_like_pickling_error(exc):
                        # Deterministic environment error, not a fault:
                        # retrying (and eventually "succeeding" via the
                        # in-parent serial fallback, which never pickles)
                        # would mask it.  Fail fast with the readable
                        # diagnosis instead.
                        _raise_pickling_diagnosis(func, items, exc)
                    fail(idx, "error", f"{type(exc).__name__}: {exc}", exc)
                else:
                    reason = _poison_reason(value, validate)
                    if reason is not None:
                        fail(idx, "poison", reason)
                    else:
                        succeed(idx, value, (snap, spans) if observed else None)
            if broken:
                # The pool is unusable and the death is unattributable:
                # charge every in-flight unit one try (bounded blast
                # radius) and start a fresh pool.
                for fut, idx in list(futures.items()):
                    fail(idx, "pool-broken", "worker process died; pool became unusable")
                futures.clear()
                deadlines.clear()
                rebuild()
                continue
            if unit_timeout is not None and futures:
                now = time.monotonic()
                hung = [f for f, dl in deadlines.items() if dl is not None and now >= dl]
                if hung:
                    for fut in hung:
                        idx = futures.pop(fut)
                        deadlines.pop(fut, None)
                        obs_metrics.inc("resilience.timeouts")
                        fail(
                            idx,
                            "timeout",
                            f"unit exceeded unit_timeout={unit_timeout}s",
                        )
                    # Hung tasks hold their workers hostage — abandon the
                    # pool; in-flight innocents resubmit at their current
                    # attempt (no retry charged).
                    for fut, idx in list(futures.items()):
                        needs_submit.add(idx)
                    futures.clear()
                    deadlines.clear()
                    rebuild()
    finally:
        _abandon(pool)

    if observed:
        # Fold worker payloads in submission (index) order — the same
        # order the serial path produces, hence byte-identical snapshots.
        for idx in range(n):
            payload = payloads.get(idx)
            if payload is None:
                continue
            snap, spans = payload
            if snap:
                obs_metrics.merge_into_registry(snap)
            if spans:
                _obs_trace.absorb_spans(spans, proc=idx)
    return [results[i] for i in range(n)]
