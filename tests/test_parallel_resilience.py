"""Chaos tests for the fault-tolerant executor (`repro.sim.resilient`).

The headline guarantees under test:

- injected crashes, worker deaths, hangs, poisoned results, and memory
  blowouts are *recovered*: the map completes;
- recovered results are **bit-identical** to a fault-free run, for
  ``n_jobs`` in {1, 2, 4} — retries re-derive the same identity seeds;
- stable metric snapshots (volatile ``resilience.*`` names stripped)
  are byte-identical across fault histories and worker counts;
- a unit that exhausts its whole retry budget surfaces a structured
  :class:`UnitExecutionError` naming the unit.
"""

import numpy as np
import pytest

from repro.core.base import get_scheduler
from repro.experiments.config import TopologyWorkload
from repro.faults import FaultPlan, FaultSpec, InjectedFault, injected
from repro.obs import metrics as obs_metrics
from repro.sim.parallel import build_units, unit_key
from repro.sim.resilient import (
    RetryPolicy,
    UnitExecutionError,
    resilient_map,
)
from repro.sim.runner import run_schedulers

pytestmark = pytest.mark.chaos

WORKLOAD = TopologyWorkload(n_links=25)
SCHEDULERS = {"rle": get_scheduler("rle"), "ldp": get_scheduler("ldp")}
N_REPS = 2
N_TRIALS = 40


def _unit_keys():
    """The unit keys `run_schedulers` will derive for our tiny grid."""
    units = build_units(
        SCHEDULERS,
        WORKLOAD,
        n_repetitions=N_REPS,
        n_trials=N_TRIALS,
        alpha=3.0,
        gamma_th=1.0,
        eps=0.01,
        root_seed=11,
    )
    return [unit_key(u) for u in units]


def _run(n_jobs, policy=None):
    return run_schedulers(
        SCHEDULERS,
        WORKLOAD,
        n_repetitions=N_REPS,
        n_trials=N_TRIALS,
        root_seed=11,
        n_jobs=n_jobs,
        policy=policy,
    )


def _assert_identical(got, want):
    """Exact (bitwise) equality of two run_schedulers outputs."""
    assert got.keys() == want.keys()
    for name in want:
        for a, b in zip(got[name].per_rep, want[name].per_rep):
            assert a.algorithm == b.algorithm
            assert a.n_scheduled == b.n_scheduled
            assert a.mean_failed == b.mean_failed
            assert a.failed_stderr == b.failed_stderr
            assert a.mean_throughput == b.mean_throughput
            assert a.throughput_stderr == b.throughput_stderr
            assert a.scheduled_rate == b.scheduled_rate
            assert np.array_equal(a.per_link_success, b.per_link_success)
            assert np.array_equal(a.active_indices, b.active_indices)


@pytest.fixture(scope="module")
def clean_run():
    """The fault-free serial reference (no policy)."""
    return _run(1)


def _double(x):
    return 2 * x


def _divide_by_zero(x):
    return x / 0


class TestResilientMapBasics:
    def test_serial_map(self):
        assert resilient_map(_double, [1, 2, 3], n_jobs=1) == [2, 4, 6]

    def test_pool_map_preserves_order(self):
        assert resilient_map(_double, list(range(8)), n_jobs=2) == [
            2 * i for i in range(8)
        ]

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="keys"):
            resilient_map(_double, [1, 2], keys=["only-one"], n_jobs=1)

    # The pool's queue-feeder thread reports the (intentional) pickling
    # failure as an unhandled thread exception; the readable ValueError
    # is what callers see.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_unpicklable_func_rejected_for_pool(self):
        with pytest.raises(ValueError, match="picklable"):
            resilient_map(lambda x: x, [1, 2], n_jobs=2)

    def test_on_result_fires_once_per_item(self):
        seen = {}
        resilient_map(
            _double,
            [3, 4, 5],
            n_jobs=1,
            on_result=lambda i, v: seen.setdefault(i, v),
        )
        assert seen == {0: 6, 1: 8, 2: 10}

    def test_validate_failure_exhausts_budget(self):
        policy = RetryPolicy(max_retries=0, backoff_base=0.0)
        with pytest.raises(UnitExecutionError, match="'item-1'"):
            resilient_map(
                _double,
                [1, 2],
                n_jobs=1,
                policy=policy,
                validate=lambda v: v != 4,
            )


class TestNoPolicy:
    """``policy=None``: one try, the item's own exception, no retry machinery."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_own_exception_propagates_unchanged(self, n_jobs, obs_enabled):
        with pytest.raises(ZeroDivisionError):
            resilient_map(_divide_by_zero, [1, 2, 3], n_jobs=n_jobs)
        counters = obs_metrics.snapshot()["counters"]
        assert not any(name.startswith("resilience.") for name in counters)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_armed_fault_fires_once(self, n_jobs):
        # Fault plans address items by key on every map; without a
        # policy the fault is the item's exception.
        plan = FaultPlan({"item-1": FaultSpec("crash", attempts=1)})
        with injected(plan):
            with pytest.raises(InjectedFault, match="'item-1'"):
                resilient_map(_double, [1, 2, 3], n_jobs=n_jobs)

    def test_dead_worker_surfaces_as_broken_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        with injected(FaultPlan({"item-0": FaultSpec("die")})):
            with pytest.raises(BrokenProcessPool):
                resilient_map(_double, [1, 2], n_jobs=2)

    def test_poisoned_value_fails_after_one_try(self):
        with pytest.raises(UnitExecutionError) as err:
            resilient_map(_double, [1, 2], n_jobs=1, validate=lambda v: v != 4)
        assert err.value.key == "item-1"
        assert [f.kind for f in err.value.failures] == ["poison"]

    @pytest.mark.parametrize(
        "policy", [None, RetryPolicy(backoff_base=0.0)], ids=["no-policy", "policy"]
    )
    def test_every_map_records_the_one_span_and_counter(self, policy, obs_enabled):
        resilient_map(_double, [1, 2, 3], n_jobs=1, policy=policy)
        assert obs_metrics.snapshot()["counters"]["parallel.items_mapped"] == 3
        assert [s.name for s in obs_enabled.drain_spans()] == ["parallel.map"]


class TestStructuredFailure:
    def test_exhausted_retries_name_the_unit(self):
        plan = FaultPlan({"stuck": FaultSpec("crash", attempts=99)})
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        with injected(plan):
            with pytest.raises(UnitExecutionError) as err:
                resilient_map(
                    _double, [7, 8], keys=["fine", "stuck"], n_jobs=1, policy=policy
                )
        e = err.value
        assert e.key == "stuck"
        assert e.index == 1
        # initial + 1 pool retry + serial fallback, all failed
        assert len(e.failures) == policy.total_tries
        assert all(f.kind == "error" for f in e.failures)
        assert "stuck" in str(e) and "failed permanently" in str(e)

    def test_exhausted_retries_in_pool_mode(self):
        plan = FaultPlan({"stuck": FaultSpec("poison", attempts=99)})
        policy = RetryPolicy(max_retries=0, backoff_base=0.0)
        with injected(plan):
            with pytest.raises(UnitExecutionError) as err:
                resilient_map(
                    _double,
                    [7, 8, 9],
                    keys=["a", "stuck", "c"],
                    n_jobs=2,
                    policy=policy,
                )
        assert err.value.key == "stuck"
        assert all(f.kind == "poison" for f in err.value.failures)


POLICY = RetryPolicy(max_retries=2, backoff_base=0.0, poll_interval=0.02)


class TestChaosRecovery:
    """Injected faults recover with results bit-identical to clean runs."""

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["crash", "poison", "oom"])
    def test_single_fault_kinds(self, clean_run, n_jobs, kind):
        keys = _unit_keys()
        plan = FaultPlan({keys[0]: FaultSpec(kind), keys[-1]: FaultSpec(kind)})
        with injected(plan):
            chaotic = _run(n_jobs, policy=POLICY)
        _assert_identical(chaotic, clean_run)

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_seeded_mixed_plan(self, clean_run, n_jobs):
        # A seed-derived plan over all units: the chaos itself is
        # reproducible, so this test never flakes.
        plan = FaultPlan.from_seed(
            42, _unit_keys(), rate=0.6, kinds=("crash", "poison", "oom")
        )
        assert not plan.is_empty
        with injected(plan):
            chaotic = _run(n_jobs, policy=POLICY)
        _assert_identical(chaotic, clean_run)

    def test_repeated_faults_still_recover(self, clean_run):
        # Two consecutive failures of the same unit: needs both pool
        # retries, still bit-identical.
        keys = _unit_keys()
        plan = FaultPlan({keys[1]: FaultSpec("crash", attempts=2)})
        with injected(plan):
            chaotic = _run(2, policy=POLICY)
        _assert_identical(chaotic, clean_run)

    def test_dead_worker_pool_is_rebuilt(self, clean_run):
        # `die` kills the worker process outright -> BrokenProcessPool;
        # the executor must replace the pool and re-run the unit.
        keys = _unit_keys()
        plan = FaultPlan({keys[2]: FaultSpec("die")})
        with injected(plan):
            chaotic = _run(2, policy=POLICY)
        _assert_identical(chaotic, clean_run)

    def test_hung_unit_times_out_and_recovers(self, clean_run):
        # The hang (30 s) far exceeds the timeout (0.5 s): recovery must
        # come from timeout supervision killing the pool, not from the
        # sleep expiring.
        keys = _unit_keys()
        plan = FaultPlan({keys[0]: FaultSpec("hang", seconds=30.0)})
        policy = RetryPolicy(
            max_retries=2, unit_timeout=0.5, backoff_base=0.0, poll_interval=0.02
        )
        with injected(plan):
            chaotic = _run(2, policy=policy)
        _assert_identical(chaotic, clean_run)

    def test_hang_in_serial_mode_terminates_via_raise(self, clean_run):
        # No preemption at n_jobs=1 — injected hangs sleep-then-raise,
        # so the budgeted retry still recovers the unit.
        keys = _unit_keys()
        plan = FaultPlan({keys[3]: FaultSpec("hang", seconds=0.1)})
        with injected(plan):
            chaotic = _run(1, policy=POLICY)
        _assert_identical(chaotic, clean_run)


@pytest.mark.chaos
def test_abandon_kills_live_workers():
    """_abandon must SIGKILL workers, not just drop the pool.

    ``Executor.shutdown()`` nulls ``_processes``, so the snapshot has
    to happen first — regression test for the leak where a hung worker
    survived pool abandonment and stalled interpreter exit until its
    sleep expired.
    """
    import time as _time
    from concurrent.futures import ProcessPoolExecutor

    from repro.sim.resilient import _abandon

    pool = ProcessPoolExecutor(max_workers=1)
    pool.submit(_time.sleep, 600)
    deadline = _time.monotonic() + 10.0
    while not pool._processes and _time.monotonic() < deadline:
        _time.sleep(0.01)
    procs = list(pool._processes.values())
    assert procs, "worker never spawned"
    _abandon(pool)
    for proc in procs:
        proc.join(timeout=10.0)
        assert not proc.is_alive(), "abandoned worker survived the kill"


class TestObservabilityUnderChaos:
    def test_stable_snapshots_identical_across_jobs_and_faults(self, obs_enabled):
        keys = _unit_keys()
        plan = FaultPlan(
            {keys[0]: FaultSpec("crash"), keys[2]: FaultSpec("poison")}
        )
        snapshots = {}
        obs = obs_enabled
        # clean serial resilient run is the reference
        obs.reset()
        _run(1, policy=POLICY)
        snapshots["clean-1"] = obs_metrics.snapshot_json(obs_metrics.stable_snapshot())
        for n_jobs in (1, 2, 4):
            obs.reset()
            with injected(plan):
                _run(n_jobs, policy=POLICY)
            snapshots[f"chaos-{n_jobs}"] = obs_metrics.snapshot_json(
                obs_metrics.stable_snapshot()
            )
        assert len(set(snapshots.values())) == 1, snapshots

    def test_retry_counters_record_the_chaos(self, obs_enabled):
        keys = _unit_keys()
        plan = FaultPlan({keys[0]: FaultSpec("crash")})
        with injected(plan):
            _run(1, policy=POLICY)
        snap = obs_metrics.snapshot()
        assert snap["counters"]["resilience.failures"] == 1
        assert snap["counters"]["resilience.retries"] == 1
        assert snap["counters"]["resilience.units_recovered"] == 1

    def test_stable_snapshot_strips_volatile_names(self, obs_enabled):
        obs_metrics.inc("resilience.retries", 3)
        obs_metrics.inc("runner.units_built", 1)
        stable = obs_metrics.stable_snapshot()
        assert "resilience.retries" not in stable["counters"]
        assert stable["counters"]["runner.units_built"] == 1
        # the raw snapshot still carries it
        assert obs_metrics.snapshot()["counters"]["resilience.retries"] == 3

    def test_legacy_path_records_no_resilience_metrics(self, obs_enabled):
        _run(1)  # no policy: one try per unit
        counters = obs_metrics.snapshot()["counters"]
        assert not any(name.startswith("resilience.") for name in counters)
