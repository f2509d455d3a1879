"""One geometry per repetition: :class:`repro.sim.parallel.UnitRunner`.

The serial executor keeps the last unit's link set and distance matrix
and hands them to the next unit of the same repetition, so a sweep
calls each repetition's workload and builds its N x N distance matrix
once instead of once per scheduler.  These tests pin that it does, and
that it changes no bit:

- the call counts of a serial sweep (6 instead of 24);
- bit-identity with ``n_jobs=2`` and with the sharedmem backend;
- the shared matrix is read-only and never pickled;
- a crashed-and-retried unit still reuses its repetition's geometry
  and returns the clean run's bits;
- workloads are compared with ``==`` (never by name), in the runner
  and in the sharedmem backend alike — two closures from one factory
  are two workloads.
"""

import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.experiments.config import TopologyWorkload, paper_scheduler_set
from repro.faults import FaultPlan, FaultSpec, injected
from repro.network.links import LinkSet
from repro.network.topology import paper_topology
from repro.obs import metrics as obs_metrics
from repro.sim.parallel import UnitRunner, build_units, execute_units, same_geometry
from repro.sim.resilient import RetryPolicy
from repro.sim.runner import SweepPoint, run_sweep
from repro.utils.rng import stable_seed

N_REPS = 3
N_TRIALS = 30
POINTS = [
    SweepPoint(x=n, workload=TopologyWorkload(n_links=n), alpha=3.0, root_seed=100 + n)
    for n in (24, 36)
]


def _sweep(**kwargs):
    return run_sweep(
        paper_scheduler_set(), POINTS, n_repetitions=N_REPS, n_trials=N_TRIALS, **kwargs
    )


def _assert_identical(got, want):
    """Bitwise equality of two run_sweep outputs, means included."""
    assert len(got) == len(want)
    for g_point, w_point in zip(got, want):
        assert g_point.keys() == w_point.keys()
        for name in w_point:
            g, w = g_point[name], w_point[name]
            for field in (
                "mean_failed",
                "failed_std",
                "mean_throughput",
                "throughput_std",
                "mean_scheduled",
                "mean_scheduled_rate",
            ):
                assert getattr(g, field) == getattr(w, field), (name, field)
            for a, b in zip(g.per_rep, w.per_rep):
                assert a.n_scheduled == b.n_scheduled
                assert a.mean_failed == b.mean_failed
                assert a.failed_stderr == b.failed_stderr
                assert a.mean_throughput == b.mean_throughput
                assert a.throughput_stderr == b.throughput_stderr
                assert a.scheduled_rate == b.scheduled_rate
                assert np.array_equal(a.per_link_success, b.per_link_success)
                assert np.array_equal(a.active_indices, b.active_indices)


@pytest.fixture(scope="module")
def serial_sweep():
    return _sweep()


@pytest.fixture
def call_counts(monkeypatch):
    """Count workload calls and distance-matrix builds."""
    counts = {"workload": 0, "distances": 0}
    workload_call = TopologyWorkload.__call__
    build = LinkSet.sender_receiver_distances

    def counted_workload(self, seed):
        counts["workload"] += 1
        return workload_call(self, seed)

    def counted_build(self):
        counts["distances"] += 1
        return build(self)

    monkeypatch.setattr(TopologyWorkload, "__call__", counted_workload)
    monkeypatch.setattr(LinkSet, "sender_receiver_distances", counted_build)
    return counts


class TestOneGeometryPerRepetition:
    def test_serial_sweep_builds_each_repetition_once(self, call_counts, serial_sweep):
        got = _sweep()
        # 2 points x 3 repetitions, not x 4 schedulers as well.
        assert call_counts == {"workload": 6, "distances": 6}
        _assert_identical(got, serial_sweep)

    def test_resilient_serial_sweep_shares_too(self, call_counts, serial_sweep):
        got = _sweep(policy=RetryPolicy(max_retries=1, backoff_base=0.0))
        assert call_counts == {"workload": 6, "distances": 6}
        _assert_identical(got, serial_sweep)

    def test_pool_matches_serial(self, serial_sweep):
        _assert_identical(_sweep(n_jobs=2), serial_sweep)

    def test_sharedmem_matches_serial(self, serial_sweep):
        _assert_identical(_sweep(backend="sharedmem"), serial_sweep)

    def test_crash_on_a_repetitions_second_unit(self, call_counts, serial_sweep, obs_enabled):
        # Fault keys are tag/rep/scheduler; rle is the second unit of
        # point 0's repetition 1 (paper_scheduler_set order).
        assert list(paper_scheduler_set())[1] == "rle"
        plan = FaultPlan({"0/1/rle": FaultSpec("crash")})
        with injected(plan):
            got = _sweep(policy=RetryPolicy(max_retries=1, backoff_base=0.0))
        counters = obs_metrics.snapshot()["counters"]
        assert counters["resilience.failures"] == 1
        assert counters["resilience.units_recovered"] == 1
        _assert_identical(got, serial_sweep)
        # The retry found its repetition's geometry still in the slot.
        assert call_counts == {"workload": 6, "distances": 6}


_SEEN = []


def _recording_rle(problem, **kwargs):
    _SEEN.append(problem.distances())
    return rle_schedule(problem, **kwargs)


def _units(workload, n_reps=1, schedulers=None, root_seed=5):
    return build_units(
        schedulers or {"a": _recording_rle, "b": _recording_rle},
        workload,
        n_repetitions=n_reps,
        n_trials=10,
        alpha=3.0,
        gamma_th=1.0,
        eps=0.01,
        root_seed=root_seed,
    )


class TestSlot:
    def test_shared_distances_are_read_only(self):
        _SEEN.clear()
        execute_units(_units(TopologyWorkload(n_links=20)))
        first, second = _SEEN
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_new_repetition_gets_new_geometry(self):
        _SEEN.clear()
        execute_units(_units(TopologyWorkload(n_links=20), n_reps=2))
        assert _SEEN[0] is _SEEN[1]
        assert _SEEN[2] is _SEEN[3]
        assert not np.array_equal(_SEEN[1], _SEEN[2])

    def test_pickled_runner_carries_no_matrix(self):
        n = 200
        runner = UnitRunner()
        (unit,) = _units(TopologyWorkload(n_links=n), schedulers={"rle": rle_schedule})
        runner(unit)
        assert runner._slot is not None
        payload = pickle.dumps(runner)
        assert len(payload) < n * n * 8
        assert pickle.loads(payload)._slot is None
        # The live runner keeps its slot after being pickled.
        assert runner._slot is not None


def _closure_factory(n):
    return lambda seed: paper_topology(n, seed=seed)


@dataclass(frozen=True)
class _ArrayWorkload:
    """A workload whose ``==`` cannot give a truth value."""

    senders: np.ndarray

    def __call__(self, seed):
        return paper_topology(len(self.senders), seed=seed)


def _unit(workload, rep=0, root_seed=5):
    return _units(workload, rep + 1, {"rle": rle_schedule}, root_seed)[rep]


class TestWorkloadIdentity:
    def test_closures_from_one_factory_differ(self):
        a, b = _closure_factory(20), _closure_factory(40)
        assert a.__qualname__ == b.__qualname__
        assert same_geometry(_unit(a), _unit(a))
        assert not same_geometry(_unit(a), _unit(b))

    def test_equal_dataclasses_match(self):
        w20 = TopologyWorkload(n_links=20)
        assert same_geometry(_unit(w20), _unit(TopologyWorkload(n_links=20)))
        assert not same_geometry(_unit(w20), _unit(TopologyWorkload(n_links=21)))

    def test_undecidable_equality_counts_as_different(self):
        a, b = _ArrayWorkload(np.zeros(3)), _ArrayWorkload(np.zeros(3))
        with pytest.raises(ValueError):
            bool(a == b)
        assert same_geometry(_unit(a), _unit(a))
        assert not same_geometry(_unit(a), _unit(b))

    def test_same_geometry_needs_rep_and_root_seed(self):
        w = TopologyWorkload(n_links=20)
        assert not same_geometry(_unit(w, rep=0), _unit(w, rep=1))
        assert not same_geometry(_unit(w, root_seed=5), _unit(w, root_seed=6))

    @pytest.mark.parametrize("backend", ["numpy", "sharedmem"])
    def test_closure_points_keep_their_own_topology(self, backend):
        # Same rep, root seed and channel: only the workload differs.
        points = [
            SweepPoint(x=n, workload=_closure_factory(n), alpha=3.0, root_seed=7)
            for n in (20, 40)
        ]
        out = run_sweep(
            {"rle": rle_schedule}, points, n_repetitions=1, n_trials=20, backend=backend
        )
        seed = stable_seed("workload", 0, root=7)
        for n, point in zip((20, 40), out):
            want = rle_schedule(FadingRLS(links=paper_topology(n, seed=seed), alpha=3.0))
            assert np.array_equal(point["rle"].per_rep[0].active_indices, want.active)
