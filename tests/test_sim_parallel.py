"""Tests for the process-parallel experiment engine.

The headline guarantee: ``n_jobs`` changes wall-clock behaviour only —
every result is bit-identical to the serial path because seeds derive
from work-unit identity, never from execution order.
"""

import numpy as np
import pytest

from repro.core.base import get_scheduler
from repro.experiments.config import TopologyWorkload
from repro.sim.parallel import (
    available_cpus,
    build_units,
    execute_unit,
    execute_units,
    resolve_n_jobs,
)
from repro.sim.resilient import resilient_map
from repro.sim.runner import SweepPoint, run_schedulers, run_sweep


def _square(x):
    return x * x


WORKLOAD = TopologyWorkload(n_links=25)
SCHEDULERS = {"rle": get_scheduler("rle"), "ldp": get_scheduler("ldp")}


def _run(n_jobs):
    return run_schedulers(
        SCHEDULERS,
        WORKLOAD,
        n_repetitions=3,
        n_trials=40,
        root_seed=11,
        n_jobs=n_jobs,
    )


class TestResolveNJobs:
    def test_one_is_serial(self):
        assert resolve_n_jobs(1) == 1

    def test_zero_and_none_mean_all_cpus(self):
        assert resolve_n_jobs(0) == available_cpus()
        assert resolve_n_jobs(None) == available_cpus()

    def test_oversubscription_allowed(self):
        assert resolve_n_jobs(64) == 64

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(-1)


class TestParallelMap:
    """The one executor's plain map: ``resilient_map`` with no policy."""

    def test_serial_path(self):
        assert resilient_map(_square, [1, 2, 3], n_jobs=1) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        assert resilient_map(_square, list(range(10)), n_jobs=3) == [
            i * i for i in range(10)
        ]

    def test_single_item_stays_in_process(self):
        # A lambda would break pickling — a single item must not need it.
        assert resilient_map(lambda x: x + 1, [41], n_jobs=4) == [42]

    # The pool's queue-feeder thread reports the (intentional) pickling
    # failure as an unhandled thread exception; the readable ValueError
    # is what callers see.
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_unpicklable_items_raise_clear_error(self):
        with pytest.raises(ValueError, match="picklable"):
            resilient_map(_square, [lambda: 1, lambda: 2], n_jobs=2)

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_unpicklable_func_raises_clear_error(self):
        with pytest.raises(ValueError, match="picklable"):
            resilient_map(lambda x: x, [1, 2], n_jobs=2)


class TestRunSchedulersParallel:
    def test_parallel_equals_serial_exactly(self):
        """The acceptance criterion: n_jobs=4 == n_jobs=1, bit for bit."""
        serial = _run(1)
        parallel = _run(4)
        assert set(serial) == set(parallel)
        for name in serial:
            s, p = serial[name], parallel[name]
            assert s.mean_failed == p.mean_failed
            assert s.mean_throughput == p.mean_throughput
            assert s.failed_std == p.failed_std
            assert s.throughput_std == p.throughput_std
            assert s.mean_scheduled == p.mean_scheduled
            for rs, rp in zip(s.per_rep, p.per_rep):
                np.testing.assert_array_equal(rs.per_link_success, rp.per_link_success)
                np.testing.assert_array_equal(rs.active_indices, rp.active_indices)

    def test_all_cpus_equals_serial(self):
        serial = _run(1)
        auto = _run(0)
        for name in serial:
            assert serial[name].mean_failed == auto[name].mean_failed

    def test_closure_workload_fails_fast_in_parallel(self):
        def closure_workload(seed):
            from repro.network.topology import paper_topology

            return paper_topology(10, seed=seed)

        with pytest.raises(ValueError, match="picklable"):
            run_schedulers(
                SCHEDULERS, closure_workload, n_repetitions=2, n_trials=5, n_jobs=2
            )

    def test_closure_workload_fine_serially(self):
        def closure_workload(seed):
            from repro.network.topology import paper_topology

            return paper_topology(10, seed=seed)

        out = run_schedulers(
            SCHEDULERS, closure_workload, n_repetitions=2, n_trials=5, n_jobs=1
        )
        assert set(out) == set(SCHEDULERS)


class TestWorkUnits:
    def test_grid_order_is_rep_major(self):
        units = build_units(
            SCHEDULERS,
            WORKLOAD,
            n_repetitions=2,
            n_trials=10,
            alpha=3.0,
            gamma_th=1.0,
            eps=0.01,
            root_seed=0,
        )
        assert [(u.rep, u.name) for u in units] == [
            (0, "rle"),
            (0, "ldp"),
            (1, "rle"),
            (1, "ldp"),
        ]

    def test_unit_execution_matches_inline(self):
        units = build_units(
            SCHEDULERS,
            WORKLOAD,
            n_repetitions=1,
            n_trials=30,
            alpha=3.0,
            gamma_th=1.0,
            eps=0.01,
            root_seed=5,
        )
        inline = [execute_unit(u) for u in units]
        pooled = execute_units(units, n_jobs=2)
        for a, b in zip(inline, pooled):
            assert a.mean_failed == b.mean_failed
            np.testing.assert_array_equal(a.per_link_success, b.per_link_success)

    def test_scheduler_kwargs_forwarded(self):
        from repro.core.rle import rle_schedule

        out = run_schedulers(
            {"rle": rle_schedule},
            WORKLOAD,
            n_repetitions=1,
            n_trials=10,
            scheduler_kwargs={"rle": {"c2": 0.3}},
            n_jobs=2,
        )
        assert out["rle"].n_repetitions == 1


class TestRunSweep:
    def test_equals_per_point_run_schedulers(self):
        points = [
            SweepPoint(x=float(n), workload=TopologyWorkload(n_links=n), alpha=3.0, root_seed=n)
            for n in (15, 25)
        ]
        swept = run_sweep(SCHEDULERS, points, n_repetitions=2, n_trials=20, n_jobs=1)
        for point, results in zip(points, swept):
            direct = run_schedulers(
                SCHEDULERS,
                point.workload,
                n_repetitions=2,
                n_trials=20,
                alpha=point.alpha,
                root_seed=point.root_seed,
            )
            for name in SCHEDULERS:
                assert results[name].mean_failed == direct[name].mean_failed
                assert results[name].mean_throughput == direct[name].mean_throughput

    def test_parallel_sweep_equals_serial(self):
        points = [
            SweepPoint(x=float(n), workload=TopologyWorkload(n_links=n), alpha=3.0, root_seed=n)
            for n in (15, 25)
        ]
        serial = run_sweep(SCHEDULERS, points, n_repetitions=2, n_trials=20, n_jobs=1)
        pooled = run_sweep(SCHEDULERS, points, n_repetitions=2, n_trials=20, n_jobs=3)
        for s, p in zip(serial, pooled):
            for name in SCHEDULERS:
                assert s[name].mean_failed == p[name].mean_failed
                assert s[name].mean_throughput == p[name].mean_throughput
