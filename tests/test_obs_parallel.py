"""Observability across the process pool: n_jobs-invariant aggregation.

The acceptance bar: enabling observability changes no result, and the
metric snapshot is **byte-identical** for every ``n_jobs`` — serial
writes to the live registry and submission-order merging of per-worker
snapshots must be indistinguishable.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.base import get_scheduler
from repro.experiments.config import TopologyWorkload
from repro.obs import metrics as obs_metrics
from repro.sim.resilient import RetryPolicy
from repro.sim.runner import run_schedulers

SCHEDULERS = {"ldp": get_scheduler("ldp"), "rle": get_scheduler("rle"),
              "dls": get_scheduler("dls")}
# DLS is randomised with per-call entropy by default; pin it so the
# executed work (and hence the metrics) is identical across plans.
KWARGS = {"dls": {"seed": 11}}


def _run(n_jobs, policy=None):
    return run_schedulers(
        SCHEDULERS,
        TopologyWorkload(n_links=40),
        n_repetitions=3,
        n_trials=50,
        n_jobs=n_jobs,
        scheduler_kwargs=KWARGS,
        policy=policy,
    )


def _observed_run(n_jobs, policy=None):
    obs.enable()
    obs.reset()
    try:
        results = _run(n_jobs, policy)
        return results, obs_metrics.snapshot_json(), obs.drain_spans()
    finally:
        obs.disable()
        obs.reset()


class TestSnapshotByteIdentity:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_snapshot_bytes_match_serial(self, jobs):
        _, serial_snap, _ = _observed_run(1)
        _, parallel_snap, _ = _observed_run(jobs)
        assert parallel_snap == serial_snap

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_policy_leaves_snapshot_unchanged(self, jobs):
        # One executor: a fault-free run under a retry policy folds the
        # same metrics as the one-try path.
        _, plain, _ = _observed_run(1)
        _, retried, _ = _observed_run(jobs, RetryPolicy(backoff_base=0.0))
        assert retried == plain

    def test_snapshot_contains_instrumented_counters(self):
        _, snap_json, _ = _observed_run(1)
        for name in (
            "runner.units_built",
            "scheduler.links_admitted",
            "mc.trials_simulated",
            "fmatrix.builds",
        ):
            assert name in snap_json


class TestResultsUnchanged:
    def test_observed_results_equal_unobserved(self):
        baseline = _run(1)
        observed, _, _ = _observed_run(1)
        for name in SCHEDULERS:
            assert observed[name].mean_failed == baseline[name].mean_failed
            assert observed[name].mean_throughput == baseline[name].mean_throughput

    def test_observed_parallel_results_equal_serial(self):
        serial, _, _ = _observed_run(1)
        parallel, _, _ = _observed_run(2)
        for name in SCHEDULERS:
            assert parallel[name].mean_failed == serial[name].mean_failed


class TestWorkerSpans:
    def test_worker_spans_reattached_with_proc_tags(self):
        _, _, spans = _observed_run(2)
        units = [s for s in spans if s.name == "parallel.unit"]
        assert len(units) == 9  # 3 schedulers x 3 repetitions
        assert all(u.proc is not None for u in units)
        # every worker unit hangs off the parent's parallel.map span
        (pmap,) = [s for s in spans if s.name == "parallel.map"]
        assert all(u.parent == pmap.id for u in units)
        # ids remain unique after re-basing across 2 workers
        ids = [s.id for s in spans]
        assert len(set(ids)) == len(ids)

    def test_serial_spans_have_no_proc_tag(self):
        _, _, spans = _observed_run(1)
        units = [s for s in spans if s.name == "parallel.unit"]
        assert len(units) == 9
        assert all(u.proc is None for u in units)

    def test_span_names_same_for_any_plan(self):
        _, _, serial_spans = _observed_run(1)
        _, _, parallel_spans = _observed_run(4)
        assert sorted(s.name for s in serial_spans) == sorted(
            s.name for s in parallel_spans
        )

    def test_disabled_parallel_ships_nothing(self):
        obs.disable()
        _run(2)
        assert obs.drain_spans() == []
        assert obs_metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
