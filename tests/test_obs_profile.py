"""Profiling hooks: cProfile/tracemalloc wrappers, independent of obs."""

from __future__ import annotations

from repro.core.base import get_scheduler
from repro.experiments.config import TopologyWorkload
from repro.obs.profile import (
    ProfileReport,
    profile_call,
    profile_fading_stream,
    profiled,
)
from repro.sim.runner import run_schedulers


def _work():
    return sum(i * i for i in range(2000))


class TestProfiled:
    def test_cpu_profile_collects_stats(self):
        with profiled() as report:
            _work()
        assert isinstance(report, ProfileReport)
        assert report.wall > 0.0
        assert report.stats is not None
        assert "function calls" in report.top(5)

    def test_memory_profile_tracks_peak(self):
        with profiled(cpu=False, memory=True) as report:
            data = [0] * 50_000
            del data
        assert report.peak_bytes is not None
        assert report.peak_bytes > 50_000 * 8 // 2
        assert report.stats is None

    def test_top_mentions_profiled_function(self):
        with profiled(limit=50) as report:
            _work()
        assert "_work" in report.top(50)


class TestProfileCall:
    def test_returns_result_and_report(self):
        result, report = profile_call(_work)
        assert result == _work()
        assert report.wall > 0.0

    def test_passes_arguments(self):
        result, _ = profile_call(sorted, [3, 1, 2])
        assert result == [1, 2, 3]


class TestDomainWrappers:
    def test_profile_run_schedulers(self):
        results, report = profile_call(
            run_schedulers,
            {"ldp": get_scheduler("ldp")},
            TopologyWorkload(n_links=20),
            n_repetitions=1,
            n_trials=10,
        )
        assert "ldp" in results
        assert report.wall > 0.0

    def test_profile_fading_stream(self):
        import numpy as np

        n_chunks, report = profile_fading_stream(
            np.full((3, 3), 10.0), np.arange(3), 3.0, 64, seed=0, chunk_trials=4
        )
        assert n_chunks == 16
        assert report.peak_bytes is not None


class TestIndependenceFromObsSwitch:
    def test_profiling_works_while_obs_disabled(self):
        from repro import obs

        assert not obs.is_enabled()
        _, report = profile_call(_work)
        assert report.wall > 0.0
