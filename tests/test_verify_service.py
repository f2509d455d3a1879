"""The ``service-vs-direct`` differential check and its reason codes.

Clean scenarios must pass; each reason code must fire when its seam is
corrupted (the monkeypatch-the-module-helper pattern the cache check
established).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.network.topology import paper_topology
from repro.verify import service as verify_service
from repro.verify.differential import DIFFERENTIAL_CHECKS
from repro.verify.fuzz import Scenario, fuzz_scenarios
from repro.verify.harness import all_checks
from repro.verify.service import (
    CODE_SERVICE_ACCOUNTING,
    CODE_SERVICE_BACKPRESSURE,
    CODE_SERVICE_COALESCE,
    CODE_SERVICE_SCHEDULE,
    check_service_vs_direct,
)


def _scenario(n=10, seed=3, **problem_kwargs):
    problem = FadingRLS(links=paper_topology(n, seed=seed), **problem_kwargs)
    return Scenario(name=f"t-{n}-{seed}", family="paper", problem=problem, seed=seed)


def _codes(mismatches):
    return {m.code for m in mismatches}


class TestRegistration:
    def test_check_is_registered(self):
        assert DIFFERENTIAL_CHECKS["service-vs-direct"] is check_service_vs_direct

    def test_check_reaches_the_harness(self):
        assert "service-vs-direct" in all_checks()

    def test_reason_codes_are_stable_strings(self):
        assert CODE_SERVICE_SCHEDULE == "service-schedule-divergence"
        assert CODE_SERVICE_COALESCE == "service-coalesce-divergence"
        assert CODE_SERVICE_BACKPRESSURE == "service-backpressure-nondeterminism"
        assert CODE_SERVICE_ACCOUNTING == "service-accounting-loss"


class TestCleanScenarios:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_paper_scenarios_pass(self, seed):
        assert check_service_vs_direct(_scenario(seed=seed)) == []

    def test_fuzzer_corpus_slice_passes(self):
        for sc in fuzz_scenarios(6, seed=1):
            assert check_service_vs_direct(sc) == []

    def test_noisy_scenario_passes(self):
        assert check_service_vs_direct(_scenario(noise=0.01)) == []

    def test_large_instances_are_truncated(self):
        scenario = _scenario(n=40)
        truncated = verify_service._service_problem(scenario.problem)
        assert truncated.n_links == verify_service._MAX_LINKS
        assert check_service_vs_direct(scenario) == []


class TestFaultDetection:
    """Each reason code fires when its seam is corrupted."""

    def test_schedule_divergence_fires(self, monkeypatch):
        empty = Schedule(active=np.array([], dtype=np.int64), algorithm="rle")
        monkeypatch.setattr(verify_service, "_direct_schedule", lambda p, scheduler: empty)
        mismatches = check_service_vs_direct(_scenario())
        assert CODE_SERVICE_SCHEDULE in _codes(mismatches)
        # every served copy diverges: the worker probe's computed,
        # coalesced and replayed answers, and the loop probe's
        divergent = [m for m in mismatches if m.code == CODE_SERVICE_SCHEDULE]
        assert len(divergent) == 2 * verify_service._N_DUPLICATES + 1

    def test_coalesce_divergence_fires(self, monkeypatch):
        real = verify_service._drive_serving

        async def no_coalescing(problem):
            out = await real(problem)
            stats = dict(out["stats"])
            stats["coalesced"] = 0  # claim nothing coalesced
            return {**out, "stats": stats}

        monkeypatch.setattr(verify_service, "_drive_serving", no_coalescing)
        mismatches = check_service_vs_direct(_scenario())
        assert _codes(mismatches) == {CODE_SERVICE_COALESCE}

    def test_loop_probe_fires_when_its_misses_take_a_worker(self, worker_path):
        # The rle duplicates now coalesce onto one worker computation
        # instead of hitting the entry the loop's computation cached.
        mismatches = check_service_vs_direct(_scenario())
        assert _codes(mismatches) == {CODE_SERVICE_COALESCE}
        (mismatch,) = mismatches
        assert "event loop" in mismatch.message

    def test_backpressure_nondeterminism_fires(self, monkeypatch):
        def all_same(problem):
            # identical burst problems coalesce instead of filling the
            # queue, so the accept/reject pattern shifts
            return [problem] * verify_service._BURST

        monkeypatch.setattr(verify_service, "_burst_problems", all_same)
        mismatches = check_service_vs_direct(_scenario())
        assert CODE_SERVICE_BACKPRESSURE in _codes(mismatches)

    def test_accounting_loss_fires(self, monkeypatch):
        real = verify_service._drive_backpressure

        async def lossy(problems):
            out = await real(problems)
            stats = dict(out["stats"])
            stats["requests"] += 1  # one phantom request, never resolved
            return {**out, "stats": stats}

        monkeypatch.setattr(verify_service, "_drive_backpressure", lossy)
        mismatches = check_service_vs_direct(_scenario())
        assert CODE_SERVICE_ACCOUNTING in _codes(mismatches)

    def test_tiny_scenarios_are_skipped(self):
        assert check_service_vs_direct(_scenario(n=1, seed=0)) == []
