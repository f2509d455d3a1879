"""Tests for the ``cache-vs-fresh`` differential check.

Clean scenarios must pass; the fault-injection class corrupts each
seam the check observes and proves the matching reason code fires.
"""

import numpy as np
import pytest

import repro.verify.cache as verify_cache
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.network.topology import paper_topology
from repro.verify.cache import (
    CODE_CACHE_EXACT,
    CODE_CACHE_STORE,
    _cache_problem,
    check_cache_vs_fresh,
)
from repro.verify.differential import DIFFERENTIAL_CHECKS
from repro.verify.fuzz import Scenario, fuzz_scenarios
from repro.verify.harness import all_checks


def _scenario(n=10, seed=3, **problem_kwargs):
    problem = FadingRLS(links=paper_topology(n, seed=seed), **problem_kwargs)
    return Scenario(name=f"t-{n}-{seed}", family="paper", problem=problem, seed=seed)


class TestRegistration:
    def test_check_is_registered(self):
        assert DIFFERENTIAL_CHECKS["cache-vs-fresh"] is check_cache_vs_fresh

    def test_check_reaches_the_harness(self):
        assert "cache-vs-fresh" in all_checks()

    def test_reason_codes_are_stable_strings(self):
        assert CODE_CACHE_EXACT == "cache-exact-divergence"
        assert CODE_CACHE_STORE == "cache-store-divergence"


class TestCleanScenarios:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_paper_scenarios_pass(self, seed):
        assert check_cache_vs_fresh(_scenario(seed=seed)) == []

    def test_fuzzer_corpus_slice_passes(self):
        for sc in fuzz_scenarios(10, seed=1):
            assert check_cache_vs_fresh(sc) == []

    def test_noisy_scenario_passes(self):
        assert check_cache_vs_fresh(_scenario(noise=0.01)) == []

    def test_large_instances_are_truncated(self):
        scenario = _scenario(n=40)
        assert _cache_problem(scenario.problem).n_links == verify_cache._MAX_LINKS
        assert check_cache_vs_fresh(scenario) == []


def _codes(mismatches):
    return {m.code for m in mismatches}


class TestFaultDetection:
    """Each reason code fires when its seam is corrupted."""

    def test_exact_divergence_fires(self, monkeypatch):
        empty = Schedule(active=np.array([], dtype=np.int64), algorithm="rle")
        monkeypatch.setattr(verify_cache, "_cache_serve", lambda cache, prob: empty)
        mismatches = check_cache_vs_fresh(_scenario())
        assert CODE_CACHE_EXACT in _codes(mismatches)
        exact = [m for m in mismatches if m.code == CODE_CACHE_EXACT]
        assert {m.details["tier"] for m in exact} == {
            "miss",
            "exact-hit",
            "congruent",
            "jittered",
        }

    def test_probe_divergence_fires(self, monkeypatch):
        # Any answer to the congruent or jittered copy other than a fresh
        # run of that copy (what a fuzzy tier would serve) is caught.
        real = verify_cache._cache_serve
        original = np.asarray(_scenario().problem.links.senders)

        def fuzzy(cache, problem):
            result = real(cache, problem)
            if np.array_equal(np.asarray(problem.links.senders), original):
                return result  # leave the miss and the exact hit intact
            return Schedule(active=np.array([], dtype=np.int64), algorithm="rle")

        monkeypatch.setattr(verify_cache, "_cache_serve", fuzzy)
        mismatches = check_cache_vs_fresh(_scenario())
        assert _codes(mismatches) == {CODE_CACHE_EXACT}
        assert {m.details["tier"] for m in mismatches} == {"congruent", "jittered"}

    def test_store_divergence_fires(self, monkeypatch):
        def torn(problem):
            stored = verify_cache._fresh_schedule(problem)
            replayed = Schedule(active=np.array([], dtype=np.int64), algorithm="rle")
            return stored, replayed

        monkeypatch.setattr(verify_cache, "_persisted_replay", torn)
        mismatches = check_cache_vs_fresh(_scenario())
        assert _codes(mismatches) == {CODE_CACHE_STORE}
