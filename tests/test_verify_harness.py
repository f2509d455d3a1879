"""Tests for the verification harness and structured reports."""

import pytest

from repro.verify import (
    Mismatch,
    all_checks,
    make_scenario,
    resolve_checks,
    run_verification,
    verify_scenario,
)
from repro.verify.report import CheckOutcome, VerificationReport


class TestCheckResolution:
    def test_all_checks_merges_both_registries(self):
        names = set(all_checks())
        assert "exact-vs-ilp" in names  # differential
        assert "eps-monotonicity" in names  # metamorphic
        assert "lambda-drain" in names  # queue stability
        assert "channel-vs-rayleigh" in names  # channel laws
        assert "nakagami-unit-closed-form" in names
        assert "cache-vs-fresh" in names  # schedule cache
        assert "service-vs-direct" in names  # serving layer
        assert "lazy-vs-dense" in names  # on-demand blocks
        assert len(names) == 21

    def test_subset_selection(self):
        selected = resolve_checks(["eps-monotonicity", "cached-vs-certificate"])
        assert set(selected) == {"eps-monotonicity", "cached-vs-certificate"}

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError, match="unknown check"):
            resolve_checks(["nope"])


class TestVerifyScenario:
    def test_runs_selected_checks_in_sorted_order(self):
        scenario = make_scenario("paper", 0, root_seed=0)
        outcomes = verify_scenario(
            scenario, checks=["subset-feasibility", "eps-monotonicity"]
        )
        assert [o.check for o in outcomes] == ["eps-monotonicity", "subset-feasibility"]
        assert all(o.passed for o in outcomes)
        assert all(o.scenario == scenario.name for o in outcomes)

    def test_detects_injected_fault_end_to_end(self):
        scenario = make_scenario("paper", 0, root_seed=0)
        scenario.problem.interference_matrix()[1, 4] += 0.2
        outcomes = verify_scenario(scenario)
        failing = [o for o in outcomes if not o.passed]
        assert failing, "no oracle caught the corrupted cache"
        codes = {m.code for o in failing for m in o.mismatches}
        assert "cache-divergence" in codes


class TestRunVerification:
    def test_budget_is_respected_exactly(self):
        report = run_verification(budget=17, seed=0)
        assert report.n_cells == 17
        assert report.budget == 17

    def test_zero_mismatches_on_seeded_scenarios(self):
        report = run_verification(budget=44, seed=3)
        assert report.passed, report.summary()

    def test_deterministic_given_budget_and_seed(self):
        a = run_verification(budget=22, seed=1)
        b = run_verification(budget=22, seed=1)
        assert [(o.check, o.scenario, o.passed) for o in a.outcomes] == [
            (o.check, o.scenario, o.passed) for o in b.outcomes
        ]

    def test_check_subset(self):
        report = run_verification(budget=6, seed=0, checks=["subset-feasibility"])
        assert {o.check for o in report.outcomes} == {"subset-feasibility"}
        assert report.n_scenarios == 6

    def test_time_budget_stops_early(self):
        report = run_verification(budget=10_000, seed=0, time_budget=0.0)
        assert report.n_cells < 10_000

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="no checks"):
            run_verification(budget=5, checks=[])

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            run_verification(budget=-1)


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_verification(budget=15, seed=0)

    def test_to_dict_round_trip(self, report):
        import json

        d = json.loads(json.dumps(report.to_dict()))
        assert d["n_cells"] == 15
        assert d["passed"] is True
        assert set(d["per_check"]) == {o.check for o in report.outcomes}

    def test_summary_mentions_verdict(self, report):
        assert "PASSED: zero mismatches" in report.summary()

    def test_summary_names_failures(self):
        bad = Mismatch(
            check="cached-vs-certificate",
            scenario="paper/n=8/i=0",
            code="cache-divergence",
            message="receiver 7 diverged",
        )
        report = VerificationReport(
            outcomes=(
                CheckOutcome(
                    check="cached-vs-certificate",
                    scenario="paper/n=8/i=0",
                    mismatches=(bad,),
                    wall_seconds=0.0,
                ),
            ),
            budget=1,
            seed=0,
            wall_seconds=0.0,
        )
        assert not report.passed
        text = report.summary()
        assert "cache-divergence" in text
        assert "receiver 7 diverged" in text
        assert "FAILED" in text

    def test_per_check_counts(self, report):
        counts = report.per_check_counts()
        assert sum(row["cells"] for row in counts.values()) == 15
        assert all(row["mismatches"] == 0 for row in counts.values())
