"""Tests for analyzers, scenario configs and `repro traffic`."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology
from repro.utils.validation import ValidationError
from repro.workload.analyzers import (
    drift_estimate,
    is_divergent,
    stability_region,
    summarize_workload,
    sweep_rates,
)
from repro.workload.generators import PoissonArrivals, arrivals_from_spec
from repro.workload.queues import simulate_workload
from repro.workload.scenario import WorkloadScenario, run_scenario


@pytest.fixture()
def problem():
    return FadingRLS(
        links=paper_topology(6, seed=1), alpha=3.0, gamma_th=1.0, eps=0.05
    )


class TestAnalyzers:
    def test_summarize_reports_conservation_fields(self, problem):
        result = simulate_workload(
            problem, PoissonArrivals(0.1), "rle", n_slots=60, seed=7
        )
        stats = summarize_workload(result)
        assert stats.arrived == result.arrived
        assert stats.final_backlog == result.final_backlog
        payload = stats.to_dict()
        assert isinstance(payload["mean_delay"], (float, type(None)))

    def test_stats_nan_becomes_none(self, problem):
        result = simulate_workload(
            problem, PoissonArrivals(0.0), "rle", n_slots=10, seed=0
        )
        assert summarize_workload(result).to_dict()["mean_delay"] is None

    def test_drift_signs(self, problem):
        light = simulate_workload(
            problem, PoissonArrivals(0.05), "rle", n_slots=120, seed=3
        )
        heavy = simulate_workload(
            problem, PoissonArrivals(3.0), "rle", n_slots=120, seed=3
        )
        assert abs(drift_estimate(light)) < 0.05
        assert drift_estimate(heavy) > 0.5
        assert not is_divergent(light)
        assert is_divergent(heavy)

    def test_drift_tail_validation(self, problem):
        result = simulate_workload(
            problem, PoissonArrivals(0.1), "rle", n_slots=10, seed=0
        )
        with pytest.raises(ValueError, match="tail"):
            drift_estimate(result, tail=0.0)

    def test_sweep_orders_results_by_factor(self, problem):
        results = sweep_rates(
            problem, PoissonArrivals(0.05), "rle", [0.5, 4.0], n_slots=50, seed=2
        )
        assert len(results) == 2
        assert results[0].arrived < results[1].arrived

    def test_stability_region_brackets(self, problem):
        estimate = stability_region(
            problem,
            PoissonArrivals(0.05),
            "rle",
            factor_lo=0.5,
            factor_hi=64.0,
            n_grid=4,
            max_iter=3,
            n_slots=100,
            seed=4,
        )
        assert estimate.bracketed
        assert estimate.factor_lo < estimate.factor_star < estimate.factor_hi
        assert estimate.lam_star == pytest.approx(0.05 * estimate.factor_star)
        # Probes are (factor, drift, final_backlog, divergent) records.
        assert all(len(p) == 4 for p in estimate.probes)
        payload = estimate.to_dict()
        assert payload["n_probes"] == len(estimate.probes)

    def test_stability_region_all_stable_one_sided(self, problem):
        estimate = stability_region(
            problem,
            PoissonArrivals(0.01),
            "rle",
            factor_lo=0.5,
            factor_hi=2.0,
            n_grid=3,
            n_slots=60,
            seed=4,
        )
        assert not estimate.bracketed
        assert estimate.factor_star == 2.0

    def test_stability_region_probe_seeds_are_identity_derived(self, problem):
        """The same factor probes identically regardless of grid shape."""
        a = stability_region(
            problem, PoissonArrivals(0.05), "rle",
            factor_lo=1.0, factor_hi=4.0, n_grid=2, max_iter=0, n_slots=40, seed=6,
        )
        b = stability_region(
            problem, PoissonArrivals(0.05), "rle",
            factor_lo=1.0, factor_hi=4.0, n_grid=2, max_iter=2, n_slots=40, seed=6,
        )
        assert a.probes[0] == b.probes[0]
        assert a.probes[1] == b.probes[1]

    def test_stability_validation(self, problem):
        with pytest.raises(ValueError, match="factor_lo"):
            stability_region(
                problem, PoissonArrivals(0.05), "rle", factor_lo=2.0, factor_hi=1.0
            )
        with pytest.raises(ValueError, match="mean_rate"):
            stability_region(problem, PoissonArrivals(0.0), "rle")


class TestWorkloadScenario:
    def test_roundtrip_through_json(self):
        scenario = WorkloadScenario(
            name="x",
            n_links=5,
            arrivals=PoissonArrivals(0.07),
            stability={"factor_hi": 16.0},
        )
        blob = json.dumps(scenario.to_dict())
        assert WorkloadScenario.from_dict(json.loads(blob)) == scenario

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario key"):
            WorkloadScenario.from_dict({"n_linkz": 5})

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            WorkloadScenario(topology="mesh")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValidationError, match="unknown scheduler 'nope'") as exc:
            WorkloadScenario(scheduler="nope")
        assert exc.value.param == "scheduler"

    def test_unknown_stability_option_rejected(self):
        with pytest.raises(ValueError, match="stability option"):
            WorkloadScenario(stability={"bisect_harder": True})

    def test_stability_defaults_resolve(self):
        scenario = WorkloadScenario(n_slots=123)
        options = scenario.stability_options()
        assert options["n_slots"] == 123
        assert WorkloadScenario(stability=None).stability_options() is None

    def test_run_scenario_payload(self):
        scenario = WorkloadScenario(
            name="mini",
            n_links=5,
            arrivals=PoissonArrivals(0.08),
            n_slots=50,
            stability={"factor_hi": 32.0, "n_grid": 3, "max_iter": 2, "n_slots": 60},
        )
        payload = run_scenario(scenario)
        assert payload["scenario"]["name"] == "mini"
        assert payload["stats"]["arrived"] >= 0
        assert payload["stability"]["n_probes"] >= 3

    def test_run_scenario_without_stability(self):
        scenario = WorkloadScenario(n_links=4, n_slots=20, stability=None)
        payload = run_scenario(scenario)
        assert payload["stability"] is None


class TestTrafficCli:
    def test_inline_flags_run(self, capsys):
        code = main(
            [
                "traffic",
                "--n-links", "5",
                "--slots", "40",
                "--rate", "0.08",
                "--no-stability",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rle/backlogged" in out
        assert "drift" in out

    def test_rate_sets_the_arrival_mean(self, tmp_path):
        out = tmp_path / "p.json"
        argv = ["traffic", "--arrival", "onoff", "--rate", "0.125", "--no-stability"]
        assert main([*argv, "--output", str(out)]) == 0
        arrivals = json.loads(out.read_text())["scenario"]["arrivals"]
        assert arrivals_from_spec(arrivals).mean_rate() == pytest.approx(0.125)

    def test_config_file_with_stability_and_output(self, tmp_path, capsys):
        config = {
            "name": "cli-scenario",
            "n_links": 5,
            "arrivals": {"family": "poisson", "rate": 0.08},
            "n_slots": 40,
            "stability": {"factor_hi": 32.0, "n_grid": 3, "max_iter": 2, "n_slots": 50},
        }
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "payload.json"
        code = main(
            ["traffic", "--config", str(cfg_path), "--output", str(out_path)]
        )
        assert code == 0
        assert "stability region" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["scenario"]["name"] == "cli-scenario"
        assert payload["stability"]["n_probes"] >= 3

    @pytest.mark.parametrize(
        "algorithm, lam_star, factor_star, bracketed, final_backlogs",
        [
            (
                "rle",
                0.3043157094201803,
                6.086314188403606,
                True,
                [0, 0, 0, 1, 246, 28, 137, 66, 109, 81],
            ),
            ("approx_diversity", 0.4, 8.0, False, [0, 0, 0, 1, 14]),
        ],
    )
    def test_stability_region_pinned_per_scheduler(
        self, tmp_path, algorithm, lam_star, factor_star, bracketed, final_backlogs
    ):
        """``repro traffic --n-links 12 --seed 0`` pins each scheduler's
        stability estimate: every probe replays its slots through
        ``simulate_slot``, so a changed channel draw moves these."""
        out = tmp_path / "payload.json"
        argv = ["traffic", "--n-links", "12", "--seed", "0", "--algorithm", algorithm]
        assert main([*argv, "--output", str(out)]) == 0
        estimate = json.loads(out.read_text())["stability"]
        assert estimate["lam_star"] == lam_star
        assert estimate["factor_star"] == factor_star
        assert estimate["bracketed"] is bracketed
        assert estimate["n_probes"] == len(final_backlogs)
        assert [p["final_backlog"] for p in estimate["probes"]] == final_backlogs

    def test_bad_config_rejected(self, tmp_path):
        cfg_path = tmp_path / "scenario.json"
        for config, reason in (
            ({"topology": "mesh"}, "unknown topology 'mesh'"),
            ({"scheduler": "nope"}, "unknown scheduler 'nope'"),
        ):
            cfg_path.write_text(json.dumps(config))
            with pytest.raises(SystemExit, match=f"bad scenario config .*{reason}"):
                main(["traffic", "--config", str(cfg_path)])

    def test_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["traffic", "--policy", "psychic"])
