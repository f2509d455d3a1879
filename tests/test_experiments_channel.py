"""Channel/power threading through the experiment pipeline.

``with_channel`` validation, checkpoint-key sensitivity, the
``power_sweep`` grid, and bit-identical ``run_schedulers``/fig5 results
across worker counts for a non-default (channel, power_policy) pair.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.base import get_scheduler
from repro.experiments.config import ExperimentConfig, TopologyWorkload
from repro.experiments.power_sweep import power_sweep
from repro.sim.parallel import WorkUnit, checkpoint_key
from repro.sim.runner import run_schedulers

WORKLOAD = TopologyWorkload(n_links=20)
SCHEDULERS = {"greedy": get_scheduler("greedy"), "rle": get_scheduler("rle")}


class TestWithChannel:
    def test_canonicalises_spec(self):
        cfg = ExperimentConfig().with_channel(channel="shadowing:sigma_db=6")
        assert cfg.channel == "shadowing:sigma_db=6,static=false"
        assert cfg.power_policy == "uniform"  # untouched

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.channel == "rayleigh"
        assert cfg.power_policy == "uniform"

    def test_policy_only(self):
        cfg = ExperimentConfig().with_channel(power_policy="min_uniform")
        assert cfg.channel == "rayleigh"
        assert cfg.power_policy == "min_uniform"

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown channel law"):
            ExperimentConfig().with_channel(channel="bogus")
        with pytest.raises(ValueError, match="bad parameters"):
            ExperimentConfig().with_channel(channel="nakagami:q=3")

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown power policy"):
            ExperimentConfig().with_channel(power_policy="loudest_wins")


def _unit(**overrides):
    base = dict(
        tag=0,
        rep=0,
        name="rle",
        scheduler=get_scheduler("rle"),
        workload=WORKLOAD,
        n_trials=50,
        alpha=3.0,
        gamma_th=1.0,
        eps=0.01,
        root_seed=7,
    )
    base.update(overrides)
    return WorkUnit(**base)


class TestCheckpointKey:
    def test_channel_changes_key(self):
        assert checkpoint_key(_unit()) != checkpoint_key(
            _unit(channel="nakagami:m=2")
        )

    def test_power_policy_changes_key(self):
        assert checkpoint_key(_unit()) != checkpoint_key(
            _unit(power_policy="distance_proportional")
        )

    def test_none_equals_canonical_rayleigh(self):
        assert checkpoint_key(_unit(channel=None)) == checkpoint_key(
            _unit(channel="rayleigh")
        )

    def test_spec_canonicalised_before_hashing(self):
        assert checkpoint_key(_unit(channel="shadowing:sigma_db=6")) == checkpoint_key(
            _unit(channel="shadowing:sigma_db=6,static=false")
        )


def _run(*, n_jobs=1):
    return run_schedulers(
        SCHEDULERS,
        WORKLOAD,
        n_repetitions=2,
        n_trials=50,
        root_seed=11,
        n_jobs=n_jobs,
        channel="shadowing:sigma_db=6",
        power_policy="distance_proportional",
    )


def _assert_identical(got, want):
    assert got.keys() == want.keys()
    for name in want:
        for a, b in zip(got[name].per_rep, want[name].per_rep):
            assert a.mean_failed == b.mean_failed
            assert a.mean_throughput == b.mean_throughput
            assert np.array_equal(a.per_link_success, b.per_link_success)
            assert np.array_equal(a.active_indices, b.active_indices)


class TestBitInvariance:
    """Acceptance: non-default channel+policy results are bit-identical
    across worker counts."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _run(n_jobs=1)

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_jobs_grid(self, baseline, n_jobs):
        _assert_identical(_run(n_jobs=n_jobs), baseline)

    def test_channel_actually_changes_results(self, baseline):
        rayleigh = run_schedulers(
            SCHEDULERS,
            WORKLOAD,
            n_repetitions=2,
            n_trials=50,
            root_seed=11,
        )
        changed = any(
            a.mean_failed != b.mean_failed
            for name in baseline
            for a, b in zip(baseline[name].per_rep, rayleigh[name].per_rep)
        )
        assert changed, "shadowing+distance_proportional replayed as Rayleigh"


class TestPowerSweep:
    def test_small_grid(self):
        cfg = ExperimentConfig(n_repetitions=1, n_trials=30)
        cells = power_sweep(
            cfg,
            channels=("rayleigh", "deterministic"),
            policies=("uniform", "distance_proportional"),
            schedulers=("rle", "greedy"),
            n_links=10,
            n_repetitions=1,
            n_trials=30,
        )
        assert len(cells) == 4  # channel-major grid order
        assert [c.channel for c in cells] == [
            "rayleigh",
            "rayleigh",
            "deterministic",
            "deterministic",
        ]
        for cell in cells:
            assert set(cell.results) == {"rle", "greedy"}

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(KeyError):
            power_sweep(schedulers=("nope",), n_links=8, n_trials=10)

    def test_brute_force_capped(self):
        with pytest.raises(ValueError, match="n_links"):
            power_sweep(schedulers=("brute_force",), n_links=40, n_trials=10)


TINY = ExperimentConfig(
    n_links_sweep=(20,),
    alpha_sweep=(3.0,),
    n_links_fixed=20,
    n_repetitions=1,
    n_trials=20,
)


class TestCliAcceptance:
    """`repro fig5 --channel shadowing --power-policy distance_proportional`
    end-to-end, bit-identical across worker counts."""

    @pytest.fixture(autouse=True)
    def tiny_cfg(self, monkeypatch):
        monkeypatch.setattr(ExperimentConfig, "small", lambda self: TINY)

    def _fig5(self, tmp_path, tag, jobs):
        out = tmp_path / f"fig5-{tag}.json"
        assert (
            main(
                [
                    "fig5",
                    "--channel",
                    "shadowing",
                    "--power-policy",
                    "distance_proportional",
                    "--jobs",
                    str(jobs),
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        return json.loads(out.read_text())

    def test_bit_identical_across_jobs(self, tmp_path):
        baseline = self._fig5(tmp_path, "base", 1)
        assert set(baseline) >= {"fig5a", "fig5b"}
        for jobs in (2, 4):
            assert self._fig5(tmp_path, f"jobs{jobs}", jobs) == baseline

    def test_banner_names_channel(self, tmp_path, capsys):
        self._fig5(tmp_path, "banner", 1)
        out = capsys.readouterr().out
        assert "shadowing:sigma_db=6,static=false" in out
        assert "distance_proportional" in out
