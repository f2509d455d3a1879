"""End-to-end determinism of the parallel experiment pipeline.

``n_jobs`` must be invisible in every figure driver's output — these
run the real drivers (small configs) at several worker counts and
require exact equality, not statistical closeness.
"""

import numpy as np

from repro.core.ldp import ldp_schedule
from repro.core.rle import rle_schedule
from repro.experiments.ablations import rle_c2_ablation
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5 import failed_vs_links
from repro.experiments.fig6 import throughput_vs_alpha
from repro.experiments.tradeoff import eps_tradeoff


def _small(n_jobs=1):
    return ExperimentConfig(
        n_links_sweep=(20, 35),
        alpha_sweep=(2.5, 3.5),
        n_links_fixed=30,
        n_repetitions=2,
        n_trials=30,
        root_seed=2017,
        n_jobs=n_jobs,
    )


class TestFigureDriversParallel:
    def test_failed_vs_links_jobs_invariant(self):
        serial = failed_vs_links(_small(1))
        pooled = failed_vs_links(_small(4))
        assert serial.x_values == pooled.x_values
        for alg in serial.series:
            assert serial.metric(alg, "mean_failed") == pooled.metric(alg, "mean_failed")
            assert serial.metric(alg, "mean_throughput") == pooled.metric(
                alg, "mean_throughput"
            )
            assert serial.metric(alg, "failed_std") == pooled.metric(alg, "failed_std")

    def test_throughput_vs_alpha_jobs_invariant(self):
        serial = throughput_vs_alpha(_small(1))
        pooled = throughput_vs_alpha(_small(3))
        for alg in serial.series:
            assert serial.metric(alg, "mean_throughput") == pooled.metric(
                alg, "mean_throughput"
            )


class TestTradeoffParallel:
    def test_eps_tradeoff_jobs_invariant(self):
        kwargs = dict(
            schedulers={"rle": rle_schedule, "ldp": ldp_schedule},
            eps_values=(0.01, 0.1),
            n_links=25,
            n_repetitions=2,
            n_trials=25,
        )
        serial = eps_tradeoff(n_jobs=1, **kwargs)
        pooled = eps_tradeoff(n_jobs=2, **kwargs)
        assert len(serial) == len(pooled) == 4
        for a, b in zip(serial, pooled):
            assert (a.eps, a.algorithm) == (b.eps, b.algorithm)
            assert a.mean_scheduled == b.mean_scheduled
            assert a.mean_expected_goodput == b.mean_expected_goodput
            assert a.mean_failed == b.mean_failed


class TestAblationsParallel:
    def test_rle_c2_jobs_invariant(self):
        kwargs = dict(c2_values=(0.25, 0.75), n_links=30, n_repetitions=2)
        serial = rle_c2_ablation(n_jobs=1, **kwargs)
        pooled = rle_c2_ablation(n_jobs=2, **kwargs)
        assert serial.means == pooled.means
        assert serial.stds == pooled.stds


class TestConfigKnobs:
    def test_with_execution(self):
        cfg = ExperimentConfig()
        assert cfg.n_jobs == 1
        cfg2 = cfg.with_execution(n_jobs=8)
        assert cfg2.n_jobs == 8
        # an unspecified n_jobs is kept
        assert cfg2.with_execution() is cfg2

    def test_small_preserves_execution_knobs(self):
        cfg = ExperimentConfig(n_jobs=4).small()
        assert cfg.n_jobs == 4

    def test_workload_is_picklable(self):
        import pickle

        workload = ExperimentConfig().workload(50)
        clone = pickle.loads(pickle.dumps(workload))
        a, b = workload(7), clone(7)
        np.testing.assert_array_equal(a.senders, b.senders)
        np.testing.assert_array_equal(a.receivers, b.receivers)
