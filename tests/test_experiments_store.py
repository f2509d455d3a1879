"""Tests for the experiment result store (``UnitCheckpoint``) and its keys."""

import pytest

from repro.cache.fingerprint import config_key
from repro.experiments.store import UnitCheckpoint, result_to_payload
from repro.sim.metrics import SimulationResult


def _result():
    return SimulationResult(
        algorithm="rle",
        n_scheduled=2,
        n_trials=10,
        mean_failed=0.1,
        failed_stderr=0.01,
        mean_throughput=1.9,
        throughput_stderr=0.02,
        scheduled_rate=0.5,
        per_link_success=[0.95, 0.95],
        active_indices=[0, 3],
    )


class TestConfigKey:
    def test_deterministic(self):
        assert config_key("x", {"a": 1}) == config_key("x", {"a": 1})

    def test_unserialisable_rejected(self):
        with pytest.raises(TypeError):
            config_key("x", {"fn": object()})


class TestResultStore:
    def test_corrupt_entry_is_miss(self, tmp_path):
        store = UnitCheckpoint(tmp_path)
        key = config_key("exp", {})
        store.path_for(key).write_text("{not json")
        assert store.get(key) is None
        # writing the entry again repairs it on disk
        store.put(key, _result())
        assert result_to_payload(store.get(key)) == result_to_payload(_result())
