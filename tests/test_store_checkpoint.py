"""Tests for per-unit checkpointing and resume (`UnitCheckpoint`).

Contract: a checkpointed `SimulationResult` round-trips bit-exactly
through JSON (shortest-repr floats), damaged entries read as misses,
and a resumed `execute_units` recomputes *only* the units missing from
the checkpoint directory.
"""

import functools

import numpy as np
import pytest

from repro.core.base import get_scheduler
from repro.experiments.config import TopologyWorkload
from repro.experiments.store import (
    UNIT_PAYLOAD_SCHEMA,
    UnitCheckpoint,
    result_from_payload,
    result_to_payload,
)
from repro.obs import metrics as obs_metrics
from repro.sim.metrics import SimulationResult
from repro.sim.parallel import build_units, checkpoint_key, execute_units
from repro.sim.resilient import RetryPolicy

pytestmark = pytest.mark.chaos


def _result(**overrides):
    base = dict(
        algorithm="rle",
        n_scheduled=7,
        n_trials=40,
        mean_failed=1.0 / 3.0,
        failed_stderr=0.07071067811865475,
        mean_throughput=6.333333333333333,
        throughput_stderr=0.1,
        scheduled_rate=7.0,
        per_link_success=np.array([0.1, 0.2, 1.0 / 3.0]),
        active_indices=np.array([0, 3, 5], dtype=np.int64),
    )
    base.update(overrides)
    return SimulationResult(**base)


class TestPayloadRoundTrip:
    def test_bit_exact_floats(self):
        r = _result()
        back = result_from_payload(result_to_payload(r))
        assert back.mean_failed == r.mean_failed
        assert back.failed_stderr == r.failed_stderr
        assert back.mean_throughput == r.mean_throughput
        assert np.array_equal(back.per_link_success, r.per_link_success)
        assert np.array_equal(back.active_indices, r.active_indices)
        assert back.algorithm == r.algorithm
        assert back.n_scheduled == r.n_scheduled and back.n_trials == r.n_trials

    def test_json_serialisable_and_versioned(self):
        import json

        payload = result_to_payload(_result())
        assert payload["schema"] == UNIT_PAYLOAD_SCHEMA
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_schema_rejected(self):
        payload = result_to_payload(_result())
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            result_from_payload(payload)

    def test_missing_fields_rejected(self):
        payload = result_to_payload(_result())
        del payload["mean_failed"]
        with pytest.raises(ValueError, match="missing fields"):
            result_from_payload(payload)


class TestUnitCheckpoint:
    def test_put_get_round_trip(self, tmp_path):
        ck = UnitCheckpoint(tmp_path)
        r = _result()
        ck.put("abc", r)
        back = ck.get("abc")
        assert back is not None
        assert back.mean_failed == r.mean_failed
        assert np.array_equal(back.per_link_success, r.per_link_success)
        assert len(ck) == 1 and ck.keys() == ["abc"]

    def test_miss_returns_none(self, tmp_path):
        assert UnitCheckpoint(tmp_path).get("nope") is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        ck = UnitCheckpoint(tmp_path)
        ck.put("abc", _result())
        path = ck.store.path_for("abc")
        path.write_text(path.read_text()[:30])  # torn write
        assert ck.get("abc") is None

    def test_wrong_shape_entry_is_miss(self, tmp_path):
        ck = UnitCheckpoint(tmp_path)
        ck.store.put("abc", {"schema": UNIT_PAYLOAD_SCHEMA, "algorithm": "x"})
        assert ck.get("abc") is None


WORKLOAD = TopologyWorkload(n_links=20)
SCHEDULERS = {"rle": get_scheduler("rle"), "ldp": get_scheduler("ldp")}


def _units(schedulers=SCHEDULERS):
    return build_units(
        schedulers,
        WORKLOAD,
        n_repetitions=2,
        n_trials=30,
        alpha=3.0,
        gamma_th=1.0,
        eps=0.01,
        root_seed=5,
    )


_SCHEDULER_CALLS = []


def _failing_scheduler(problem, **kwargs):
    _SCHEDULER_CALLS.append(problem.n_links)
    raise ZeroDivisionError("scheduler failed")


class TestCheckpointKey:
    def test_stable_across_calls(self):
        a, b = _units(), _units()
        assert [checkpoint_key(u) for u in a] == [checkpoint_key(u) for u in b]

    def test_distinct_per_unit(self):
        ks = [checkpoint_key(u) for u in _units()]
        assert len(set(ks)) == len(ks)

    def test_parameters_change_the_key(self):
        from dataclasses import replace

        u = _units()[0]
        assert checkpoint_key(replace(u, n_trials=31)) != checkpoint_key(u)
        assert checkpoint_key(replace(u, root_seed=6)) != checkpoint_key(u)
        assert checkpoint_key(replace(u, alpha=3.5)) != checkpoint_key(u)

    def test_address_free_for_partials(self):
        # repr() of a function embeds its memory address; keys must not.
        from dataclasses import replace

        def remake(c2):
            sched = functools.partial(get_scheduler("rle"), c2=c2)
            return checkpoint_key(replace(_units()[0], scheduler=sched))

        assert remake(0.5) == remake(0.5)
        assert remake(0.5) != remake(0.25)


class TestResume:
    def test_interrupted_sweep_recomputes_only_missing_units(self, tmp_path):
        units = _units()
        clean = execute_units(units)

        ck = UnitCheckpoint(tmp_path)
        full = execute_units(units, checkpoint=ck)
        assert len(ck) == len(units)
        for a, b in zip(full, clean):
            assert a.mean_failed == b.mean_failed
            assert np.array_equal(a.per_link_success, b.per_link_success)

        # "interrupt": drop two units from the checkpoint, keep the rest
        keys = [checkpoint_key(u) for u in units]
        for key in (keys[1], keys[2]):
            ck.store.path_for(key).unlink()
        kept = set(keys) - {keys[1], keys[2]}
        kept_stats = {k: ck.store.path_for(k).stat().st_mtime_ns for k in kept}

        resumed = execute_units(units, checkpoint=ck)
        for a, b in zip(resumed, clean):
            assert a.mean_failed == b.mean_failed
            assert a.mean_throughput == b.mean_throughput
            assert np.array_equal(a.per_link_success, b.per_link_success)
            assert np.array_equal(a.active_indices, b.active_indices)
        # only the two missing units were recomputed: the kept entries'
        # files were never rewritten
        for k, mtime in kept_stats.items():
            assert ck.store.path_for(k).stat().st_mtime_ns == mtime
        assert len(ck) == len(units)

    def test_resume_counts_served_units(self, tmp_path, obs_enabled):
        units = _units()
        ck = UnitCheckpoint(tmp_path)
        execute_units(units, checkpoint=ck)
        obs_enabled.reset()
        execute_units(units, checkpoint=ck)
        snap = obs_metrics.snapshot()
        assert snap["counters"]["resilience.units_from_checkpoint"] == len(units)
        # nothing was recomputed, so no unit-level metrics were recorded
        assert "scheduler.links_admitted" not in snap["counters"]

    def test_checkpoint_without_policy_tries_each_unit_once(self, tmp_path):
        # A checkpoint persists results; it must not turn on retries.
        _SCHEDULER_CALLS.clear()
        with pytest.raises(ZeroDivisionError, match="scheduler failed"):
            execute_units(
                _units({"boom": _failing_scheduler}), checkpoint=UnitCheckpoint(tmp_path)
            )
        assert len(_SCHEDULER_CALLS) == 1

    def test_checkpoint_composes_with_policy_and_jobs(self, tmp_path):
        units = _units()
        clean = execute_units(units)
        ck = UnitCheckpoint(tmp_path)
        policy = RetryPolicy(max_retries=1, backoff_base=0.0, poll_interval=0.02)
        got = execute_units(units, n_jobs=2, policy=policy, checkpoint=ck)
        for a, b in zip(got, clean):
            assert a.mean_failed == b.mean_failed
            assert np.array_equal(a.per_link_success, b.per_link_success)
        assert len(ck) == len(units)
