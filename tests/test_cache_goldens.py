"""Golden hit/miss trace for the schedule cache.

``tests/goldens/cache_events.json`` pins — byte for byte — the event
sequence (exact/miss/evict, by exact-key prefix), the cache counters
and the workload summary of a repeating-topology traffic run served
through a small cache.  The trace must not depend
on the process fan-out, so the same bytes are asserted for ``n_jobs``
in {1, 2, 4}.

Regenerate (only on a deliberate contract change) with::

    PYTHONPATH=src python tools/regen_cache_goldens.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from regen_cache_goldens import (  # noqa: E402
    CAPACITY,
    GOLDEN_PATH,
    build_payload,
    build_scenario,
)

from repro.cache import store  # noqa: E402
from repro.workload.scenario import run_scenario  # noqa: E402

EVENT_KINDS = {"exact", "miss", "evict"}


def _golden_bytes() -> bytes:
    return GOLDEN_PATH.read_bytes()


def _payload_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


class TestGoldenTrace:
    def test_golden_trace_matches(self):
        assert _payload_bytes(build_payload(n_jobs=1)) == _golden_bytes()

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_trace_is_invariant_across_n_jobs(self, n_jobs):
        assert _payload_bytes(build_payload(n_jobs=n_jobs)) == _golden_bytes()


class TestGoldenShape:
    """Structural sanity of the pinned file itself."""

    def test_event_kinds_and_mixture(self):
        golden = json.loads(_golden_bytes())
        kinds = [kind for kind, _ in golden["events"]]
        assert set(kinds) <= EVENT_KINDS
        # The scenario was tuned so the trace exercises repetition
        # (exact) and pressure (evict) at once.
        for required in ("exact", "miss", "evict"):
            assert required in kinds, f"golden trace lost its {required} events"

    def test_counters_agree_with_the_event_log(self):
        golden = json.loads(_golden_bytes())
        kinds = [kind for kind, _ in golden["events"]]
        cache = golden["cache"]
        assert cache["exact_hits"] == kinds.count("exact")
        assert cache["canonical_hits"] == cache["warm_hits"] == 0
        assert cache["misses"] == kinds.count("miss")
        assert cache["evictions"] == kinds.count("evict")
        assert cache["entries"] <= cache["capacity"]

    def test_event_labels_are_exact_key_prefixes(self, monkeypatch):
        keys = set()
        real = store.exact_key

        def recording(problem, scheduler_id):
            key = real(problem, scheduler_id)
            keys.add(key)
            return key

        monkeypatch.setattr(store, "exact_key", recording)
        run_scenario(build_scenario(), cache=store.ScheduleCache(capacity=CAPACITY))
        golden = json.loads(_golden_bytes())
        assert {prefix for _, prefix in golden["events"]} <= {key[:12] for key in keys}
