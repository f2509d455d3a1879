"""Golden hit/miss trace for the schedule cache.

``tests/goldens/cache_events.json`` pins — byte for byte — the event
sequence (exact/canonical/miss/evict, by fingerprint prefix), the
cache counters and the workload summary of a repeating-topology
traffic run served through a small cache.  The trace must not depend
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

from regen_cache_goldens import GOLDEN_PATH, build_payload  # noqa: E402

EVENT_KINDS = {"exact", "canonical", "warm", "miss", "evict"}


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
        # (exact), congruence (canonical) and pressure (evict) at once.
        for required in ("exact", "canonical", "miss", "evict"):
            assert required in kinds, f"golden trace lost its {required} events"

    def test_counters_agree_with_the_event_log(self):
        golden = json.loads(_golden_bytes())
        kinds = [kind for kind, _ in golden["events"]]
        cache = golden["cache"]
        assert cache["exact_hits"] == kinds.count("exact")
        assert cache["canonical_hits"] == kinds.count("canonical")
        assert cache["warm_hits"] == kinds.count("warm")
        assert cache["misses"] == kinds.count("miss")
        assert cache["evictions"] == kinds.count("evict")
        assert cache["entries"] <= cache["capacity"]

    def test_fingerprint_prefixes_are_hex(self):
        golden = json.loads(_golden_bytes())
        for _, prefix in golden["events"]:
            assert len(prefix) == 12
            int(prefix, 16)
