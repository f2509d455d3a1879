"""Regenerate the schedule-cache golden trace under ``tests/goldens/``.

The golden pins the byte-exact hit/miss/evict event sequence (plus the
cache counters and the workload summary) of a repeating-topology
traffic run served through a small :class:`repro.cache.ScheduleCache`:
the backlogged policy re-submits recurring backlog sets, so the stream
has exact hits and — with the deliberately tiny capacity — forces
evictions.  Event labels are exact-key prefixes.  ``tests/test_cache_goldens.py`` additionally
asserts the same bytes come out for ``n_jobs`` in {1, 2, 4}.

Run only when the determinism contract *deliberately* changes:
``PYTHONPATH=src python tools/regen_cache_goldens.py``.  The byte
comparison depends on this exact serialization
(``json.dump(..., indent=2, sort_keys=True)`` plus a trailing
newline).
"""

from __future__ import annotations

import json
from pathlib import Path

SEED = 2017
CAPACITY = 6
GOLDEN_PATH = Path(__file__).parents[1] / "tests" / "goldens" / "cache_events.json"


def build_scenario():
    """The pinned repeating-topology traffic scenario."""
    from repro.workload.generators import PoissonArrivals
    from repro.workload.scenario import WorkloadScenario

    return WorkloadScenario(
        name="cache-golden",
        topology="paper",
        n_links=6,
        topology_seed=3,
        alpha=3.0,
        gamma_th=1.0,
        eps=0.05,
        arrivals=PoissonArrivals(rate=0.2),
        scheduler="rle",
        policy="backlogged",
        n_slots=60,
        seed=SEED,
        stability={"factor_lo": 0.5, "factor_hi": 4.0, "n_grid": 2, "max_iter": 2, "n_slots": 25},
    )


def build_payload(n_jobs: int = 1) -> dict:
    """One full golden run: scenario + summary + cache events/counters."""
    from repro.cache.store import ScheduleCache
    from repro.workload.scenario import run_scenario

    cache = ScheduleCache(capacity=CAPACITY)
    result = run_scenario(build_scenario(), n_jobs=n_jobs, cache=cache)
    return {
        "scenario": result["scenario"],
        "stats": result["stats"],
        "stability": result["stability"],
        "cache": result["cache"],
        "events": [[kind, prefix] for kind, prefix in cache.events],
    }


def main() -> None:
    payload = build_payload(n_jobs=1)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    kinds = [kind for kind, _ in payload["events"]]
    print(
        f"wrote {GOLDEN_PATH} ({len(kinds)} events: "
        + ", ".join(f"{k}={kinds.count(k)}" for k in sorted(set(kinds)))
        + ")"
    )


if __name__ == "__main__":
    main()
