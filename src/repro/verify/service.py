"""``service-vs-direct`` differential check (serving-layer oracles).

One registered differential check over
:class:`repro.service.broker.ScheduleBroker`, driving the whole broker
path — admission, coalescing, batching, the worker pool, the schedule
cache — on each fuzzed scenario and comparing against a
direct scheduler call:

- **serving bit-identity** — every answer the broker returns (the
  computed one, its coalesced duplicates, and a later cache-tier
  replay) must be bit-identical to ``rle_schedule`` on the same
  problem (``service-schedule-divergence``);
- **coalescing accounting** — ``k`` concurrent identical submissions
  must coalesce onto exactly one scheduler run
  (``service-coalesce-divergence``);
- **deterministic backpressure** — a seeded burst of distinct
  topologies against a stalled broker with ``queue_limit = q`` must
  accept exactly the first ``q`` and reject the rest with 503, in
  order (``service-backpressure-nondeterminism``);
- **request accounting** — the broker's counters must balance:
  ``requests == scheduled + coalesced + rejected`` with no request
  unaccounted for (``service-accounting-loss``).

The helpers are module-level so the fault-injection tests can
monkeypatch them to prove each reason code fires.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List

import numpy as np

from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.core.schedule import Schedule
from repro.service.broker import AdmissionError, Overloaded, ScheduleBroker
from repro.verify.differential import _mismatch, register_differential
from repro.verify.fuzz import Scenario
from repro.verify.report import Mismatch

#: Reason codes emitted by the check below.
CODE_SERVICE_SCHEDULE = "service-schedule-divergence"
CODE_SERVICE_COALESCE = "service-coalesce-divergence"
CODE_SERVICE_BACKPRESSURE = "service-backpressure-nondeterminism"
CODE_SERVICE_ACCOUNTING = "service-accounting-loss"

#: Cap on the instance slice the check schedules (speed, not scale).
_MAX_LINKS = 14

#: Concurrent identical submissions in the coalescing probe.
_N_DUPLICATES = 6
#: Burst size / queue limit of the backpressure probe.
_BURST = 8
_QUEUE_LIMIT = 3


def _service_problem(problem: FadingRLS) -> FadingRLS:
    """The (possibly truncated) instance the check runs on."""
    if problem.n_links <= _MAX_LINKS:
        return problem
    return problem.restrict(np.arange(_MAX_LINKS))


def _direct_schedule(problem: FadingRLS) -> Schedule:
    """The serving oracle: a plain uncached scheduler run."""
    return rle_schedule(problem)


def _burst_problems(problem: FadingRLS) -> List[FadingRLS]:
    """``_BURST`` distinct single-link-dropped variants of ``problem``.

    Each drops a different link, so no two share an exact key and none
    coalesce — the burst really does occupy queue slots.
    """
    n = problem.n_links
    return [
        problem.restrict(np.delete(np.arange(n), i % n)) for i in range(_BURST)
    ]


async def _drive_serving(problem: FadingRLS) -> Dict[str, Any]:
    """Coalescing probe: ``_N_DUPLICATES`` identical concurrent submits.

    Submissions are scheduled before the worker runs (a single
    ``gather`` enqueues them back-to-back on the loop), so exactly one
    enters the queue and the rest attach to its future.
    """
    broker = ScheduleBroker(n_workers=2, inline=True)
    await broker.start()
    try:
        results = await asyncio.gather(
            *(broker.submit(problem) for _ in range(_N_DUPLICATES))
        )
        replay = await broker.submit(problem)  # exact-key cache tier
        return {
            "schedules": [r["schedule"] for r in results] + [replay["schedule"]],
            "replay_tier": replay["tier"],
            "stats": broker.stats,
        }
    finally:
        await broker.close()


async def _drive_backpressure(problems: List[FadingRLS]) -> Dict[str, Any]:
    """Overload probe: burst a stalled broker, then drain it.

    The broker's workers are not started while the burst lands, so the
    queue fills deterministically: the first ``_QUEUE_LIMIT`` distinct
    submissions are accepted, the rest must raise 503 in order.
    """
    broker = ScheduleBroker(queue_limit=_QUEUE_LIMIT, n_workers=1, inline=True)
    tasks = [asyncio.ensure_future(broker.submit(p)) for p in problems]
    await asyncio.sleep(0)  # let every submit run to its first await
    rejected = [
        i
        for i, t in enumerate(tasks)
        if t.done() and isinstance(t.exception(), Overloaded)
    ]
    await broker.start()  # now drain the accepted ones
    accepted: List[Schedule] = []
    for i, task in enumerate(tasks):
        if i in rejected:
            continue
        try:
            accepted.append((await task)["schedule"])
        except AdmissionError:  # pragma: no cover - accept set already fixed
            rejected.append(i)
    await broker.close()
    return {"rejected": rejected, "accepted": accepted, "stats": broker.stats}


@register_differential("service-vs-direct")
def check_service_vs_direct(scenario: Scenario) -> List[Mismatch]:
    """The broker must serve exactly what a direct scheduler call does."""
    name = "service-vs-direct"
    out: List[Mismatch] = []
    problem = _service_problem(scenario.problem)
    if problem.n_links < 2:
        return out
    direct = _direct_schedule(problem)

    served = asyncio.run(_drive_serving(problem))
    for i, schedule in enumerate(served["schedules"]):
        if not np.array_equal(schedule.active, direct.active):
            out.append(
                _mismatch(
                    name,
                    scenario,
                    CODE_SERVICE_SCHEDULE,
                    f"served schedule #{i} diverges from the direct run",
                    served=[int(x) for x in schedule.active],
                    direct=[int(x) for x in direct.active],
                )
            )
    stats = served["stats"]
    if stats["scheduled"] != 2 or stats["coalesced"] != _N_DUPLICATES - 1:
        out.append(
            _mismatch(
                name,
                scenario,
                CODE_SERVICE_COALESCE,
                f"{_N_DUPLICATES} identical concurrent requests plus one replay "
                f"should coalesce to 2 scheduler runs, got "
                f"{stats['scheduled']} runs / {stats['coalesced']} coalesced",
                scheduled=stats["scheduled"],
                coalesced=stats["coalesced"],
            )
        )
    if served["replay_tier"] != "cache":
        out.append(
            _mismatch(
                name,
                scenario,
                CODE_SERVICE_COALESCE,
                f"a replayed request should serve from the cache tier, "
                f"got {served['replay_tier']!r}",
            )
        )

    burst = asyncio.run(_drive_backpressure(_burst_problems(problem)))
    expected_rejected = list(range(_QUEUE_LIMIT, _BURST))
    if sorted(burst["rejected"]) != expected_rejected:
        out.append(
            _mismatch(
                name,
                scenario,
                CODE_SERVICE_BACKPRESSURE,
                f"queue_limit={_QUEUE_LIMIT} burst of {_BURST} should reject "
                f"exactly positions {expected_rejected}, got "
                f"{sorted(burst['rejected'])}",
                rejected=sorted(burst["rejected"]),
            )
        )
    bstats = burst["stats"]
    accounted = (
        bstats["scheduled"]
        + bstats["coalesced"]
        + bstats["rejected_429"]
        + bstats["rejected_503"]
        + bstats["errors"]
    )
    if accounted != bstats["requests"]:
        out.append(
            _mismatch(
                name,
                scenario,
                CODE_SERVICE_ACCOUNTING,
                f"{bstats['requests']} requests but only {accounted} accounted "
                f"for across scheduled/coalesced/rejected/errors",
                stats={k: v for k, v in bstats.items() if isinstance(v, int)},
            )
        )
    return out
