"""``cache-vs-fresh`` differential check (schedule-cache oracles).

One registered differential check over
:class:`repro.cache.store.ScheduleCache`, comparing the cache against an
uncached run of the same scheduler on each fuzzed scenario:

- **miss + exact hit** — the first (miss) answer and the second (exact
  hit) answer must both be *bit-identical* to a fresh ``rle`` run
  (``cache-exact-divergence``);
- **congruent and jittered probes** — a rotated + translated +
  relabeled copy and a copy with endpoints moved by ~2% of the mean
  link length, each drawn from the scenario seed, go through the same
  cache after the original is cached.  Each answer must be
  bit-identical to a fresh ``rle`` run on that probe
  (``cache-exact-divergence``): a cache that served a nearby entry's
  schedule would fail here;
- **persistence** — a write/reopen round trip through a temporary
  directory must replay the stored schedule bit-for-bit
  (``cache-store-divergence``).

The small helper functions are module-level on purpose: the
fault-injection tests monkeypatch them to prove each reason code
actually fires on a corrupted cache.
"""

from __future__ import annotations

import tempfile
from typing import List, Tuple

import numpy as np

from repro.cache.store import ScheduleCache
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.core.schedule import Schedule
from repro.network.links import LinkSet
from repro.utils.rng import stable_seed
from repro.verify.differential import _mismatch, register_differential
from repro.verify.fuzz import Scenario
from repro.verify.report import Mismatch

#: Reason codes emitted by the check below.
CODE_CACHE_EXACT = "cache-exact-divergence"
CODE_CACHE_STORE = "cache-store-divergence"

#: Cap on the instance slice the check schedules (speed, not scale).
_MAX_LINKS = 14


def _cache_problem(problem: FadingRLS) -> FadingRLS:
    """The (possibly truncated) instance the check runs on."""
    if problem.n_links <= _MAX_LINKS:
        return problem
    return problem.restrict(np.arange(_MAX_LINKS))


def _rebuilt(problem: FadingRLS, senders, receivers, rates) -> FadingRLS:
    return FadingRLS(
        links=LinkSet(senders=senders, receivers=receivers, rates=rates),
        alpha=problem.alpha,
        gamma_th=problem.gamma_th,
        eps=problem.eps,
        noise=problem.noise,
        power=problem.power,
    )


def _congruent_copy(problem: FadingRLS, rng: np.random.Generator) -> FadingRLS:
    """A rotated + translated + relabeled copy of ``problem``."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    shift = rng.uniform(-100.0, 100.0, size=2)
    perm = rng.permutation(problem.n_links)
    senders = (np.asarray(problem.links.senders) @ rot.T + shift)[perm]
    receivers = (np.asarray(problem.links.receivers) @ rot.T + shift)[perm]
    return _rebuilt(problem, senders, receivers, np.asarray(problem.links.rates)[perm])


def _jittered_copy(problem: FadingRLS, rng: np.random.Generator) -> FadingRLS:
    """A nearby copy: endpoints moved by ~2% of the mean link length."""
    senders = np.asarray(problem.links.senders, dtype=float)
    receivers = np.asarray(problem.links.receivers, dtype=float)
    scale = 0.02 * float(np.linalg.norm(receivers - senders, axis=1).mean())
    return _rebuilt(
        problem,
        senders + rng.normal(scale=scale, size=senders.shape),
        receivers + rng.normal(scale=scale, size=receivers.shape),
        np.asarray(problem.links.rates),
    )


def _fresh_schedule(problem: FadingRLS) -> Schedule:
    """The uncached reference run (monkeypatch seam)."""
    return rle_schedule(problem)


def _cache_serve(cache: ScheduleCache, problem: FadingRLS) -> Schedule:
    """One request through the cache (monkeypatch seam)."""
    return cache.schedule(problem, "rle")


def _persisted_replay(problem: FadingRLS) -> Tuple[Schedule, Schedule]:
    """Write-then-reopen round trip; returns (stored, replayed)."""
    with tempfile.TemporaryDirectory(prefix="repro-cache-diff-") as tmp:
        writer = ScheduleCache(capacity=4, directory=tmp)
        stored = writer.schedule(problem, "rle")
        writer.flush()
        reader = ScheduleCache(capacity=4, directory=tmp)
        replayed = reader.schedule(problem, "rle")
    return stored, replayed


@register_differential("cache-vs-fresh")
def check_cache_vs_fresh(scenario: Scenario) -> List[Mismatch]:
    """Every cache answer against an uncached run of the same scheduler."""
    name = "cache-vs-fresh"
    p = _cache_problem(scenario.problem)
    rng = np.random.default_rng(stable_seed("cache-vs-fresh", scenario.seed))
    out: List[Mismatch] = []

    cache = ScheduleCache(capacity=8)
    probes = [
        (p, "miss"),
        (p, "exact-hit"),
        (_congruent_copy(p, rng), "congruent"),
        (_jittered_copy(p, rng), "jittered"),
    ]
    for probe, label in probes:
        served = _cache_serve(cache, probe)
        fresh = _fresh_schedule(probe)
        if not np.array_equal(np.asarray(served.active), np.asarray(fresh.active)):
            out.append(
                _mismatch(
                    name,
                    scenario,
                    CODE_CACHE_EXACT,
                    f"{label} answer differs from the uncached schedule",
                    tier=label,
                    cached=[int(x) for x in served.active],
                    fresh=[int(x) for x in fresh.active],
                )
            )

    stored, replayed = _persisted_replay(p)
    if not np.array_equal(np.asarray(stored.active), np.asarray(replayed.active)):
        out.append(
            _mismatch(
                name,
                scenario,
                CODE_CACHE_STORE,
                "persisted entry replayed a different schedule after reopen",
                stored=[int(x) for x in stored.active],
                replayed=[int(x) for x in replayed.active],
            )
        )
    return out
