"""Channel-law oracles: metamorphic relations and a differential check.

The pluggable channel laws (:mod:`repro.channel.laws`) come with three
paper-derived invariants and one redundant-path comparison, all run by
the harness over the fuzzer's adversarial scenarios:

- ``shadowing-zero-recovers-rayleigh`` — the Suzuki composite at
  ``sigma_db = 0`` must reproduce the Rayleigh replay **bit for bit**
  (the law reuses the Rayleigh law's own draw; any stream drift breaks
  seed-compatibility silently);
- ``nakagami-unit-closed-form`` — Nakagami ``m = 1`` *is* Rayleigh in
  distribution, so its Monte-Carlo success rates must match the
  Thm 3.1 closed form within 5-sigma Monte-Carlo bounds (the gamma
  sampler consumes the stream differently, so this is statistical, not
  bit-level);
- ``nakagami-m-monotonicity`` — for ``m >= 1`` larger ``m`` is milder
  fading, so per-link success probabilities may not *decrease* beyond
  Monte-Carlo slack as ``m`` grows;
- ``channel-vs-rayleigh`` (differential) — the default channel must be
  bit-identical to an explicit ``"rayleigh"`` spec, every registered
  law must be chunk-invariant (streamed chunks concatenate to the
  batched draw), and the deterministic law's empirical success rates
  must equal its 0/1 closed form exactly.

Reason codes are stable strings (``docs/VERIFICATION.md``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.channel.sampling import iter_fading_trials, sample_fading_trials
from repro.sim.montecarlo import simulate_trials
from repro.utils.rng import stable_seed
from repro.verify.differential import register_differential
from repro.verify.fuzz import Scenario, witness_set
from repro.verify.metamorphic import _mismatch, register_relation
from repro.verify.report import Mismatch

#: Reason codes emitted by the channel checks.
CODE_SHADOWING_LIMIT = "shadowing-limit-divergence"
CODE_NAKAGAMI_CLOSED_FORM = "nakagami-closed-form-divergence"
CODE_NAKAGAMI_MONOTONICITY = "nakagami-m-monotonicity-violation"
CODE_CHANNEL_RAYLEIGH = "channel-rayleigh-divergence"
CODE_CHANNEL_CHUNK = "channel-chunk-divergence"
CODE_DETERMINISTIC_CLOSED_FORM = "deterministic-closed-form-divergence"

#: Monte-Carlo trials for the statistical relations — matches the
#: analytic-vs-montecarlo check's budget/bound trade-off.
_N_TRIALS = 1500

#: Nakagami shape grid for the monotonicity relation.  Restricted to
#: ``m >= 1``: milder-than-Rayleigh fading is where monotone improvement
#: is a theorem (below 1 the fading is *more* severe and the ordering
#: reverses).
_M_GRID = (2.0, 8.0)


def _witness(p) -> np.ndarray:
    """Sorted witness set: :func:`simulate_trials` returns columns in
    ascending link order (mask-based), so per-link comparisons against
    the closed form must use the same ordering."""
    return np.sort(witness_set(p, cap=12))


def _mc_success_rates(p, active, *, channel, seed) -> np.ndarray:
    """Per-link empirical success rates over the witness set."""
    success = simulate_trials(p, active, _N_TRIALS, seed=seed, channel=channel)
    return success.mean(axis=0)


def _mc_bound(p_hat: np.ndarray, n: int, sigmas: float = 5.0) -> np.ndarray:
    """A ``sigmas``-sigma binomial tolerance with a small-n floor."""
    return sigmas * np.sqrt(p_hat * (1.0 - p_hat) / n) + 3.0 / n


@register_relation("shadowing-zero-recovers-rayleigh")
def relation_shadowing_zero(scenario: Scenario) -> List[Mismatch]:
    """``shadowing:sigma_db=0`` must replay the Rayleigh bits exactly."""
    p = scenario.problem
    active = _witness(p)
    if active.size == 0:
        return []
    seed = stable_seed("shadowing-zero", root=scenario.seed)
    rayleigh = simulate_trials(p, active, 64, seed=seed)
    shadow0 = simulate_trials(p, active, 64, seed=seed, channel="shadowing:sigma_db=0")
    if not np.array_equal(rayleigh, shadow0):
        diff = int(np.count_nonzero(rayleigh != shadow0))
        return [
            _mismatch(
                "shadowing-zero-recovers-rayleigh",
                scenario,
                CODE_SHADOWING_LIMIT,
                f"sigma_db=0 shadowing diverged from Rayleigh in {diff} "
                "success cells (stream contract broken)",
                differing_cells=diff,
            )
        ]
    return []


@register_relation("nakagami-unit-closed-form")
def relation_nakagami_unit(scenario: Scenario) -> List[Mismatch]:
    """Nakagami ``m = 1`` success rates must match Thm 3.1 within MC bounds."""
    p = scenario.problem
    active = _witness(p)
    if active.size == 0:
        return []
    analytic = p.success_probabilities(active)[active]
    empirical = _mc_success_rates(
        p,
        active,
        channel="nakagami:m=1",
        seed=stable_seed("nakagami-unit", root=scenario.seed),
    )
    bound = _mc_bound(analytic, _N_TRIALS)
    bad = np.abs(empirical - analytic) > bound
    if np.any(bad):
        worst = int(np.argmax(np.abs(empirical - analytic) - bound))
        return [
            _mismatch(
                "nakagami-unit-closed-form",
                scenario,
                CODE_NAKAGAMI_CLOSED_FORM,
                f"nakagami m=1 diverged from the Rayleigh closed form on "
                f"{int(bad.sum())}/{active.size} links (worst: link "
                f"{int(active[worst])}, analytic {analytic[worst]:.4f}, "
                f"empirical {empirical[worst]:.4f})",
                n_trials=_N_TRIALS,
                links_out_of_bound=int(bad.sum()),
            )
        ]
    return []


@register_relation("nakagami-m-monotonicity")
def relation_nakagami_monotonicity(scenario: Scenario) -> List[Mismatch]:
    """For ``m >= 1``, raising ``m`` may not lower success probabilities."""
    p = scenario.problem
    active = _witness(p)
    if active.size == 0:
        return []
    out: List[Mismatch] = []
    estimates = {}
    for m in (1.0,) + _M_GRID:
        estimates[m] = _mc_success_rates(
            p,
            active,
            channel=f"nakagami:m={m:g}",
            seed=stable_seed("nakagami-mono", m, root=scenario.seed),
        )
    grid = (1.0,) + _M_GRID
    for lo, hi in zip(grid, grid[1:]):
        p_lo, p_hi = estimates[lo], estimates[hi]
        # Two independent estimates: allow 5-sigma of the *difference*.
        slack = 5.0 * np.sqrt(
            (p_lo * (1 - p_lo) + p_hi * (1 - p_hi)) / _N_TRIALS
        ) + 6.0 / _N_TRIALS
        drop = p_lo - p_hi
        bad = drop > slack
        if np.any(bad):
            worst = int(np.argmax(drop - slack))
            out.append(
                _mismatch(
                    "nakagami-m-monotonicity",
                    scenario,
                    CODE_NAKAGAMI_MONOTONICITY,
                    f"success probability dropped beyond MC slack when m "
                    f"rose {lo:g} -> {hi:g} on {int(bad.sum())}/{active.size} "
                    f"links (worst: link {int(active[worst])}, "
                    f"{p_lo[worst]:.4f} -> {p_hi[worst]:.4f})",
                    m_low=lo,
                    m_high=hi,
                    links_out_of_bound=int(bad.sum()),
                )
            )
    return out


@register_differential("channel-vs-rayleigh")
def check_channel_vs_rayleigh(scenario: Scenario) -> List[Mismatch]:
    """Default-vs-explicit Rayleigh bits, chunk invariance, deterministic form."""
    from repro.channel.laws import CHANNEL_LAWS, get_channel_law

    p = scenario.problem
    active = _witness(p)
    if active.size == 0:
        return []
    out: List[Mismatch] = []
    seed = stable_seed("channel-rayleigh", root=scenario.seed)

    # 1. channel=None and channel="rayleigh" are the same code path's bits.
    default = simulate_trials(p, active, 48, seed=seed)
    explicit = simulate_trials(p, active, 48, seed=seed, channel="rayleigh")
    if not np.array_equal(default, explicit):
        out.append(
            _mismatch(
                "channel-vs-rayleigh",
                scenario,
                CODE_CHANNEL_RAYLEIGH,
                "explicit 'rayleigh' spec diverged from the default channel",
            )
        )

    # 2. Every registered law is chunk-invariant: streamed chunks must
    # concatenate to the batched draw, bit for bit.
    d = p.distances()
    for name in sorted(CHANNEL_LAWS):
        law = get_channel_law(name)
        law_seed = stable_seed("channel-chunk", name, root=scenario.seed)
        batched = sample_fading_trials(
            d, active, p.alpha, 23, power=p.tx_powers(), seed=law_seed, law=law
        )
        streamed = np.concatenate(
            list(
                iter_fading_trials(
                    d,
                    active,
                    p.alpha,
                    23,
                    power=p.tx_powers(),
                    seed=law_seed,
                    chunk_trials=7,
                    law=law,
                )
            )
        )
        if not np.array_equal(batched, streamed):
            out.append(
                _mismatch(
                    "channel-vs-rayleigh",
                    scenario,
                    CODE_CHANNEL_CHUNK,
                    f"law {name!r} is not chunk-invariant: streamed chunks "
                    "diverged from the batched draw",
                    law=name,
                )
            )

    # 3. The deterministic law's empirical rates equal its 0/1 closed
    # form exactly (no randomness to hide behind).
    det = get_channel_law("deterministic")
    rates = simulate_trials(
        p, active, 4, seed=seed, channel="deterministic"
    ).mean(axis=0)
    closed = det.success_probability(p, active)
    if not np.array_equal(rates, closed):
        out.append(
            _mismatch(
                "channel-vs-rayleigh",
                scenario,
                CODE_DETERMINISTIC_CLOSED_FORM,
                "deterministic-law replay disagreed with its closed form",
                empirical=[float(x) for x in rates],
                closed_form=[float(x) for x in closed],
            )
        )
    return out
