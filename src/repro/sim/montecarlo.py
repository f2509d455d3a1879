"""Monte-Carlo replay of a schedule through a fading channel.

For a schedule (a set of simultaneously transmitting links) we draw
``n_trials`` independent fading realisations, compute every receiver's
instantaneous SINR, and record per-trial successes.  This is the
experiment behind both paper metrics:

- **failed transmissions** (Fig. 5): scheduled links whose SINR fell
  below ``gamma_th`` in a trial;
- **throughput** (Fig. 6): total rate of the links that succeeded.

The replay is **memory-bounded**: trials stream through
:func:`~repro.channel.sampling.iter_fading_trials` in chunks of at most
:data:`~repro.channel.sampling.CHUNK_BYTES`, and each ``(t_c, K, K)``
chunk is immediately reduced to its ``(t_c, K)`` success slab — the
full ``(T, K, K)`` power tensor (~20 GB at ``K = 500``, ``T = 10_000``)
is never materialised.  Chunking along the trial axis preserves the RNG
stream exactly (see the stream-layout contract in
:mod:`repro.channel.sampling`), so results are bit-identical for every
chunk size, including one single draw.

The replay defaults to the paper's Rayleigh channel; ``channel=``
selects any registered :class:`~repro.channel.laws.ChannelLaw`
(``"nakagami:m=2"``, ``"shadowing:sigma_db=6"``, ``"deterministic"``).
The law only changes what the trials sample — the success reduction,
compute kernel, chunk cap and seeding are shared by every law.
"""

from __future__ import annotations

import numpy as np

from repro.backend import base as backend_base
from repro.channel.laws import get_channel_law
from repro.channel.sampling import LawLike, iter_fading_trials
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.sim.metrics import SimulationResult, summarize_trials
from repro.utils.rng import SeedLike


def simulate_trials(
    problem: FadingRLS,
    schedule: Schedule | np.ndarray,
    n_trials: int,
    *,
    noise: float | None = None,
    seed: SeedLike = None,
    channel: LawLike = None,
) -> np.ndarray:
    """Boolean success matrix over fading trials.

    Parameters
    ----------
    problem:
        The instance (supplies geometry and channel parameters,
        including per-link transmit powers when set).
    schedule:
        A :class:`Schedule` or plain index array of active links.
    n_trials:
        Number of independent fading realisations.
    noise:
        Ambient noise ``N0``; defaults to the problem's own ``noise``
        (0 in the paper's setting, Eq. 8).
    seed:
        RNG seed.
    channel:
        Channel-law spec (string or
        :class:`~repro.channel.laws.ChannelLaw`); ``None`` is the
        paper's Rayleigh channel.

    Only the ``(T, K)`` success matrix is held for the full run; peak
    extra memory is one fading chunk.

    Returns
    -------
    (T, K) bool array
        ``out[t, a]`` — did active link ``a`` (sorted order) decode in
        trial ``t``?
    """
    active = schedule.active if isinstance(schedule, Schedule) else np.asarray(schedule)
    mask = problem.active_mask(active)
    idx = np.flatnonzero(mask)
    n0 = problem.noise if noise is None else noise
    law = get_channel_law(channel)
    success = np.empty((n_trials, idx.size), dtype=bool)
    done = 0
    backend = backend_base.get_active()
    with span("mc.replay", law=law.spec, trials=n_trials, k=int(idx.size)):
        for z in iter_fading_trials(
            problem.distances(),
            idx,
            problem.alpha,
            n_trials,
            power=problem.tx_powers(),
            seed=seed,
            law=law,
        ):
            t_c = z.shape[0]
            # Writes the chunk's success slab in place; the same bits as
            # ``instantaneous_sinr(z) >= gamma_th``.
            backend.mc_success_chunk(z, problem.gamma_th, n0, out=success[done : done + t_c])
            # Release the chunk before the generator draws the next one —
            # holding it through the loop head would double peak memory.
            del z
            done += t_c
    obs_metrics.inc("mc.trials_simulated", n_trials)
    return success


def simulate_slot(
    problem: FadingRLS,
    active: Schedule | np.ndarray,
    *,
    noise: float | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """One Rayleigh fading realisation: per-link success of a single slot.

    The slotted queue simulator (:mod:`repro.workload.queues`) calls
    this once per time slot with an identity-derived seed, so each
    slot's channel draw is a pure function of ``(problem, active,
    seed)`` — independent of process and call order.
    Returns a ``(K,)`` bool array over the active links in *sorted
    index order* (the same convention as :func:`simulate_trials`).
    """
    success = simulate_trials(problem, active, 1, noise=noise, seed=seed)
    return success[0]


def simulate_schedule(
    problem: FadingRLS,
    schedule: Schedule | np.ndarray,
    *,
    n_trials: int = 1000,
    noise: float | None = None,
    seed: SeedLike = None,
    channel: LawLike = None,
) -> SimulationResult:
    """Replay a schedule and summarise the paper's metrics.

    Returns a :class:`~repro.sim.metrics.SimulationResult` with mean
    failed-transmission counts, throughput, and per-link empirical
    success rates.  The analytic cross-check
    (:meth:`FadingRLS.success_probabilities`) should match the empirical
    rates within Monte-Carlo error — the integration tests assert it.
    That cross-check is Rayleigh-specific: under a non-Rayleigh
    ``channel`` the empirical rates estimate that law's success
    probabilities instead (closed forms, where they exist, live on the
    law — see :meth:`~repro.channel.laws.ChannelLaw.success_probability`).
    """
    active = schedule.active if isinstance(schedule, Schedule) else np.asarray(schedule)
    mask = problem.active_mask(active)
    idx = np.flatnonzero(mask)
    success = simulate_trials(problem, idx, n_trials, noise=noise, seed=seed, channel=channel)
    rates = problem.links.rates[idx]
    algorithm = schedule.algorithm if isinstance(schedule, Schedule) else "raw"
    return summarize_trials(success, rates, active_indices=idx, algorithm=algorithm)
