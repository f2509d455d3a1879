"""Batched and streaming Monte-Carlo fading draws.

The simulator needs many independent realisations of the full
interference matrix restricted to an active set.  Sampling the ``(K, K)``
sub-matrix ``T`` times in one exponential draw keeps the hot path inside
NumPy (guide: one big vectorised draw beats ``T`` small ones) — but the
dense ``(T, K, K)`` tensor is ~20 GB at paper-grade settings
(``K = 500``, ``T = 10_000``).  :func:`iter_fading_trials` therefore
streams the same draw in trial chunks under a byte budget; consumers
reduce each chunk (SINR, success counts) and discard it.

RNG stream layout
-----------------
All fading variates come from **one** exponential stream consumed in C
order over the ``(T, K, K)`` index space: trial-major, then sender ``a``,
then receiver ``b``.  The diagonal own-signal variates ``Z[t, a, a]``
are *interleaved* members of that stream (drawn in their natural
position, not in a separate pass), and the deterministic mean scaling
``Z *= means`` happens **after** the draw, so it consumes no random
numbers.  The draw is ``rng.standard_exponential(size)``: NumPy computes
``exponential(scale)`` as ``scale * standard_exponential()`` per
element, so it is the same stream, bit for bit and position for
position, as the ``rng.exponential(1.0, size)`` recorded results were
drawn with — minus the per-element scale call.  Two consequences the
chunked sampler relies on (and the tests pin down):

1. chunking along the trial axis is *exact*: drawing ``(t1, K, K)`` then
   ``(t2, K, K)`` from the same generator concatenates to the identical
   variates as one ``(t1 + t2, K, K)`` draw — same seed, same successes,
   any chunk size;
2. the layout is a public contract: any alternative sampler (e.g. one
   that drew the diagonal separately, or scaled before drawing) would
   silently break seed-compatibility with recorded results.

The default draw is Rayleigh (one exponential stream).  Passing ``law=``
swaps in any registered :class:`~repro.channel.laws.ChannelLaw`
(Nakagami-m, Suzuki shadowing, deterministic); every law honours the
same chunk-invariance contract — see :mod:`repro.channel.laws` for how
each one lays out its stream(s).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Tuple, Union

import numpy as np

from repro.channel.pathloss import pathloss_matrix
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.rng import SeedLike, as_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (laws uses fading_means)
    from repro.channel.laws import ChannelLaw

LawLike = Union[None, str, "ChannelLaw"]

#: Default byte budget for one streamed chunk of fading trials
#: (see :func:`iter_fading_trials`).  It is a memory ceiling, not a
#: cache size: at 128 MiB a whole Fig. 5(a) N=500 replay (about 32 MB
#: for ``approx_diversity``) is a single chunk.  Smaller chunks give the
#: same bits and a lower peak memory, but no speed-up: on a 2-vCPU Xeon
#: VM with a 105 MiB L3, 512 KiB or 4 MiB chunks cut the fig5-sweep
#: benchmark's peak RSS from 162 to 95-99 MB while its ops/s fell
#: slightly (13.58 to 13.33).  The time goes to the exponential draws
#: themselves, not to cache misses.
DEFAULT_MAX_BYTES: int = 128 * 2**20


def _resolve_active(distances: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Normalise ``active`` (mask or indices) to a sorted index array."""
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    a = np.asarray(active)
    if a.dtype == bool:
        idx = np.flatnonzero(a)
    else:
        idx = np.unique(a.astype(np.int64).reshape(-1))
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError("active indices out of range")
    return idx


def fading_means(
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    *,
    power: float | np.ndarray = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Active index array and the ``(K, K)`` mean received-power matrix.

    ``means[a, b] = P_a * d(s_a, r_b)^-alpha`` over the sorted active
    set — the Rayleigh fading draw is ``Exp(1)`` variates scaled by this
    matrix.  Shared by the batched and streaming samplers so both agree
    on the deterministic part of the draw.
    """
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    idx = _resolve_active(d, active)
    p = np.asarray(power, dtype=float)
    if p.ndim == 0:
        means = pathloss_matrix(d[np.ix_(idx, idx)], alpha, float(p))
    else:
        if p.shape != (n,):
            raise ValueError(f"power must be scalar or shape ({n},), got {p.shape}")
        if np.any(p <= 0):
            raise ValueError("power must be positive")
        means = pathloss_matrix(d[np.ix_(idx, idx)], alpha) * p[idx, None]
    return idx, means


def _resolve_law(law: LawLike):
    """Resolve ``law`` to a :class:`~repro.channel.laws.ChannelLaw`, or
    ``None`` for the default Rayleigh fast path.

    The Rayleigh law's ``sample_chunk`` is bit-identical to the inline
    draw below, but the inline path skips the law dispatch, the
    ``channel.sample`` span and the ``channel.chunks_sampled`` counter —
    keeping the legacy hot path's bits *and* observability snapshots
    untouched.  Imported lazily: :mod:`repro.channel.laws` itself imports
    :func:`fading_means` from this module.
    """
    if law is None:
        return None
    from repro.channel.laws import RayleighLaw, get_channel_law

    resolved = get_channel_law(law)
    if type(resolved) is RayleighLaw:
        return None
    return resolved


def trial_chunk_size(k: int, max_bytes: int | None) -> int:
    """Trials per streamed chunk under a byte budget.

    Half the budget is reserved for the ``(chunk, K, K)`` float64 draw
    itself; the other half covers the reduction temporaries (per-trial
    row sums, SINR, success masks) so the *total* transient footprint of
    one chunk stays within ``max_bytes``.  Always at least 1 — a single
    trial matrix larger than the budget is drawn anyway (there is no
    smaller unit of work).
    """
    budget = DEFAULT_MAX_BYTES if max_bytes is None else int(max_bytes)
    if budget <= 0:
        raise ValueError(f"max_bytes must be positive, got {max_bytes}")
    per_trial = 8 * max(k, 1) * max(k, 1)
    return max(1, (budget // 2) // per_trial)


def iter_fading_trials(
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    n_trials: int,
    *,
    power: float | np.ndarray = 1.0,
    seed: SeedLike = None,
    max_bytes: int | None = None,
    chunk_trials: int | None = None,
    law: LawLike = None,
) -> Iterator[np.ndarray]:
    """Stream fading trials in chunks along the trial axis.

    Yields ``(t_c, K, K)`` arrays whose concatenation is *bit-identical*
    to ``sample_fading_trials(...)`` with the same seed (see the module
    docstring's RNG stream layout) — the chunk boundaries are invisible
    to the statistics.  Peak memory is one chunk, sized by
    :func:`trial_chunk_size` from ``max_bytes`` (default
    :data:`DEFAULT_MAX_BYTES`) unless ``chunk_trials`` pins it
    explicitly.

    Parameters match :func:`sample_fading_trials` plus:

    max_bytes:
        Approximate byte budget for one chunk *including* reduction
        temporaries; ``None`` uses :data:`DEFAULT_MAX_BYTES`.
    chunk_trials:
        Explicit trials-per-chunk override (``>= 1``); wins over
        ``max_bytes``.
    law:
        Channel law (spec string or :class:`~repro.channel.laws.ChannelLaw`)
        supplying the random factor; ``None``/Rayleigh keeps the inline
        exponential draw.  Every registered law honours the same
        chunk-invariant stream contract.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be >= 0")
    resolved = _resolve_law(law)
    idx, means = fading_means(distances, active, alpha, power=power)
    k = idx.size
    if k == 0 or n_trials == 0:
        yield np.zeros((n_trials, k, k), dtype=float)
        return
    if chunk_trials is None:
        chunk_trials = trial_chunk_size(k, max_bytes)
    elif chunk_trials < 1:
        raise ValueError(f"chunk_trials must be >= 1, got {chunk_trials}")
    rng = as_rng(seed)
    state = None if resolved is None else resolved.start_stream(rng, means)
    done = 0
    while done < n_trials:
        t_c = min(chunk_trials, n_trials - done)
        if resolved is None:
            z = rng.standard_exponential(size=(t_c, k, k))
            z *= means[None, :, :]
        else:
            with span("channel.sample", law=resolved.name, trials=t_c):
                z = resolved.sample_chunk(state, means, t_c)
            obs_metrics.inc("channel.chunks_sampled")
        obs_metrics.inc("mc.chunks_sampled")
        yield z
        # Drop our reference before drawing the next chunk so only one
        # chunk is ever alive (the consumer must do the same — see
        # simulate_trials); otherwise peak memory doubles.
        del z
        done += t_c


def sample_fading_trials(
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    n_trials: int,
    *,
    power: float | np.ndarray = 1.0,
    seed: SeedLike = None,
    law: LawLike = None,
) -> np.ndarray:
    """Sample instantaneous power matrices for an active set.

    Materialises the full ``(T, K, K)`` tensor — convenient for small
    replays and tests; the simulator's hot path streams the same values
    through :func:`iter_fading_trials` instead.  ``law`` selects the
    channel law (``None`` = Rayleigh); for every registered law the
    result is bit-identical to concatenating the streamed chunks.

    Parameters
    ----------
    distances : (N, N) array
        Full sender-to-receiver distance matrix.
    active:
        Bool mask ``(N,)`` or index array selecting the transmitting set.
    alpha:
        Path loss exponent.
    power:
        Uniform transmit power, or an ``(N,)`` per-sender power array
        (row ``a`` of each trial matrix scales with sender ``a``'s power).
    n_trials:
        Number of independent fading realisations ``T``.

    Returns
    -------
    (T, K, K) array ``Z`` with ``Z[t, a, b]`` the instantaneous power
    receiver ``b`` sees from sender ``a`` in trial ``t`` (indices within
    the sorted active set).
    """
    if n_trials < 0:
        raise ValueError("n_trials must be >= 0")
    resolved = _resolve_law(law)
    idx, means = fading_means(distances, active, alpha, power=power)
    k = idx.size
    if k == 0 or n_trials == 0:
        return np.zeros((n_trials, k, k), dtype=float)
    rng = as_rng(seed)
    if resolved is None:
        z = rng.standard_exponential(size=(n_trials, k, k))
        z *= means[None, :, :]
        return z
    state = resolved.start_stream(rng, means)
    return resolved.sample_chunk(state, means, n_trials)


def instantaneous_sinr(z: np.ndarray, *, noise: float = 0.0) -> np.ndarray:
    """SINR per receiver from sampled power matrices.

    Parameters
    ----------
    z : (T, K, K) array
        Output of :func:`sample_fading_trials` (or one chunk of
        :func:`iter_fading_trials`).
    noise:
        Ambient noise ``N0`` added to the interference sum (the paper's
        analysis sets it to 0; the simulator keeps it optional).

    Returns
    -------
    (T, K) array of instantaneous SINRs; a lone transmitter with zero
    noise has SINR ``inf``.

    Notes
    -----
    Only the column sums of ``z`` (total power per receiver) and its
    diagonal (own signal) are used — the reduction never copies the
    ``(T, K, K)`` input, so streaming one chunk at a time keeps peak
    memory at a single chunk.
    """
    zz = np.asarray(z, dtype=float)
    if zz.ndim != 3 or zz.shape[1] != zz.shape[2]:
        raise ValueError(f"z must have shape (T, K, K), got {zz.shape}")
    signal = np.diagonal(zz, axis1=1, axis2=2)
    interference = zz.sum(axis=1) - signal
    denom = interference + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom > 0, signal / denom, np.inf)
    return sinr
