"""Batched and streaming Monte-Carlo fading draws.

The simulator needs many independent realisations of the full
interference matrix restricted to an active set.  Sampling the ``(K, K)``
sub-matrix ``T`` times in one vectorised draw keeps the hot path inside
NumPy — but the dense ``(T, K, K)`` tensor is ~20 GB at paper-grade
settings (``K = 500``, ``T = 10_000``).  :func:`iter_fading_trials`
therefore streams the same draw in trial chunks of at most
:data:`CHUNK_BYTES`; consumers reduce each chunk (SINR, success counts)
and discard it.

Every draw goes through a :class:`~repro.channel.laws.ChannelLaw`:
``start_stream`` once per replay, then ``sample_chunk`` per chunk.  The
default law is Rayleigh.

RNG stream layout
-----------------
The Rayleigh law draws all fading variates from **one** exponential
stream consumed in C order over the ``(T, K, K)`` index space:
trial-major, then sender ``a``, then receiver ``b``.  The diagonal
own-signal variates ``Z[t, a, a]`` are *interleaved* members of that
stream (drawn in their natural position, not in a separate pass), and
the deterministic mean scaling ``Z *= means`` happens **after** the
draw, so it consumes no random numbers.  The draw is
``rng.standard_exponential(size)``: NumPy computes
``exponential(scale)`` as ``scale * standard_exponential()`` per
element, so it is the same stream, bit for bit and position for
position, as the ``rng.exponential(1.0, size)`` recorded results were
drawn with.  Two consequences the chunked sampler relies on (and the
tests pin down):

1. chunking along the trial axis is *exact*: drawing ``(t1, K, K)`` then
   ``(t2, K, K)`` from the same generator concatenates to the identical
   variates as one ``(t1 + t2, K, K)`` draw — same seed, same successes,
   any chunk size;
2. the layout is a public contract: any alternative sampler (e.g. one
   that drew the diagonal separately, or scaled before drawing) would
   silently break seed-compatibility with recorded results.

Every other registered law (Nakagami-m, Suzuki shadowing,
deterministic) honours the same chunk-invariance contract — see
:mod:`repro.channel.laws` for how each one lays out its stream(s).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Tuple, Union

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (laws uses fading_means)
    from repro.channel.laws import ChannelLaw

LawLike = Union[None, str, "ChannelLaw"]

#: Byte cap on one streamed chunk of fading trials, reduction
#: temporaries included (see :func:`_trials_per_chunk`).  It bounds a
#: replay's transient memory whatever ``T``: a Fig. 5(a) N=500
#: ``approx_diversity`` replay (K = 90, T = 500) peaks at about 2 MiB
#: instead of the 32 MB of one whole-replay draw.  The chunk size never
#: changes a result (stream layout, point 1).
CHUNK_BYTES: int = 4 * 2**20


def _resolve_active(distances: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Normalise ``active`` (mask or indices) to a sorted index array."""
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    a = np.asarray(active)
    if a.dtype == bool:
        if a.shape != (n,):
            raise ValueError(f"boolean mask must have shape ({n},), got {a.shape}")
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
    set: the log-distance path loss of Eq. 4, which every law shares.
    The Rayleigh fading draw is ``Exp(1)`` variates scaled by this
    matrix, and the deterministic model receives exactly it.  Shared by
    the batched and streaming samplers so both agree on the
    deterministic part of the draw.
    """
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    idx = _resolve_active(d, active)
    check_positive(alpha, "alpha")
    sub = d[np.ix_(idx, idx)]
    if np.any(sub <= 0):
        raise ValueError("distance matrix must be strictly positive")
    p = np.asarray(power, dtype=float)
    if p.ndim == 0:
        return idx, check_positive(float(p), "power") * sub**-alpha
    if p.shape != (n,):
        raise ValueError(f"power must be scalar or shape ({n},), got {p.shape}")
    if np.any(p <= 0):
        raise ValueError("power must be positive")
    return idx, sub**-alpha * p[idx, None]


def _trials_per_chunk(k: int) -> int:
    """Trials per streamed chunk: the one place the chunk size is decided.

    Half of :data:`CHUNK_BYTES` goes to the ``(chunk, K, K)`` float64
    draw itself; the other half covers the reduction temporaries
    (per-trial row sums, SINR, success masks), so one chunk's whole
    transient footprint stays within the cap.  Always at least 1 — a
    single trial matrix larger than the cap is drawn anyway (there is
    no smaller unit of work).
    """
    return max(1, (CHUNK_BYTES // 2) // (8 * k * k))


def _open_stream(distances, active, alpha, n_trials, power, seed, law):
    """Resolve ``law`` and start its stream for one replay.

    Returns ``(law, state, means)``; ``state`` is ``None`` when the
    replay is empty (no trial or no active link) and draws nothing.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be >= 0")
    # Imported here: repro.channel.laws imports fading_means from this module.
    from repro.channel.laws import get_channel_law

    resolved = get_channel_law(law)
    _, means = fading_means(distances, active, alpha, power=power)
    if means.size == 0 or n_trials == 0:
        return resolved, None, means
    return resolved, resolved.start_stream(as_rng(seed), means), means


def iter_fading_trials(
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    n_trials: int,
    *,
    power: float | np.ndarray = 1.0,
    seed: SeedLike = None,
    chunk_trials: int | None = None,
    law: LawLike = None,
) -> Iterator[np.ndarray]:
    """Stream fading trials in chunks along the trial axis.

    Yields ``(t_c, K, K)`` arrays whose concatenation is *bit-identical*
    to ``sample_fading_trials(...)`` with the same seed (see the module
    docstring's RNG stream layout) — the chunk boundaries are invisible
    to the statistics.  Peak memory is one chunk of at most
    :data:`CHUNK_BYTES`, unless ``chunk_trials`` pins the size.

    Parameters match :func:`sample_fading_trials` plus:

    chunk_trials:
        Explicit trials per chunk (``>= 1``) in place of the
        :data:`CHUNK_BYTES` sizing — the seam the chunk-invariance
        checks and tests use.
    """
    law, state, means = _open_stream(distances, active, alpha, n_trials, power, seed, law)
    k = means.shape[0]
    if state is None:
        yield np.zeros((n_trials, k, k), dtype=float)
        return
    if chunk_trials is None:
        chunk_trials = _trials_per_chunk(k)
    elif chunk_trials < 1:
        raise ValueError(f"chunk_trials must be >= 1, got {chunk_trials}")
    done = 0
    while done < n_trials:
        t_c = min(chunk_trials, n_trials - done)
        z = law.sample_chunk(state, means, t_c)
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

    Materialises the full ``(T, K, K)`` tensor in one ``sample_chunk``
    call — the one-shot reference for small replays and tests; the
    simulator's hot path streams the same values through
    :func:`iter_fading_trials` instead.  For every registered law the
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
    seed:
        RNG seed, or a Generator whose stream the draw continues.
    law:
        Channel law: a spec string or
        :class:`~repro.channel.laws.ChannelLaw`; ``None`` is the
        paper's Rayleigh channel.

    Returns
    -------
    (T, K, K) array ``Z`` with ``Z[t, a, b]`` the instantaneous power
    receiver ``b`` sees from sender ``a`` in trial ``t`` (indices within
    the sorted active set).
    """
    law, state, means = _open_stream(distances, active, alpha, n_trials, power, seed, law)
    if state is None:
        k = means.shape[0]
        return np.zeros((n_trials, k, k), dtype=float)
    return law.sample_chunk(state, means, n_trials)


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
    denom = zz.sum(axis=1) - signal + noise
    # Divide only where the denominator is positive; elsewhere SINR is
    # inf, and so is a quotient past the float range (subnormal noise).
    sinr = np.full(denom.shape, np.inf)
    with np.errstate(over="ignore"):
        np.divide(signal, denom, out=sinr, where=denom > 0)
    return sinr
