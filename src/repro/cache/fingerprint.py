"""Content-hash canonicalisation and topology fingerprints.

This module is the single home of the repo's content-addressed key
machinery.  The first half (:func:`config_key`,
:func:`describe_callable`, :func:`canonical_channel`) was grown out of
the checkpoint keys in :mod:`repro.experiments.store` and
:mod:`repro.sim.parallel`; both still re-export it, and the byte-level
key values are pinned unchanged by ``tests/test_cache_fingerprint.py``
so existing checkpoint/result directories keep resuming.

The second half is new for the schedule cache
(:mod:`repro.cache.store`) and defines two keys per scheduling
request:

``exact_key``
    A hash of the *raw* link arrays, channel parameters and scheduler
    identity.  Two requests share it only when they are the same
    problem bit for bit, which is what makes exact cache hits safe to
    return without any verification: the cached schedule *is* the
    schedule the scheduler would produce.  Computing it is O(N) — no
    distance matrix — so the hot hit path never pays the O(N^2)
    canonicalisation below.

``topology_fingerprint``
    A canonicalized key invariant under link relabeling, translation,
    rotation/reflection and — when ``noise == 0`` makes the instance
    scale-invariant (the same gate the geometry-scale metamorphic
    relation uses) — uniform scaling.  It hashes the quantized
    cross-distance matrix ``D[i, j] = d(s_i, r_j)`` conjugated into a
    canonical link order, so any rigid motion of the plane and any
    permutation of the link labels map to the same fingerprint.
    Distances are normalised by the mean link length and quantized to
    ``QUANTUM`` (1e-9) relative precision, absorbing the few-ulp wobble
    a floating-point rotation introduces while keeping genuinely
    different geometries apart.

The canonical link order sorts links by a per-link invariant key:
own length, rate, then the link's sorted distance row and sorted
distance column.  One ``np.lexsort`` over the first two fields
decides almost every instance; only when two links still tie on both
does a second ``np.lexsort`` run over the full key.  Both sorts are
stable, so links whose full keys tie keep their input order — exactly
the order a stable sort of the per-link key tuples gives, so
fingerprints and orders are bit-identical to that definition (the
loop-reference test pins it).  For fully symmetric geometries two
relabelings can therefore hash differently (a miss, never a wrong
hit); the Hypothesis suite checks invariance on the adversarial
fuzzer families, where ties do not survive quantization.

Cost: quantizing and hashing the N x N matrix is O(N^2) NumPy work,
the primary order O(N log N); the full-key fallback adds O(N^2 log N)
sorting, also in NumPy.  The distance matrix is the problem's own cached
:meth:`~repro.core.problem.FadingRLS.distances`, so a cache miss
builds it once and the scheduler's F build reuses it.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any, Mapping, Optional, Tuple

import numpy as np

from repro.network.links import LinkSet

__all__ = [
    "QUANTUM",
    "canonical_channel",
    "config_key",
    "describe_callable",
    "exact_key",
    "fingerprint_with_order",
    "geometry_distance",
    "scheduler_identity",
    "topology_fingerprint",
]


# -- shared canonicalisation (moved from experiments.store / sim.parallel) --


def config_key(name: str, params: Mapping[str, Any]) -> str:
    """Stable hex key for a named configuration.

    Parameters are serialised with sorted keys; anything JSON rejects
    (tuples become lists transparently) raises ``TypeError`` so
    unhashable configs fail loudly instead of colliding.
    """
    canonical = json.dumps({"name": name, "params": params}, sort_keys=True, default=_coerce)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def _coerce(value: Any):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"unserialisable config value: {value!r}")


def describe_callable(fn: Any) -> str:
    """A stable (address-free) description of a workload/scheduler.

    ``repr`` of a plain function embeds its memory address, which would
    change every run and defeat checkpoint reuse; dataclass factories
    like :class:`~repro.experiments.config.TopologyWorkload` have
    stable field-based reprs and pass through unchanged.
    """
    if isinstance(fn, functools.partial):
        inner = describe_callable(fn.func)
        kwargs = sorted((k, repr(v)) for k, v in (fn.keywords or {}).items())
        return f"partial({inner}, args={fn.args!r}, kwargs={kwargs!r})"
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if module and qualname:
        return f"{module}.{qualname}"
    return repr(fn)


def canonical_channel(channel: Optional[str]) -> str:
    """Canonical spec string of a channel (``None`` = Rayleigh)."""
    from repro.channel.laws import get_channel_law

    return get_channel_law(channel).spec


def scheduler_identity(scheduler: Any, scheduler_kwargs: Optional[Mapping[str, Any]]) -> str:
    """Stable identity of a scheduler call: callable + sorted kwargs."""
    kwargs = sorted((k, repr(v)) for k, v in dict(scheduler_kwargs or {}).items())
    return f"{describe_callable(scheduler)}|{kwargs!r}"


# -- schedule-cache keys -------------------------------------------------

#: Relative quantization step of fingerprint distances.  Far above the
#: ~1e-16 relative wobble of a float rotation/translation, far below
#: any geometric perturbation the cache should distinguish.
QUANTUM = 1e-9

_EXACT_SALT = b"repro.cache.exact:1\n"
_FINGERPRINT_SALT = b"repro.cache.fingerprint:1\n"


def _link_arrays(links: LinkSet) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    senders = np.ascontiguousarray(links.senders, dtype=np.float64)
    receivers = np.ascontiguousarray(links.receivers, dtype=np.float64)
    rates = np.ascontiguousarray(links.rates, dtype=np.float64)
    return senders, receivers, rates


def exact_key(problem, scheduler_id: str) -> str:
    """Bit-level identity of one scheduling request.

    Hashes the raw coordinate/rate arrays, every channel parameter a
    scheduler can see, and the scheduler identity.  Equal keys mean the
    scheduler would run on *identical* inputs, so the cached schedule
    can be returned bit for bit.
    """
    senders, receivers, rates = _link_arrays(problem.links)
    h = hashlib.sha256()
    h.update(_EXACT_SALT)
    params = (problem.alpha, problem.gamma_th, problem.eps, problem.noise, problem.power)
    h.update(repr(params).encode())
    h.update(scheduler_id.encode())
    h.update(senders.tobytes())
    h.update(receivers.tobytes())
    h.update(rates.tobytes())
    if problem.powers is None:
        h.update(b"|uniform")
    else:
        h.update(b"|powers:")
        h.update(np.ascontiguousarray(problem.powers, dtype=np.float64).tobytes())
    return h.hexdigest()[:24]


def fingerprint_with_order(problem) -> Tuple[str, np.ndarray]:
    """Canonical fingerprint plus the canonical link order.

    Returns ``(fingerprint, order)`` where ``order[p]`` is the original
    index of the link at canonical position ``p``.  Two problems with
    equal fingerprints are the same geometry up to relabeling and rigid
    motion (and uniform scale when ``noise == 0``), and their canonical
    orders align link for link — which is what lets a cached schedule
    be remapped onto a differently-labelled copy.
    """
    _, _, rates = _link_arrays(problem.links)
    n = rates.shape[0]
    dist = problem.distances()
    own = np.diag(dist)
    scale = float(own.mean()) if n else 1.0
    quanta = np.rint(dist / (scale * QUANTUM)).astype(np.int64)
    rate_q = np.rint(rates / QUANTUM).astype(np.int64)
    order = _canonical_order(quanta, rate_q)

    h = hashlib.sha256()
    h.update(_FINGERPRINT_SALT)
    h.update(repr((problem.alpha, problem.gamma_th, problem.eps, problem.noise)).encode())
    if problem.noise != 0.0:
        # Noise breaks scale invariance (budgets see absolute lengths
        # and the transmit power), so the absolute scale and power join
        # the fingerprint — mirroring the geometry-scale metamorphic
        # relation, which only asserts invariance at noise == 0.
        h.update(repr((problem.power, int(round(scale / QUANTUM)))).encode())
    canonical = quanta[np.ix_(order, order)]
    h.update(np.ascontiguousarray(canonical).tobytes())
    h.update(np.ascontiguousarray(rate_q[order]).tobytes())
    if problem.powers is not None:
        powers_q = np.rint(np.asarray(problem.powers, dtype=np.float64) / QUANTUM)
        h.update(np.ascontiguousarray(powers_q.astype(np.int64)[order]).tobytes())
    return h.hexdigest()[:24], order


def _canonical_order(quanta: np.ndarray, rate_q: np.ndarray) -> np.ndarray:
    """Stable order of links by ``(own, rate, sorted row, sorted column)``.

    ``np.lexsort`` treats its *last* key as primary.  The full key is
    only built when the primary pair leaves adjacent ties.
    """
    own_q = np.diagonal(quanta)
    order = np.lexsort((rate_q, own_q))
    first, rest = order[:-1], order[1:]
    if np.any((own_q[first] == own_q[rest]) & (rate_q[first] == rate_q[rest])):
        rows = np.sort(quanta, axis=1).T  # rows[k, i]: k-th smallest of row i
        cols = np.sort(quanta, axis=0)  # cols[k, i]: k-th smallest of column i
        order = np.lexsort(np.vstack((cols[::-1], rows[::-1], rate_q, own_q)))
    return order.astype(np.int64, copy=False)


def topology_fingerprint(problem) -> str:
    """Canonicalized topology fingerprint (see :func:`fingerprint_with_order`)."""
    return fingerprint_with_order(problem)[0]


def geometry_distance(a: LinkSet, b: LinkSet) -> float:
    """Mean endpoint displacement between two same-size link sets,
    normalised by the mean link length of ``b``.

    This is the label-space nearness measure the warm-start tier uses:
    0.0 means identical geometry, and a value around 1.0 means the
    endpoints moved by about one link length on average.  Requires
    equal link counts (labels must align for delta synthesis).
    """
    if len(a) != len(b):
        raise ValueError(f"link sets differ in size: {len(a)} vs {len(b)}")
    sa, ra, _ = _link_arrays(a)
    sb, rb, _ = _link_arrays(b)
    if sa.shape[0] == 0:
        return 0.0
    ds = np.linalg.norm(sa - sb, axis=1)
    dr = np.linalg.norm(ra - rb, axis=1)
    mean_len = float(np.linalg.norm(rb - sb, axis=1).mean())
    return float((ds + dr).mean() / (2.0 * mean_len))
