"""Random-number-generator plumbing.

Every stochastic entry point in :mod:`repro` accepts a ``seed`` argument
that may be ``None`` (fresh entropy), an integer, a ``SeedSequence`` or
an existing :class:`numpy.random.Generator`.  :func:`as_rng` normalises
all of these to a ``Generator`` so callers never branch on the type.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.utils.validation import check_count

SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing ``Generator`` returns it unchanged (shared
    stream); anything else constructs a fresh PCG64 generator.

    Parameters
    ----------
    seed:
        ``None``, an int, a sequence of ints, a ``SeedSequence``, or a
        ``Generator``.  A negative int raises
        :class:`~repro.utils.validation.ValidationError` naming ``seed``.

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        check_count(seed, "seed")
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from one seed.

    Used by batched experiment runners so that each repetition gets its
    own stream and results are reproducible regardless of execution
    order (the guides' advice for parallel-safe RNG).

    Parameters
    ----------
    seed:
        Root seed (same accepted types as :func:`as_rng`).
    n:
        Number of child generators, ``n >= 0``.
    """
    check_count(n, "n")
    if isinstance(seed, np.random.Generator):
        # Spawn via the generator's bit-generator seed sequence when
        # available; otherwise fall back to drawing child seeds.
        ss = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if isinstance(ss, np.random.SeedSequence):
            return [np.random.default_rng(s) for s in ss.spawn(n)]
        child_seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in ss.spawn(n)]


def stable_seed(*parts: Union[int, str], root: Optional[int] = None) -> int:
    """Build a deterministic 63-bit seed from heterogeneous parts.

    Experiment drivers use this to derive per-(workload, repetition)
    seeds from human-readable components, e.g.
    ``stable_seed("fig5a", n_links, rep)``.
    """
    import hashlib

    h = hashlib.sha256()
    if root is not None:
        h.update(str(root).encode())
    for p in parts:
        h.update(b"\x1f")
        h.update(str(p).encode())
    return int.from_bytes(h.digest()[:8], "little") & ((1 << 63) - 1)
