"""Topology (workload) generators.

:func:`paper_topology` reproduces Section V's setup exactly: senders
uniform in a square region, each receiver at a uniformly random distance
in ``[min_length, max_length]`` and uniformly random direction from its
sender.  The other generators provide the stress shapes used by the
extended benchmarks (clustered hot spots, regular grids, chains, and
an exponential length spread that drives ``g(L)`` up).
:func:`make_topology` builds any of the named families in
:data:`TOPOLOGIES` from ``(name, n, seed)`` — the one switch the CLI and
:class:`~repro.workload.scenario.WorkloadScenario` share.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.region import Region
from repro.network.links import LinkSet
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_count


def _place_receivers(
    senders: np.ndarray,
    lengths: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Receivers at given distances from senders, random directions."""
    n = senders.shape[0]
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    offsets = np.empty_like(senders)
    offsets[:, 0] = lengths * np.cos(theta)
    offsets[:, 1] = lengths * np.sin(theta)
    return senders + offsets


def paper_topology(
    n_links: int,
    *,
    region_side: float = 500.0,
    min_length: float = 5.0,
    max_length: float = 20.0,
    rate: float = 1.0,
    seed: SeedLike = None,
) -> LinkSet:
    """The paper's Section-V workload.

    Each sender gets a uniform random location in a
    ``region_side x region_side`` square; each receiver is placed at
    distance ``U[min_length, max_length]`` in a uniform random direction
    (receivers may land slightly outside the square, as in the paper,
    which constrains only sender placement).

    Parameters mirror the paper's defaults: 500x500 region, link lengths
    in [5, 20], unit rates.
    """
    check_count(n_links, "n_links")
    if not 0 < min_length <= max_length:
        raise ValueError(f"need 0 < min_length <= max_length, got [{min_length}, {max_length}]")
    rng = as_rng(seed)
    region = Region.square(region_side)
    senders = region.sample_uniform(n_links, seed=rng)
    lengths = rng.uniform(min_length, max_length, size=n_links)
    receivers = _place_receivers(senders, lengths, rng)
    rates = np.full(n_links, float(rate))
    return LinkSet(senders=senders, receivers=receivers, rates=rates)


def clustered_topology(
    n_links: int,
    *,
    n_clusters: int = 5,
    region_side: float = 500.0,
    cluster_std: float = 25.0,
    min_length: float = 5.0,
    max_length: float = 20.0,
    rate: float = 1.0,
    seed: SeedLike = None,
) -> LinkSet:
    """Hot-spot workload: senders drawn from Gaussian clusters.

    Stresses the schedulers where interference is locally dense — the
    regime where fading-susceptible baselines fail hardest.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    rng = as_rng(seed)
    region = Region.square(region_side)
    centers = region.sample_uniform(n_clusters, seed=rng)
    assignment = rng.integers(0, n_clusters, size=n_links)
    senders = centers[assignment] + rng.normal(0.0, cluster_std, size=(n_links, 2))
    senders = region.clamp(senders)
    lengths = rng.uniform(min_length, max_length, size=n_links)
    receivers = _place_receivers(senders, lengths, rng)
    return LinkSet(senders=senders, receivers=receivers, rates=np.full(n_links, float(rate)))


def grid_topology(
    side_count: int,
    *,
    spacing: float = 50.0,
    link_length: float = 10.0,
    rate: float = 1.0,
    jitter: float = 0.0,
    seed: SeedLike = None,
) -> LinkSet:
    """Regular ``side_count x side_count`` sender lattice.

    A deterministic topology (up to optional jitter) for tests that need
    predictable geometry, e.g. verifying LDP's per-square picks.
    """
    if side_count < 1:
        raise ValueError("side_count must be >= 1")
    rng = as_rng(seed)
    xs, ys = np.meshgrid(
        np.arange(side_count, dtype=float) * spacing,
        np.arange(side_count, dtype=float) * spacing,
        indexing="ij",
    )
    senders = np.column_stack([xs.ravel(), ys.ravel()])
    if jitter > 0:
        senders = senders + rng.uniform(-jitter, jitter, size=senders.shape)
    n = senders.shape[0]
    lengths = np.full(n, float(link_length))
    receivers = _place_receivers(senders, lengths, rng)
    return LinkSet(senders=senders, receivers=receivers, rates=np.full(n, float(rate)))


def chain_topology(
    n_links: int,
    *,
    hop: float = 40.0,
    link_length: float = 10.0,
    rate: float = 1.0,
) -> LinkSet:
    """Senders on a line, receivers directly to the right.

    The 1-D worst case used in hardness discussions (the knapsack
    reduction also lives on a line); fully deterministic.
    """
    check_count(n_links, "n_links")
    senders = np.zeros((n_links, 2), dtype=float)
    senders[:, 0] = np.arange(n_links, dtype=float) * hop
    receivers = senders.copy()
    receivers[:, 0] += link_length
    return LinkSet(senders=senders, receivers=receivers, rates=np.full(n_links, float(rate)))


def exponential_length_topology(
    n_links: int,
    *,
    region_side: float = 2000.0,
    base_length: float = 2.0,
    growth: float = 2.0,
    n_magnitudes: Optional[int] = None,
    rate: float = 1.0,
    seed: SeedLike = None,
) -> LinkSet:
    """Workload with exponentially spread link lengths.

    Link lengths are ``base_length * growth^k`` with ``k`` uniform over
    ``n_magnitudes`` values (default ``log2(n_links)+1``), driving the
    length diversity ``g(L)`` up — the regime where LDP's ``O(g(L))``
    factor actually bites.  Used by the ablation benchmarks.
    """
    check_count(n_links, "n_links")
    if growth <= 1.0:
        raise ValueError("growth must be > 1")
    rng = as_rng(seed)
    if n_magnitudes is None:
        n_magnitudes = max(1, int(np.log2(max(n_links, 2))) + 1)
    region = Region.square(region_side)
    senders = region.sample_uniform(n_links, seed=rng)
    mags = rng.integers(0, n_magnitudes, size=n_links)
    lengths = base_length * np.power(float(growth), mags.astype(float))
    receivers = _place_receivers(senders, lengths, rng)
    return LinkSet(senders=senders, receivers=receivers, rates=np.full(n_links, float(rate)))


def ppp_topology(
    intensity: float,
    *,
    region_side: float = 500.0,
    min_length: float = 5.0,
    max_length: float = 20.0,
    rate: float = 1.0,
    seed: SeedLike = None,
) -> LinkSet:
    """Poisson-point-process workload of the SINR-analysis literature.

    The number of links is ``Poisson(intensity * area)`` and sender
    locations are uniform given the count — the stationary PPP on the
    region.  Receivers follow the paper's placement rule.  ``intensity``
    is links per unit area (e.g. ``1e-3`` gives ~250 links on the
    default 500x500 region).
    """
    if intensity <= 0:
        raise ValueError(f"intensity must be > 0, got {intensity}")
    rng = as_rng(seed)
    region = Region.square(region_side)
    n = int(rng.poisson(intensity * region.area))
    return paper_topology(
        n,
        region_side=region_side,
        min_length=min_length,
        max_length=max_length,
        rate=rate,
        seed=rng,
    )


def random_rates_topology(
    n_links: int,
    *,
    rate_low: float = 1.0,
    rate_high: float = 10.0,
    seed: SeedLike = None,
    **paper_kwargs,
) -> LinkSet:
    """Paper topology but with heterogeneous rates ``U[rate_low, rate_high]``.

    Exercises the general (non-uniform-rate) Fading-R-LS that LDP and
    the exact solvers handle but RLE's guarantee does not cover.
    """
    if not 0 < rate_low <= rate_high:
        raise ValueError("need 0 < rate_low <= rate_high")
    rng = as_rng(seed)
    base = paper_topology(n_links, seed=rng, **paper_kwargs)
    rates = rng.uniform(rate_low, rate_high, size=n_links)
    return base.with_rates(rates)


#: Topology families :func:`make_topology` builds by name.
TOPOLOGIES = ("paper", "clustered", "grid", "chain", "exponential")


def make_topology(name: str, n: int, seed: int) -> LinkSet:
    """The named :data:`TOPOLOGIES` family with about ``n`` links.

    ``grid`` rounds ``n`` to the nearest square lattice and ``chain``
    ignores ``seed`` (it is deterministic).  An unknown name raises
    :class:`ValueError`; a negative ``n`` or ``seed`` raises
    :class:`~repro.utils.validation.ValidationError`.
    """
    check_count(n, "n_links")
    if name == "paper":
        return paper_topology(n, seed=seed)
    if name == "clustered":
        return clustered_topology(n, seed=seed)
    if name == "grid":
        return grid_topology(max(1, int(round(n**0.5))), seed=seed)
    if name == "chain":
        return chain_topology(n)
    if name == "exponential":
        return exponential_length_topology(n, seed=seed)
    raise ValueError(f"unknown topology {name!r}; choose from {TOPOLOGIES}")
