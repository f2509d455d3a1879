"""Mobility workloads (random waypoint).

The paper motivates fading with "mobility in a multi-path propagation
environment" (Section I).  This module provides the standard
random-waypoint mobility model over the deployment region so the
library can study *time-varying* topologies: each link's sender wanders
between uniformly chosen waypoints at a uniformly chosen speed, and its
receiver holds a fixed offset (a device pair moving together).

:func:`random_waypoint_trace` yields one :class:`LinkSet` per time
step; :func:`schedule_churn` measures how much a scheduler's output
shifts between consecutive steps — the metric the mobility example
reports.

:class:`DeltaTrace` is the churn-native view of the same dynamics: an
initial :class:`LinkSet` plus one
:class:`~repro.network.delta.LinkDelta` per step, the input format of
:class:`repro.core.incremental.IncrementalScheduler`.  With a positive
``move_threshold`` a link only emits a move once its sender has
drifted at least that far from its last emitted position, so per-step
deltas stay sparse (the emitted geometry is a lazy, threshold-accurate
approximation of the exact trajectories; ``move_threshold=0`` emits
every link every step and reproduces :func:`random_waypoint_trace`
positions exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.geometry.region import Region
from repro.network.delta import LinkDelta, apply_delta
from repro.network.links import LinkSet
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import (
    CODE_REQUIREMENT,
    ValidationError,
    check_count,
    check_positive,
)


def _rwp_init(
    n_links: int,
    region: Region,
    speed_range: Tuple[float, float],
    min_length: float,
    max_length: float,
    rng: np.random.Generator,
):
    """Initial RWP state; one draw order shared by both trace builders."""
    lo, hi = speed_range
    positions = region.sample_uniform(n_links, seed=rng)
    lengths = rng.uniform(min_length, max_length, size=n_links)
    theta = rng.uniform(0, 2 * np.pi, size=n_links)
    offsets = np.column_stack([lengths * np.cos(theta), lengths * np.sin(theta)])
    waypoints = region.sample_uniform(n_links, seed=rng)
    speeds = rng.uniform(lo, hi, size=n_links)
    return positions, offsets, waypoints, speeds


def _rwp_advance(
    positions: np.ndarray,
    waypoints: np.ndarray,
    speeds: np.ndarray,
    region: Region,
    speed_range: Tuple[float, float],
    dt: float,
    rng: np.random.Generator,
) -> None:
    """Advance every sender one step toward its waypoint (in place)."""
    lo, hi = speed_range
    to_wp = waypoints - positions
    dist = np.sqrt(np.einsum("ij,ij->i", to_wp, to_wp))
    step = speeds * dt
    arrive = dist <= step
    # Non-arrivers move along the unit direction; arrivers land.
    safe = np.where(dist > 0, dist, 1.0)
    positions[:] = np.where(
        arrive[:, None], waypoints, positions + to_wp / safe[:, None] * step[:, None]
    )
    # Arrivers pick a fresh waypoint and speed.
    n_arrive = int(arrive.sum())
    if n_arrive:
        waypoints[arrive] = region.sample_uniform(n_arrive, seed=rng)
        speeds[arrive] = rng.uniform(lo, hi, size=n_arrive)


def _check_rwp_args(n_steps: int, speed_range: Tuple[float, float]) -> None:
    check_count(n_steps, "n_steps", minimum=1)
    lo, hi = speed_range
    if not 0 < lo <= hi < math.inf:
        raise ValidationError(
            f"speed_range must be finite with 0 < min <= max, got {speed_range}",
            code=CODE_REQUIREMENT,
            param="speed_range",
        )


def random_waypoint_trace(
    n_links: int,
    n_steps: int,
    *,
    region_side: float = 500.0,
    speed_range: tuple[float, float] = (1.0, 5.0),
    dt: float = 1.0,
    min_length: float = 5.0,
    max_length: float = 20.0,
    rate: float = 1.0,
    seed: SeedLike = None,
) -> List[LinkSet]:
    """Random-waypoint trajectories; returns ``n_steps`` LinkSets.

    Each sender starts uniform in the region, picks a uniform waypoint
    and a speed in ``speed_range``, walks toward it ``dt`` at a time,
    and repicks on arrival.  The receiver offset (random length in
    ``[min_length, max_length]`` and direction) is fixed per link, so
    link lengths are constant while interference geometry evolves.
    """
    _check_rwp_args(n_steps, speed_range)
    rng = as_rng(seed)
    region = Region.square(region_side)
    positions, offsets, waypoints, speeds = _rwp_init(
        n_links, region, speed_range, min_length, max_length, rng
    )
    trace: List[LinkSet] = []
    rates = np.full(n_links, float(rate))
    for _ in range(n_steps):
        trace.append(
            LinkSet(senders=positions.copy(), receivers=positions + offsets, rates=rates.copy())
        )
        _rwp_advance(positions, waypoints, speeds, region, speed_range, dt, rng)
    return trace


@dataclass(frozen=True)
class DeltaTrace:
    """A dynamic-network workload as ``initial`` + one delta per step.

    The effective link set at step ``t`` is ``initial`` with
    ``deltas[0..t-1]`` applied in order; :meth:`linksets` materialises
    that sequence (the reference the incremental engine is verified
    against), and :meth:`__len__` counts steps (``len(deltas) + 1``).
    """

    initial: LinkSet
    deltas: Tuple[LinkDelta, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(self.deltas))

    def __len__(self) -> int:
        return len(self.deltas) + 1

    @property
    def n_steps(self) -> int:
        return len(self)

    def linksets(self) -> Iterator[LinkSet]:
        """Yield the effective :class:`LinkSet` of every step, in order."""
        current = self.initial
        yield current
        for delta in self.deltas:
            current = apply_delta(current, delta)
            yield current

    def delta_sizes(self) -> List[int]:
        """Links touched (moved + removed + inserted) per delta."""
        return [d.n_moved + d.n_removed + d.n_inserted for d in self.deltas]


def random_waypoint_delta_trace(
    n_links: int,
    n_steps: int,
    *,
    region_side: float = 500.0,
    speed_range: tuple[float, float] = (1.0, 5.0),
    dt: float = 1.0,
    min_length: float = 5.0,
    max_length: float = 20.0,
    rate: float = 1.0,
    move_threshold: float = 0.0,
    seed: SeedLike = None,
) -> DeltaTrace:
    """Random-waypoint mobility as a sparse :class:`DeltaTrace`.

    Same dynamics and RNG stream as :func:`random_waypoint_trace` (with
    ``move_threshold=0`` the emitted positions match it exactly).  A
    positive ``move_threshold`` emits a move for a link only once its
    sender has drifted at least that far (Euclidean) from its last
    emitted position, bounding the emitted geometry's error by the
    threshold while shrinking each step's delta to the links that
    actually travelled — the regime where the incremental engine's
    O(kN) updates beat O(N^2) rebuilds.
    """
    _check_rwp_args(n_steps, speed_range)
    check_positive(move_threshold, "move_threshold", strict=False)
    rng = as_rng(seed)
    region = Region.square(region_side)
    positions, offsets, waypoints, speeds = _rwp_init(
        n_links, region, speed_range, min_length, max_length, rng
    )
    rates = np.full(n_links, float(rate))
    initial = LinkSet(
        senders=positions.copy(), receivers=positions + offsets, rates=rates.copy()
    )
    emitted = positions.copy()
    deltas: List[LinkDelta] = []
    for _ in range(n_steps - 1):
        _rwp_advance(positions, waypoints, speeds, region, speed_range, dt, rng)
        if move_threshold > 0.0:
            drift = positions - emitted
            moved = np.flatnonzero(
                np.sqrt(np.einsum("ij,ij->i", drift, drift)) >= move_threshold
            )
        else:
            moved = np.arange(n_links, dtype=np.int64)
        emitted[moved] = positions[moved]
        deltas.append(
            LinkDelta.move(
                moved, positions[moved].copy(), positions[moved] + offsets[moved]
            )
        )
    return DeltaTrace(initial=initial, deltas=tuple(deltas))


def schedule_churn(schedules) -> List[float]:
    """Jaccard distance between consecutive schedules' active sets.

    ``churn[t] = 1 - |A_t & A_{t+1}| / |A_t | A_{t+1}|`` — 0 when the
    schedule is stable, 1 when it is completely replaced.  Length is
    ``len(schedules) - 1``.
    """
    out: List[float] = []
    for a, b in zip(schedules, schedules[1:]):
        sa = set(np.asarray(a.active).tolist())
        sb = set(np.asarray(b.active).tolist())
        union = sa | sb
        if not union:
            out.append(0.0)
        else:
            out.append(1.0 - len(sa & sb) / len(union))
    return out
