"""Recursive Link Elimination algorithm (RLE, Algorithm 2).

RLE targets the uniform-rate special case of Fading-R-LS.  It repeats:

1. pick the unscheduled link with the shortest length, say ``(s_i, r_i)``
   (shortest links have the strongest desired signal, so they are the
   most likely to survive interference);
2. delete every remaining link whose *sender* lies within radius
   ``c1 * d_ii`` of the picked receiver ``r_i`` (Algorithm 2 line 4 —
   the paper's line has a typo ``d_{s_i,r_i} < c1 d_{s_i,r_i}``; the
   proof of Lemma 4.1 makes clear the test is on ``d(s_j, r_i)``);
3. delete every remaining link whose own *receiver* has accumulated
   interference factor from the picked set above ``c2 * gamma_eps``
   (line 5; the picked link itself is protected by construction).

``c1`` comes from Eq. (59) so the geometric ring argument of Thm 4.3
caps the interference from links picked *later* at
``(1 - c2) * gamma_eps``, while step 3 caps the interference from links
picked *earlier* at ``c2 * gamma_eps`` — together the output schedule is
feasible.  Thm 4.4 bounds the approximation ratio by the constant
``3^alpha * 5 eps / (c2 (1-eps) gamma_th) + 1``.

Implementation notes
--------------------
The loop is O(picked * N) with fully vectorised inner steps: each pick
reads one column of the distance matrix (every sender's distance to the
picked receiver) and adds one row of the interference-factor matrix to
a running per-receiver accumulator, then masks out eliminated links.
Both come from :meth:`FadingRLS.distance_block` /
:meth:`FadingRLS.factor_block`, which slice the cached matrices when
they exist and otherwise compute only that column and row — so RLE on a
fresh instance builds no ``N x N`` array, and at serving sizes every
step works on ``(N,)`` vectors.  Link order is a single argsort by
length done once.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import SchedulerError, register_scheduler
from repro.core.bounds import rle_c1
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule


@register_scheduler("rle")
def rle_schedule(
    problem: FadingRLS,
    *,
    c2: float = 0.5,
    strict_uniform: bool = True,
    trace: bool = False,
) -> Schedule:
    """Run RLE (Algorithm 2).

    Parameters
    ----------
    problem:
        The instance; requires ``alpha > 2`` for Eq. (59)'s constant.
    c2:
        Interference-budget split in ``(0, 1)``: fraction of
        ``gamma_eps`` reserved for earlier-picked links.  Smaller ``c2``
        eliminates less by interference but forces a larger elimination
        radius ``c1``; ablation A2 sweeps it.
    strict_uniform:
        RLE's guarantee only covers uniform rates.  With the default
        ``True``, a non-uniform instance raises
        :class:`~repro.core.base.SchedulerError`; pass ``False`` to run
        it anyway (the schedule is still *feasible*, only the ratio
        proof is void).
    trace:
        Record *why* each eliminated link was removed: diagnostics gain
        an ``elimination`` dict mapping link index to
        ``("radius" | "interference", index of the pick that caused
        it)``.  Costs one dict insert per elimination.

    Returns
    -------
    Schedule
        Diagnostics record ``c1``, ``c2``, and how many links each
        elimination rule removed.
    """
    if not 0.0 < c2 < 1.0:
        raise ValueError(f"c2 must be in (0, 1), got {c2}")
    links = problem.links
    n = len(links)
    if n == 0:
        return Schedule.empty("rle")
    if strict_uniform and not links.has_uniform_rates:
        raise SchedulerError(
            "RLE's guarantee requires uniform rates; "
            "pass strict_uniform=False to run it regardless"
        )
    if not problem.has_uniform_power:
        raise SchedulerError(
            "RLE's geometric feasibility proof assumes uniform transmit "
            "power; use greedy/dls/exact schedulers for power-controlled "
            "instances"
        )

    # Per-receiver budgets: gamma_eps everywhere in the paper's N0 = 0
    # setting; with noise each receiver keeps gamma_eps - nu_j and the
    # geometric constant is sized by the *tightest* serviceable budget so
    # Thm 4.3's two-budget argument still closes (f_P+ <= (1-c2) b_min
    # <= (1-c2) b_j for every scheduled j).
    budgets = problem.effective_budgets()
    serviceable = budgets > 0.0
    if not serviceable.any():
        return Schedule(
            active=np.zeros(0, dtype=np.int64),
            algorithm="rle",
            diagnostics={"unserviceable": int(n)},
        )
    b_min = float(budgets[serviceable].min())
    c1 = rle_c1(problem.alpha, problem.gamma_th, b_min, c2)
    lengths = links.lengths
    radii = c1 * lengths
    limits = c2 * budgets

    order = np.argsort(lengths, kind="stable")
    remaining = serviceable.copy()
    accumulated = np.zeros(n, dtype=float)  # f_{P, r_j} for every receiver j
    picked: list[int] = []
    removed_by_radius = 0
    removed_by_interference = 0
    elimination: dict[int, tuple[str, int]] = {}

    # Every killed link is still remaining, so ``remaining ^= kill``
    # clears exactly the killed ones.
    for i in order:
        if not remaining[i]:
            continue
        picked.append(int(i))
        remaining[i] = False

        # Line 4: drop links whose sender is within c1 * d_ii of r_i
        # (column i of the distance matrix: d(s_j, r_i) for every j).
        radius_kill = remaining & (problem.distance_block(None, i) < radii[i])
        removed_by_radius += int(np.count_nonzero(radius_kill))
        remaining ^= radius_kill
        if trace:
            for j in np.flatnonzero(radius_kill):
                elimination[int(j)] = ("radius", int(i))

        # Line 5: drop links whose receiver exceeds the c2 budget under
        # the picked set (the new pick contributes row F[i, :]).
        accumulated += problem.factor_block(i, None)
        interference_kill = remaining & (accumulated > limits)
        removed_by_interference += int(np.count_nonzero(interference_kill))
        remaining ^= interference_kill
        if trace:
            for j in np.flatnonzero(interference_kill):
                elimination[int(j)] = ("interference", int(i))

    return Schedule(
        active=np.array(sorted(picked), dtype=np.int64),
        algorithm="rle",
        diagnostics={
            "c1": c1,
            "c2": c2,
            "removed_by_radius": removed_by_radius,
            "removed_by_interference": removed_by_interference,
            "unserviceable": int(n - int(serviceable.sum())),
            "uniform_rates": bool(links.has_uniform_rates),
            **({"elimination": elimination, "pick_order": picked} if trace else {}),
        },
    )
