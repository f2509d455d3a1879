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
The loop keeps only the remaining links, shortest first, and reads them
in blocks.  A block's *heads* are the next ``max(1, BLOCK_CELLS // R)``
of the ``R`` remaining links, the only links its picks can come from.
One :meth:`FadingRLS.distance_block` call reads every head's column
(each remaining sender's distance to the head's receiver: line 4's
test), and one :meth:`FadingRLS.factor_block` call reads the F rows
(line 5's addends) of the heads that the heads' own radius test leaves
standing.  The block then runs its picks in order: it skips a head an
earlier pick eliminated, and it ends at a head that outlived the pick
that would have doomed it (an interference kill took that pick first),
whose row it did not read.  The survivors and their accumulated
interference are compacted before the next block.

Every output keeps the bits of one column and one row per pick: each
cell comes from the same per-cell arithmetic as the cached matrices,
each receiver's sum adds the picks' rows in pick order, and the trace
records each pick's eliminations in index order.  A block reads at most
``max(R, BLOCK_CELLS)`` cells of each kind and makes at least one pick,
so K picks read at most ``K * max(N, BLOCK_CELLS)`` F cells, and RLE on
a fresh instance builds no ``N x N`` array.  Link order is a single
argsort by length done once.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import SchedulerError, register_scheduler
from repro.core.bounds import rle_c1
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule

#: A block takes ``max(1, BLOCK_CELLS // R)`` of the ``R`` remaining links
#: as its heads, so it reads at most ``max(R, BLOCK_CELLS)`` distances and
#: as many F cells (see the module's implementation notes).
BLOCK_CELLS = 4096


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
    uniform_rates = links.has_uniform_rates
    if strict_uniform and not uniform_rates:
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

    # The serviceable links still in play, shortest first (a stable
    # sort, so ties keep index order), with each one's accumulated
    # interference factor f_{P, r_j} and its c2 budget.
    order = np.argsort(lengths, kind="stable")
    cand = order[serviceable[order]]
    n_serviceable = cand.size
    accumulated = np.zeros(n_serviceable)
    limits = c2 * budgets[cand]
    picked: list[int] = []
    removed_by_radius = 0
    elimination: dict[int, tuple[str, int]] = {}

    while cand.size:
        heads = cand[: max(1, BLOCK_CELLS // cand.size)]
        # close[h, j]: line 4 kills remaining link j if head h is picked.
        close = (problem.distance_block(cand, heads) < radii[heads]).T
        # The heads that radius kills among the heads alone leave
        # standing; only they get an F row.
        doomed = np.zeros(heads.size, dtype=bool)
        foretold = []
        for k in range(heads.size):
            if not doomed[k]:
                foretold.append(k)
                doomed |= close[k, : heads.size]
        rows = dict(zip(foretold, problem.factor_block(heads[foretold], cand)))
        # Head k is cand[k].
        alive = np.ones(cand.size, dtype=bool)
        for k, head in enumerate(heads.tolist()):
            if not alive[k]:
                continue  # an earlier pick of this block eliminated it
            row = rows.get(k)
            if row is None:
                break  # its doom never came: the next block starts with it
            picked.append(head)
            alive[k] = False
            kill = alive & close[k]
            removed_by_radius += int(np.count_nonzero(kill))
            alive ^= kill
            if trace:
                for j in np.sort(cand[kill]).tolist():
                    elimination[j] = ("radius", head)
            accumulated += row
            kill = accumulated > limits
            kill &= alive
            alive ^= kill
            if trace:
                for j in np.sort(cand[kill]).tolist():
                    elimination[j] = ("interference", head)
        cand, accumulated, limits = cand[alive], accumulated[alive], limits[alive]

    return Schedule(
        active=np.array(sorted(picked), dtype=np.int64),
        algorithm="rle",
        diagnostics={
            "c1": c1,
            "c2": c2,
            "removed_by_radius": removed_by_radius,
            # Every serviceable link ends picked or eliminated.
            "removed_by_interference": n_serviceable - len(picked) - removed_by_radius,
            "unserviceable": n - n_serviceable,
            "uniform_rates": uniform_rates,
            **({"elimination": elimination, "pick_order": picked} if trace else {}),
        },
    )
