"""Incremental scheduling engine for dynamic networks.

The static pipeline treats every time step of a dynamic network as a
brand-new instance: rebuild the O(N^2) interference-factor matrix,
rerun the scheduler from scratch.  Mobility churns only ``k << N``
links per step, so almost all of that work recomputes unchanged
numbers.  :class:`IncrementalScheduler` carries the expensive state
across steps instead:

- **F-matrix maintenance** — a :class:`~repro.network.delta.LinkDelta`
  (moves / removals / insertions) updates the cached distance and
  interference-factor matrices in O(kN): only the rows and columns of
  touched links are recomputed with the one Eq. 17 block kernel
  (:func:`repro.backend.kernels.factor_block`), so the maintained
  ``F`` stays **bit-identical** to a fresh
  :class:`~repro.core.problem.FadingRLS` on the same geometry (the
  Hypothesis suite pins this).
- **Interference-sum ledger** — ``ledger[j] = sum_{i active} F[i, j]``
  is maintained per receiver under every eviction/admission/delta, so
  Corollary 3.1 feasibility re-checks touch only the receivers a delta
  actually affected instead of re-reducing the whole matrix.
- **Warm-start schedule repair** — after a delta the surviving schedule
  is kept, newly-infeasible links are evicted via the ledger (worst
  violation first), and the delta's touched links plus the evictees are
  greedily re-admitted.  When the repaired rate degrades below
  ``quality_bound`` times the last from-scratch rate, the engine falls
  back to a full run of the wrapped scheduler (LDP, RLE, local search —
  any registry name or callable) and re-anchors.

The engine is observable (``incremental.*`` spans and metrics, see
``docs/OBSERVABILITY.md``) and verified differentially: the
``incremental-vs-scratch`` check in :mod:`repro.verify.differential`
replays random delta sequences against from-scratch recomputation.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.backend.kernels import factor_block, gathered_interference
from repro.core.base import get_scheduler
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.geometry.distance import cross_distances
from repro.network.delta import LinkDelta
from repro.network.links import LinkSet
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.validation import (
    ValidationError,
    check_interval,
    check_positive,
    check_probability,
)

SchedulerLike = Union[str, Callable[..., Schedule]]


class IncrementalScheduler:
    """Maintain a schedule over a changing link set with O(kN) updates.

    Parameters
    ----------
    links:
        The initial link set.
    scheduler:
        Registry name (``"ldp"``, ``"rle"``, ``"local_search"``, ...) or
        scheduler callable used for from-scratch runs (the first
        schedule and every quality fallback).
    scheduler_kwargs:
        Extra keyword arguments forwarded to the scheduler.
    alpha, gamma_th, eps, noise, power:
        Channel parameters of the maintained
        :class:`~repro.core.problem.FadingRLS` (uniform power only —
        the warm-start repair shares LDP/RLE's uniform-power setting).
    quality_bound:
        Fallback trigger in ``(0, 1]``: when a repaired schedule's rate
        drops below ``quality_bound`` times the rate of the last
        from-scratch run, the engine reschedules from scratch.
    admit_margin:
        Safety slack subtracted from every budget during greedy
        re-admission, absorbing the ledger's floating-point drift so a
        repaired schedule always passes the *fresh* Corollary 3.1 check.
    tol:
        Feasibility tolerance matching ``FadingRLS.informed``.
    """

    def __init__(
        self,
        links: LinkSet,
        *,
        scheduler: SchedulerLike = "rle",
        scheduler_kwargs: Optional[dict] = None,
        alpha: float = 3.0,
        gamma_th: float = 1.0,
        eps: float = 0.01,
        noise: float = 0.0,
        power: float = 1.0,
        quality_bound: float = 0.8,
        admit_margin: float = 1e-9,
        tol: float = 1e-12,
    ) -> None:
        if isinstance(scheduler, str):
            self._scheduler_name = scheduler
            self._scheduler = get_scheduler(scheduler)
        else:
            self._scheduler = scheduler
            self._scheduler_name = getattr(scheduler, "__name__", "custom")
        self._scheduler_kwargs = dict(scheduler_kwargs or {})
        check_positive(alpha, "alpha")
        check_positive(gamma_th, "gamma_th")
        check_probability(eps, "eps")
        check_positive(noise, "noise", strict=False)
        check_positive(power, "power")
        check_interval(quality_bound, "quality_bound", 0.0, 1.0, lo_open=True)
        check_positive(admit_margin, "admit_margin", strict=False)
        self.alpha = float(alpha)
        self.gamma_th = float(gamma_th)
        self.eps = float(eps)
        self.noise = float(noise)
        self.power = float(power)
        self.quality_bound = float(quality_bound)
        self.admit_margin = float(admit_margin)
        self.tol = float(tol)

        self._senders = np.array(links.senders, dtype=float)
        self._receivers = np.array(links.receivers, dtype=float)
        self._rates = np.array(links.rates, dtype=float)
        n = len(links)
        # Full builds of the carried matrices, through the same code
        # paths a fresh FadingRLS uses (bit-identity anchor).
        self._distances = cross_distances(self._senders, self._receivers)
        seed_problem = self._fresh_problem()
        seed_problem._cache["distances"] = self._distances
        self._f = seed_problem.interference_matrix()
        self._gamma_eps = float(seed_problem.gamma_eps)
        self._budgets_arr = seed_problem.effective_budgets().copy()
        self._active = np.zeros(n, dtype=bool)
        self._ledger = np.zeros(n, dtype=float)
        self._dirty = np.zeros(n, dtype=bool)
        self._problem: Optional[FadingRLS] = None
        self._reference_rate: Optional[float] = None
        self.stats: Dict[str, int] = {
            "applies": 0,
            "repairs": 0,
            "fallbacks": 0,
            "full_runs": 0,
            "evictions": 0,
            "admissions": 0,
            "rows_updated": 0,
            "ledger_updates": 0,
        }

    # -- state access -------------------------------------------------

    @property
    def n_links(self) -> int:
        return int(self._rates.shape[0])

    @property
    def active_mask(self) -> np.ndarray:
        """Copy of the current schedule's boolean membership mask."""
        return self._active.copy()

    @property
    def ledger(self) -> np.ndarray:
        """Copy of the per-receiver interference-sum ledger."""
        return self._ledger.copy()

    @property
    def problem(self) -> FadingRLS:
        """The current step's :class:`FadingRLS` with carried caches.

        The distance and interference matrices are *live views* of the
        engine's maintained state: valid until the next
        :meth:`apply`, shared rather than copied.
        """
        if self._problem is None:
            prob = self._fresh_problem()
            prob._cache["distances"] = self._distances
            prob._cache["F"] = self._f
            self._problem = prob
        return self._problem

    def _fresh_problem(self) -> FadingRLS:
        return FadingRLS(
            links=LinkSet(
                senders=self._senders.copy(),
                receivers=self._receivers.copy(),
                rates=self._rates.copy(),
            ),
            alpha=self.alpha,
            gamma_th=self.gamma_th,
            eps=self.eps,
            noise=self.noise,
            power=self.power,
        )

    # -- delta application (O(kN)) ------------------------------------

    def apply(self, delta: LinkDelta) -> None:
        """Apply one :class:`LinkDelta`; O(kN) for k touched links.

        A delta that does not fit the engine raises before anything
        changes: an index past the tracked links (``IndexError``), or a
        moved link without a positive, finite length.
        """
        for name, idx in (("moves", delta.moves), ("removes", delta.removes)):
            if idx.size and idx.max() >= self.n_links:
                raise IndexError(
                    f"{name} reference link {int(idx.max())} "
                    f"but the engine tracks only {self.n_links}"
                )
        # Finite endpoints can still be too far apart for a double: that
        # length overflows to inf and is refused below, as in LinkSet.
        with np.errstate(over="ignore"):
            disp = delta.new_receivers - delta.new_senders
        length2 = np.einsum("ij,ij->i", disp, disp)
        if not np.all((length2 > 0.0) & np.isfinite(length2)):
            raise ValidationError(
                "every moved link must keep a positive, finite length", param="moves"
            )
        with span(
            "incremental.apply",
            n=self.n_links,
            moved=delta.n_moved,
            removed=delta.n_removed,
            inserted=delta.n_inserted,
        ):
            if delta.n_moved:
                self._apply_moves(delta.moves, delta.new_senders, delta.new_receivers)
            if delta.n_removed:
                self._apply_removes(delta.removes)
            if delta.n_inserted:
                self._apply_inserts(delta.inserts)
        self.stats["applies"] += 1
        obs_metrics.inc("incremental.applies")
        self._problem = None

    def step(self, delta: LinkDelta) -> Schedule:
        """Convenience: :meth:`apply` then :meth:`schedule`."""
        self.apply(delta)
        return self.schedule()

    def _refresh_ledger_cols(self, cols: np.ndarray) -> None:
        """Exact ledger recomputation at the given receivers (O(|A| k)).

        Shares :func:`repro.backend.kernels.gathered_interference` with
        the backend feasibility kernels — the same gathered reduction,
        so the ledger stays bit-identical to what this expression has
        always produced.
        """
        act = np.flatnonzero(self._active)
        if act.size:
            self._ledger[cols] = gathered_interference(self._f, act, cols)
        else:
            self._ledger[cols] = 0.0
        self.stats["ledger_updates"] += int(cols.size)
        obs_metrics.inc("incremental.ledger_updates", int(cols.size))

    def _update_rows_cols(self, idx: np.ndarray) -> None:
        """Recompute distance/F rows and columns of the links ``idx``."""
        d = self._distances
        # Rows: d(s_i, r_j) for moved senders i; columns: for moved
        # receivers j.  Both use the same kernel as a full build.
        d[idx, :] = cross_distances(self._senders[idx], self._receivers)
        d[:, idx] = cross_distances(self._senders, self._receivers[idx])
        own = np.diag(d)
        everyone = np.arange(self.n_links)
        self._f[idx, :] = factor_block(
            d[idx, :], own, idx[:, None], everyone, self.alpha, self.gamma_th
        )
        self._f[:, idx] = factor_block(
            d[:, idx], own[idx], everyone[:, None], idx, self.alpha, self.gamma_th
        )
        self.stats["rows_updated"] += 2 * int(idx.size)
        obs_metrics.inc("incremental.rows_updated", 2 * int(idx.size))

    def _apply_moves(
        self, moves: np.ndarray, new_senders: np.ndarray, new_receivers: np.ndarray
    ) -> None:
        moved_active = moves[self._active[moves]]
        # Retract the moving active rows before their factors change...
        if moved_active.size:
            self._ledger -= self._f[moved_active, :].sum(axis=0)
            self.stats["ledger_updates"] += int(moved_active.size)
            obs_metrics.inc("incremental.ledger_updates", int(moved_active.size))
        self._senders[moves] = new_senders
        self._receivers[moves] = new_receivers
        self._update_rows_cols(moves)
        self._update_budgets(moves)
        # ...re-assert them with the new factors, then fix the moved
        # receivers' sums exactly (their whole column changed).
        if moved_active.size:
            self._ledger += self._f[moved_active, :].sum(axis=0)
            self.stats["ledger_updates"] += int(moved_active.size)
            obs_metrics.inc("incremental.ledger_updates", int(moved_active.size))
        self._refresh_ledger_cols(moves)
        self._dirty[moves] = True

    def _apply_removes(self, removes: np.ndarray) -> None:
        removed_active = removes[self._active[removes]]
        if removed_active.size:
            self._ledger -= self._f[removed_active, :].sum(axis=0)
            self.stats["ledger_updates"] += int(removed_active.size)
            obs_metrics.inc("incremental.ledger_updates", int(removed_active.size))
        keep = np.ones(self.n_links, dtype=bool)
        keep[removes] = False
        kept = np.flatnonzero(keep)
        self._senders = self._senders[kept]
        self._receivers = self._receivers[kept]
        self._rates = self._rates[kept]
        self._active = self._active[kept]
        self._ledger = self._ledger[kept]
        self._dirty = self._dirty[kept]
        self._budgets_arr = self._budgets_arr[kept]
        self._distances = self._distances[np.ix_(kept, kept)]
        self._f = self._f[np.ix_(kept, kept)]

    def _apply_inserts(self, inserts: LinkSet) -> None:
        k = len(inserts)
        n = self.n_links
        self._senders = np.vstack([self._senders, inserts.senders])
        self._receivers = np.vstack([self._receivers, inserts.receivers])
        self._rates = np.concatenate([self._rates, inserts.rates])
        new_idx = np.arange(n, n + k, dtype=np.int64)
        d = np.empty((n + k, n + k), dtype=float)
        d[:n, :n] = self._distances
        self._distances = d
        f = np.empty((n + k, n + k), dtype=float)
        f[:n, :n] = self._f
        self._f = f
        self._update_rows_cols(new_idx)
        self._active = np.concatenate([self._active, np.zeros(k, dtype=bool)])
        self._ledger = np.concatenate([self._ledger, np.zeros(k, dtype=float)])
        self._refresh_ledger_cols(new_idx)
        self._dirty = np.concatenate([self._dirty, np.ones(k, dtype=bool)])
        self._budgets_arr = np.concatenate(
            [self._budgets_arr, np.full(k, self._gamma_eps)]
        )
        self._update_budgets(new_idx)

    # -- scheduling ---------------------------------------------------

    def schedule(self) -> Schedule:
        """Current step's schedule: warm-start repair, or full run.

        The first call (and every quality fallback) runs the wrapped
        scheduler from scratch on the maintained problem; subsequent
        calls repair the surviving schedule via the ledger.
        """
        if self._reference_rate is None:
            return self._full_reschedule(reason="initial")
        with span("incremental.repair", n=self.n_links, active=int(self._active.sum())):
            evicted = self._evict_infeasible()
            admitted = self._readmit(evicted)
        rate = float(self._rates[self._active].sum())
        if rate < self.quality_bound * self._reference_rate - self.tol:
            self.stats["fallbacks"] += 1
            obs_metrics.inc("incremental.fallbacks")
            return self._full_reschedule(reason="quality")
        self.stats["repairs"] += 1
        obs_metrics.inc("incremental.repairs")
        self._dirty[:] = False
        return Schedule(
            active=np.flatnonzero(self._active),
            algorithm=f"incremental:{self._scheduler_name}",
            diagnostics={
                "mode": "repair",
                "evicted": int(evicted.size),
                "admitted": admitted,
                "total_rate": rate,
                "reference_rate": self._reference_rate,
            },
        )

    def _budgets(self) -> np.ndarray:
        return self._budgets_arr

    def _update_budgets(self, idx: np.ndarray) -> None:
        """Refresh the touched receivers' budgets (O(k)).

        Budgets depend on geometry only through the link's own length
        (the ``nu_j`` noise factor), so moves and inserts update just
        the touched entries; with ``noise == 0`` they are the constant
        ``gamma_eps`` and nothing changes.
        """
        if self.noise == 0.0:
            return
        lengths = self._distances[idx, idx]
        nu = self.gamma_th * self.noise * lengths**self.alpha / self.power
        self._budgets_arr[idx] = self._gamma_eps - nu

    def _evict_infeasible(self) -> np.ndarray:
        """Drop active links until every receiver is within budget.

        Worst violation first (deterministic: ties break to the lowest
        index).  Each eviction retracts one ledger row — O(N) — and can
        only shrink other receivers' sums, so the loop terminates after
        at most ``|active|`` rounds.
        """
        budgets = self._budgets()
        evicted: list[int] = []
        while self._active.any():
            # Strict threshold (no + tol): the ledger may drift a few
            # ulp from a fresh reduction, so eviction errs toward
            # removing boundary links — re-admission can bring them
            # back, and the repaired set then passes the fresh
            # Corollary 3.1 check with its standard tolerance.
            violation = np.where(self._active, self._ledger - budgets, -np.inf)
            worst = int(np.argmax(violation))
            if violation[worst] <= 0.0:
                break
            self._active[worst] = False
            self._ledger -= self._f[worst, :]
            self.stats["ledger_updates"] += 1
            obs_metrics.inc("incremental.ledger_updates")
            evicted.append(worst)
        if evicted:
            self.stats["evictions"] += len(evicted)
            obs_metrics.inc("incremental.evictions", len(evicted))
        return np.array(sorted(evicted), dtype=np.int64)

    def _readmit(self, evicted: np.ndarray) -> int:
        """Greedily admit delta-touched links and evictees; returns count.

        Candidate order is highest rate first (shorter link, then lower
        index, on ties) — the same preference LDP's per-square argmax
        and the greedy baseline use.  Admission requires every active
        receiver *and* the candidate itself to stay within budget with
        ``admit_margin`` to spare.
        """
        candidates = np.union1d(np.flatnonzero(self._dirty & ~self._active), evicted)
        if candidates.size == 0:
            return 0
        lengths = self._distances[candidates, candidates]
        order = candidates[
            np.lexsort((candidates, lengths, -self._rates[candidates]))
        ]
        budgets = self._budgets() - self.admit_margin
        admitted = 0
        for c in order:
            c = int(c)
            if self._active[c] or self._ledger[c] > budgets[c]:
                continue
            trial = self._ledger + self._f[c, :]
            if np.any(trial[self._active] > budgets[self._active]):
                continue
            self._active[c] = True
            self._ledger = trial
            self.stats["ledger_updates"] += 1
            obs_metrics.inc("incremental.ledger_updates")
            admitted += 1
        if admitted:
            self.stats["admissions"] += admitted
            obs_metrics.inc("incremental.admissions", admitted)
        return admitted

    def _full_reschedule(self, reason: str) -> Schedule:
        with span("incremental.full", n=self.n_links, reason=reason):
            prob = self.problem
            result = self._scheduler(prob, **self._scheduler_kwargs)
            self._active = prob.active_mask(result.active)
            # Exact resync through the same reduction FadingRLS uses,
            # clearing any accumulated ledger drift.
            self._ledger = prob.interference_on(self._active)
            self._reference_rate = float(self._rates[self._active].sum())
        self.stats["full_runs"] += 1
        obs_metrics.inc("incremental.full_runs")
        self._dirty[:] = False
        return Schedule(
            active=result.active,
            algorithm=f"incremental:{self._scheduler_name}",
            diagnostics={
                "mode": "full",
                "reason": reason,
                "total_rate": self._reference_rate,
                "base": dict(result.diagnostics),
            },
        )
