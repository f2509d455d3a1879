"""The Fading-R-LS problem instance.

A :class:`FadingRLS` bundles a :class:`~repro.network.links.LinkSet`
with the channel parameters ``(alpha, gamma_th, eps)`` and exposes the
paper's analytical machinery:

- the **interference-factor matrix** ``F`` with
  ``F[i, j] = ln(1 + gamma_th * (P_i d_ij^-alpha) / (P_j d_jj^-alpha))``
  (Eq. 17, generalised to per-link transmit powers; with uniform powers
  this is exactly the paper's
  ``ln(1 + gamma_th (d_jj / d_ij)^alpha)``) — computed once and cached,
  all O(N^2) work vectorised;
- **blocks on demand**: :meth:`FadingRLS.distance_block` and
  :meth:`FadingRLS.factor_block` slice the cached distance matrix and
  ``F`` when they are cached, and otherwise compute only the cells
  asked for, with the same per-cell arithmetic (so the same bits).
  RLE reads one column and one row per pick and the Corollary 3.1
  verdict one ``(K, K)`` block, so neither needs an ``N x N`` array;
- the **feasibility predicate** of Corollary 3.1, generalised to
  ambient noise: an active set ``P`` is feasible iff every ``j in P``
  has ``sum_{i in P\\j} F[i, j] + nu_j <= gamma_eps`` where
  ``nu_j = gamma_th * N0 * d_jj^alpha / P_j`` is the **noise factor**
  (the paper sets ``N0 = 0``, Eq. 8, making ``nu = 0``);
- closed-form per-link success probabilities (Theorem 3.1 with the
  standard noise extension
  ``Pr = e^-nu_j * prod 1/(1 + ...)``) and expected throughput.

Noise extension
---------------
The paper drops ``N0`` citing negligible effect.  We keep it optional:
for Rayleigh signal power ``Z ~ Exp(P_j d_jj^-alpha)``,

    ``Pr(Z >= gamma (N0 + I)) = e^(-gamma N0 / mu) * L_I(gamma / mu)``

so the log-domain constraint just gains the additive constant ``nu_j``
per receiver.  Links with ``nu_j > gamma_eps`` can never be informed —
they are *unserviceable* — and the scheduler layer must skip them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.backend import base as backend_base
from repro.backend import kernels as backend_kernels
from repro.geometry.distance import coordinate_distances
from repro.network.links import LinkSet
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.validation import check_positive, check_probability


#: A selection of links along one axis of :meth:`FadingRLS.distance_block`
#: / :meth:`FadingRLS.factor_block`: an index array, ``None`` (every link)
#: or an int (one link, no axis).
LinkIndex = Union[None, int, Sequence[int], np.ndarray]


def _is_axis(idx: LinkIndex) -> bool:
    return not isinstance(idx, (int, np.integer))


def _block_index(rows: LinkIndex, cols: LinkIndex):
    """The numpy index of a cached matrix for ``(rows, cols)``."""
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        return np.ix_(rows, cols)
    return (slice(None) if rows is None else rows, slice(None) if cols is None else cols)


def gamma_epsilon(eps: float) -> float:
    """``gamma_eps = ln(1 / (1 - eps))`` (Corollary 3.1's budget)."""
    check_probability(eps, "eps")
    return float(-np.log1p(-eps))


def interference_factors(
    distances: np.ndarray,
    alpha: float,
    gamma_th: float,
    powers: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Interference-factor matrix from a sender->receiver distance matrix.

    ``F[i, j] = ln(1 + gamma_th * (P_i d_ij^-alpha)/(P_j d_jj^-alpha))``
    for ``i != j``, ``F[i, i] = 0`` (Eq. 17).  ``powers`` defaults to
    uniform (the paper's setting), in which case the power ratio drops
    out.  Uses ``log1p`` so tiny factors from far-away interferers keep
    full precision — they are exactly the terms the proofs' ring sums
    accumulate.

    This is the fixed numpy *reference* (it delegates to
    :func:`repro.backend.kernels.fmatrix`); instance-level builds
    (:meth:`FadingRLS.interference_matrix`) look the same kernel up on
    the compute backend (:func:`repro.backend.get_active`) at call time.
    """
    return backend_kernels.fmatrix(distances, alpha, gamma_th, powers)


@dataclass(frozen=True)
class FadingRLS:
    """An instance of the Fading-Resistant Link Scheduling problem.

    Parameters
    ----------
    links:
        The candidate links ``L``.
    alpha:
        Path loss exponent (paper assumes ``alpha > 2``; enforced only
        where the LDP/RLE constants need zeta convergence).
    gamma_th:
        Decoding threshold (paper's experiments use 1.0).
    eps:
        Acceptable transmission error probability in ``(0, 1)``
        (paper's experiments use 0.01).
    noise:
        Ambient noise power ``N0 >= 0`` (paper: 0; see the module
        docstring for the closed-form extension).
    power:
        Uniform transmit power ``P`` (only matters relative to noise).
    powers:
        Optional per-link transmit powers overriding ``power``; enables
        the power-control extension (:mod:`repro.core.powercontrol`).
    """

    links: LinkSet
    alpha: float = 3.0
    gamma_th: float = 1.0
    eps: float = 0.01
    noise: float = 0.0
    power: float = 1.0
    powers: Optional[np.ndarray] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive(self.alpha, "alpha")
        check_positive(self.gamma_th, "gamma_th")
        check_probability(self.eps, "eps")
        check_positive(self.noise, "noise", strict=False)
        check_positive(self.power, "power")
        if not isinstance(self.links, LinkSet):
            raise TypeError(f"links must be a LinkSet, got {type(self.links).__name__}")
        if self.powers is not None:
            p = np.asarray(self.powers, dtype=float).reshape(-1)
            if p.shape[0] != len(self.links):
                raise ValueError(
                    f"powers has length {p.shape[0]}, expected {len(self.links)}"
                )
            if np.any(p <= 0) or not np.all(np.isfinite(p)):
                raise ValueError("powers must be positive and finite")
            p.setflags(write=False)
            object.__setattr__(self, "powers", p)

    # -- derived quantities -------------------------------------------

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def gamma_eps(self) -> float:
        """The interference budget ``ln(1 / (1 - eps))``."""
        return gamma_epsilon(self.eps)

    @property
    def has_uniform_power(self) -> bool:
        return self.powers is None or bool(np.all(self.powers == self.powers[0]))

    def tx_powers(self) -> np.ndarray:
        """Per-link transmit powers; shape ``(N,)``."""
        if self.powers is not None:
            return self.powers
        if "tx_powers" not in self._cache:
            self._cache["tx_powers"] = np.full(self.n_links, float(self.power))
        return self._cache["tx_powers"]

    def distances(self) -> np.ndarray:
        """Cached sender->receiver distance matrix ``d(s_i, r_j)``."""
        if "distances" not in self._cache:
            self._cache["distances"] = self.links.sender_receiver_distances()
        return self._cache["distances"]

    def interference_matrix(self) -> np.ndarray:
        """Cached interference-factor matrix ``F`` (Eq. 17)."""
        if "F" not in self._cache:
            backend = backend_base.get_active()
            with span("fmatrix.build", n=self.n_links):
                self._cache["F"] = backend.fmatrix(
                    self.distances(), self.alpha, self.gamma_th, self.powers
                )
            obs_metrics.inc("fmatrix.builds")
            obs_metrics.inc("fmatrix.cells_computed", self.n_links * self.n_links)
        else:
            obs_metrics.inc("fmatrix.cache_hits")
        return self._cache["F"]

    def distance_block(self, rows: LinkIndex, cols: LinkIndex) -> np.ndarray:
        """Distances ``d(s_i, r_j)`` for the links ``rows`` and ``cols`` select.

        Each of ``rows`` and ``cols`` is an index array (one axis of the
        result, in that order), ``None`` (every link, one axis) or an
        int (one link, no axis) — numpy indexing of :meth:`distances`,
        except that two index arrays select their whole block, as with
        :func:`numpy.ix_`.  So ``distance_block(None, i)`` is column
        ``i`` and ``distance_block(idx, idx)`` the ``K x K`` block of
        ``idx``.

        Slices :meth:`distances` when it is cached and otherwise
        computes only these cells, with the per-cell arithmetic behind
        :func:`~repro.geometry.distance.cross_distances`
        (:func:`~repro.geometry.distance.coordinate_distances`), so both
        give the same bits.
        """
        rows, cols = self._link_index(rows), self._link_index(cols)
        d = self._cache.get("distances")
        if d is not None:
            return d[_block_index(rows, cols)]
        return self._compute_distances(rows, cols)

    def factor_block(self, rows: LinkIndex, cols: LinkIndex) -> np.ndarray:
        """Interference factors ``F[i, j]`` for the links ``rows`` and ``cols`` select.

        ``rows`` and ``cols`` as in :meth:`distance_block`:
        ``factor_block(i, None)`` is row ``i`` of ``F``.  Slices
        :meth:`interference_matrix` when it is cached and otherwise
        computes only these cells with the one Eq. 17 kernel
        (:func:`repro.backend.kernels.factor_block`), so both give the
        same bits.  A cell whose row and column are the same link is 0.
        """
        rows, cols = self._link_index(rows), self._link_index(cols)
        f = self._cache.get("F")
        if f is not None:
            return f[_block_index(rows, cols)]
        own, everyone = self._own_distances()
        row_ids = everyone if rows is None else rows
        col_ids = everyone if cols is None else cols
        if _is_axis(rows) and _is_axis(cols):
            row_ids = row_ids[:, None]
        block = self._compute_distances(rows, cols)
        obs_metrics.inc("fmatrix.block_cells", block.size)
        return backend_kernels.factor_block(
            block,
            own if cols is None else own[cols],
            row_ids,
            col_ids,
            self.alpha,
            self.gamma_th,
            self.powers,
        )

    def _link_index(self, idx: LinkIndex) -> LinkIndex:
        # Past-the-end indices fail in the gather that reads them; a
        # negative one would gather by wrapping, so it is refused here.
        if idx is None:
            return None
        if isinstance(idx, (int, np.integer)):
            if idx < 0:
                raise IndexError(f"link indices must be >= 0, got {idx}")
            return idx
        a = np.asarray(idx, dtype=np.int64).reshape(-1)
        if a.size and a.min() < 0:
            raise IndexError(f"link indices must be >= 0, got {int(a.min())}")
        return a

    def _own_distances(self) -> tuple:
        """The links' own lengths ``d_jj`` — the distance matrix's
        diagonal, computed cell by cell with the same bits — and the
        link ids ``0..N-1``."""
        if "own_distances" not in self._cache:
            s, r = self.links.senders, self.links.receivers
            self._cache["own_distances"] = (
                coordinate_distances(s[:, 0], s[:, 1], r[:, 0], r[:, 1]),
                np.arange(len(s)),
            )
        return self._cache["own_distances"]

    def _compute_distances(self, rows: LinkIndex, cols: LinkIndex) -> np.ndarray:
        senders, receivers = self.links.senders, self.links.receivers
        sx, sy = senders[:, 0], senders[:, 1]
        rx, ry = receivers[:, 0], receivers[:, 1]
        if rows is not None:
            sx, sy = sx[rows], sy[rows]
        if cols is not None:
            rx, ry = rx[cols], ry[cols]
        if _is_axis(rows) and _is_axis(cols):
            sx, sy = sx[:, None], sy[:, None]
        return coordinate_distances(sx, sy, rx, ry)

    def noise_factors(self) -> np.ndarray:
        """Per-receiver noise factor ``nu_j = gamma_th N0 d_jj^alpha / P_j``.

        All zero in the paper's ``N0 = 0`` setting.
        """
        if "noise_factors" not in self._cache:
            if self.noise == 0.0:
                nu = np.zeros(self.n_links, dtype=float)
            else:
                lengths = self.links.lengths
                nu = self.gamma_th * self.noise * lengths**self.alpha / self.tx_powers()
            self._cache["noise_factors"] = nu
        return self._cache["noise_factors"]

    def effective_budgets(self) -> np.ndarray:
        """Per-receiver interference budget ``gamma_eps - nu_j``.

        Negative entries mark *unserviceable* links (noise alone already
        exceeds the error allowance).
        """
        return self.gamma_eps - self.noise_factors()

    def serviceable(self) -> np.ndarray:
        """Boolean per link: can it be informed with no interferers at all?"""
        return self.effective_budgets() >= 0.0

    # -- feasibility (Corollary 3.1) ----------------------------------

    def active_mask(self, active: Sequence[int] | np.ndarray) -> np.ndarray:
        """Normalise an index array / bool mask to a bool mask."""
        a = np.asarray(active)
        if a.dtype == bool:
            if a.shape != (self.n_links,):
                raise ValueError(
                    f"boolean mask must have shape ({self.n_links},), got {a.shape}"
                )
            return a.copy()
        mask = np.zeros(self.n_links, dtype=bool)
        idx = a.astype(np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_links):
            raise IndexError(f"active indices out of range for {self.n_links} links")
        mask[idx] = True
        return mask

    def interference_on(self, active: Sequence[int] | np.ndarray) -> np.ndarray:
        """Summed interference factors at every receiver from set ``P``.

        Returns an ``(N,)`` array: entry ``j`` is
        ``sum_{i in P, i != j} F[i, j]`` — receiver ``j``'s accumulated
        interference factor whether or not ``j`` itself is active
        (RLE's elimination step needs it for inactive receivers too).
        Noise is *not* included; see :meth:`noise_factors`.
        """
        mask = self.active_mask(active)
        f = self.interference_matrix()
        # F has a zero diagonal, so an active j never counts itself.
        return mask.astype(float) @ f

    def informed(self, active: Sequence[int] | np.ndarray, *, tol: float = 1e-12) -> np.ndarray:
        """Boolean per-link: is each *active* link informed under ``P``?

        Inactive links report ``False``.  ``tol`` absorbs floating-point
        round-off at the budget boundary.
        """
        mask = self.active_mask(active)
        slack = self.interference_on(mask) <= self.effective_budgets() + tol
        return mask & slack

    def is_feasible(self, active: Sequence[int] | np.ndarray, *, tol: float = 1e-12) -> bool:
        """Corollary 3.1 check: every active receiver is informed.

        Dispatches through the compute backend's feasibility kernel on
        the ``(K, K)`` :meth:`factor_block` of the active set — O(K^2)
        instead of the O(N^2) masked reduction behind :meth:`informed`,
        and no ``N x N`` array when ``F`` is not cached — and returns
        the identical verdict (the kernel tests pin agreement,
        including on the unserviceable-link edge where noise alone
        exceeds a receiver's budget).
        """
        mask = self.active_mask(active)
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return True
        return bool(
            backend_base.get_active().feasible_verdict(
                self.factor_block(idx, idx), self.effective_budgets()[idx], tol
            )
        )

    # -- objective ----------------------------------------------------

    def scheduled_rate(self, active: Sequence[int] | np.ndarray) -> float:
        """Total data rate of the active set (the ILP objective)."""
        mask = self.active_mask(active)
        return float(self.links.rates[mask].sum())

    def success_probabilities(self, active: Sequence[int] | np.ndarray) -> np.ndarray:
        """Theorem 3.1 closed-form success probability per active link.

        Returns an ``(N,)`` array with zeros at inactive links, so it
        aligns with the link indexing (convenient for expected
        throughput: ``rates @ success_probabilities``).  With noise the
        extra ``e^-nu_j`` factor applies.
        """
        mask = self.active_mask(active)
        out = np.zeros(self.n_links, dtype=float)
        exponent = self.interference_on(mask) + self.noise_factors()
        out[mask] = np.exp(-exponent[mask])
        return out

    def expected_throughput(self, active: Sequence[int] | np.ndarray) -> float:
        """Expected successfully-received rate under Rayleigh fading.

        ``sum_j lambda_j * Pr(X_j >= gamma_th)`` over the active set —
        the fading-aware version of the paper's throughput metric.
        """
        return float(self.links.rates @ self.success_probabilities(active))

    # -- restriction --------------------------------------------------

    def restrict(self, indices: Sequence[int] | np.ndarray) -> "FadingRLS":
        """Sub-instance on a subset of links (fresh caches)."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        return FadingRLS(
            links=self.links.subset(idx),
            alpha=self.alpha,
            gamma_th=self.gamma_th,
            eps=self.eps,
            noise=self.noise,
            power=self.power,
            powers=None if self.powers is None else self.powers[idx].copy(),
        )

    def with_params(
        self,
        *,
        alpha: Optional[float] = None,
        gamma_th: Optional[float] = None,
        eps: Optional[float] = None,
        noise: Optional[float] = None,
        power: Optional[float] = None,
    ) -> "FadingRLS":
        """Copy of this instance with some channel parameters replaced.

        Cached derived quantities are carried forward whenever the
        parameters that define them are untouched, so e.g. an eps-only
        sweep (``with_params(eps=...)`` per point) reuses the O(N^2)
        interference matrix ``F`` instead of recomputing it: distances
        depend only on the shared links; ``F`` on ``(alpha, gamma_th)``
        (and ``powers``, which this method never changes); the uniform
        ``tx_powers`` vector on ``power``; the noise factors on
        ``(alpha, gamma_th, noise, power)``.  The arrays are shared, not
        copied — they are treated as immutable throughout.
        """
        new = FadingRLS(
            links=self.links,
            alpha=self.alpha if alpha is None else alpha,
            gamma_th=self.gamma_th if gamma_th is None else gamma_th,
            eps=self.eps if eps is None else eps,
            noise=self.noise if noise is None else noise,
            power=self.power if power is None else power,
            powers=self.powers,
        )
        cache = self._cache
        if "distances" in cache:
            new._cache["distances"] = cache["distances"]
        same_f = new.alpha == self.alpha and new.gamma_th == self.gamma_th
        if same_f and "F" in cache:
            new._cache["F"] = cache["F"]
        if new.power == self.power and "tx_powers" in cache:
            new._cache["tx_powers"] = cache["tx_powers"]
        if (
            same_f
            and new.noise == self.noise
            and new.power == self.power
            and "noise_factors" in cache
        ):
            new._cache["noise_factors"] = cache["noise_factors"]
        return new

    def with_powers(self, powers: np.ndarray) -> "FadingRLS":
        """Copy of this instance with per-link transmit powers."""
        return FadingRLS(
            links=self.links,
            alpha=self.alpha,
            gamma_th=self.gamma_th,
            eps=self.eps,
            noise=self.noise,
            power=self.power,
            powers=np.asarray(powers, dtype=float).copy(),
        )
