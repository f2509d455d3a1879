"""Link containers.

:class:`LinkSet` is the central data structure of the library: a
struct-of-arrays collection of ``N`` sender/receiver pairs with data
rates.  Keeping coordinates in ``(N, 2)`` arrays means the
sender-to-receiver distance matrix — the input to every interference
computation — is a single broadcasting expression
(:meth:`LinkSet.sender_receiver_distances`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.geometry.distance import cross_distances
from repro.geometry.points import as_points


@dataclass(frozen=True)
class Link:
    """A single directed transmission link (convenience view).

    ``LinkSet`` is the working representation; ``Link`` exists for
    ergonomic construction and iteration in examples and tests.
    """

    sender: tuple[float, float]
    receiver: tuple[float, float]
    rate: float = 1.0

    @property
    def length(self) -> float:
        sx, sy = self.sender
        rx, ry = self.receiver
        return float(np.hypot(rx - sx, ry - sy))


@dataclass(frozen=True)
class LinkSet:
    """An immutable set of ``N`` links in struct-of-arrays layout.

    Attributes
    ----------
    senders : (N, 2) float array
        Sender coordinates ``s_i``.
    receivers : (N, 2) float array
        Receiver coordinates ``r_i``.
    rates : (N,) float array
        Per-link data rates ``lambda_i`` (all 1.0 in the paper's
        experiments, arbitrary positive in the general Fading-R-LS).
    """

    senders: np.ndarray
    receivers: np.ndarray
    rates: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        s = as_points(self.senders, "senders")
        r = as_points(self.receivers, "receivers")
        if s.shape != r.shape:
            raise ValueError(
                f"senders {s.shape} and receivers {r.shape} must have equal shapes"
            )
        if self.rates is None:
            rates = np.ones(s.shape[0], dtype=float)
        else:
            rates = np.asarray(self.rates, dtype=float).reshape(-1)
            if rates.shape[0] != s.shape[0]:
                raise ValueError(
                    f"rates has length {rates.shape[0]}, expected {s.shape[0]}"
                )
            if np.any(rates <= 0) or not np.all(np.isfinite(rates)):
                raise ValueError("rates must be positive and finite")
        # Finite coordinates can still be too far apart for a double:
        # that length overflows to inf and is refused below.
        with np.errstate(over="ignore"):
            lengths = np.sqrt(np.einsum("ij,ij->i", r - s, r - s))
        if np.any(lengths <= 0):
            raise ValueError("every link must have positive length (sender != receiver)")
        if not np.all(np.isfinite(lengths)):
            raise ValueError("every link must have a finite length")
        # Freeze the arrays: LinkSet is shared between schedulers.
        for arr in (s, r, rates):
            arr.setflags(write=False)
        object.__setattr__(self, "senders", s)
        object.__setattr__(self, "receivers", r)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "_lengths", lengths)

    # -- construction -------------------------------------------------

    @classmethod
    def from_links(cls, links: Iterable[Link]) -> "LinkSet":
        """Build a ``LinkSet`` from an iterable of :class:`Link`."""
        links = list(links)
        if not links:
            return cls.empty()
        return cls(
            senders=np.array([l.sender for l in links], dtype=float),
            receivers=np.array([l.receiver for l in links], dtype=float),
            rates=np.array([l.rate for l in links], dtype=float),
        )

    @classmethod
    def empty(cls) -> "LinkSet":
        """The empty link set (zero links)."""
        z = np.zeros((0, 2), dtype=float)
        return cls(senders=z, receivers=z.copy(), rates=np.zeros(0, dtype=float))

    # -- basic properties ---------------------------------------------

    def __len__(self) -> int:
        return int(self.senders.shape[0])

    def __iter__(self) -> Iterator[Link]:
        for i in range(len(self)):
            yield self.link(i)

    def link(self, i: int) -> Link:
        """The ``i``-th link as a :class:`Link` view."""
        return Link(
            sender=(float(self.senders[i, 0]), float(self.senders[i, 1])),
            receiver=(float(self.receivers[i, 0]), float(self.receivers[i, 1])),
            rate=float(self.rates[i]),
        )

    @property
    def lengths(self) -> np.ndarray:
        """Link lengths ``d_ii``; shape ``(N,)``.  Cached at construction."""
        return self._lengths  # type: ignore[attr-defined]

    @property
    def has_uniform_rates(self) -> bool:
        """True when all rates are equal (RLE's special case)."""
        if len(self) == 0:
            return True
        return bool(np.all(self.rates == self.rates[0]))

    # -- geometry -----------------------------------------------------

    def sender_receiver_distances(self) -> np.ndarray:
        """Distance matrix ``D[i, j] = d(s_i, r_j)``; shape ``(N, N)``.

        ``D[i, i]`` is the length of link ``i``; off-diagonal entries
        are interferer-to-victim distances.
        """
        return cross_distances(self.senders, self.receivers)

    def sender_distances(self) -> np.ndarray:
        """Sender-to-sender distance matrix; shape ``(N, N)``."""
        return cross_distances(self.senders, self.senders)

    def receiver_distances(self) -> np.ndarray:
        """Receiver-to-receiver distance matrix; shape ``(N, N)``."""
        return cross_distances(self.receivers, self.receivers)

    def distance_spread(self) -> float:
        """``Delta``: ratio of max to min distance over all nodes.

        This is the quantity in RLE's ``O(Delta^alpha)`` guarantee from
        the paper's contribution list.
        """
        nodes = np.vstack([self.senders, self.receivers])
        d = cross_distances(nodes, nodes)
        n = nodes.shape[0]
        iu = np.triu_indices(n, k=1)
        vals = d[iu]
        vals = vals[vals > 0]
        if vals.size == 0:
            raise ValueError("distance spread undefined: all nodes coincide")
        return float(vals.max() / vals.min())

    # -- subsetting ---------------------------------------------------

    def subset(self, indices: Sequence[int] | np.ndarray) -> "LinkSet":
        """A new ``LinkSet`` containing links ``indices`` (in order)."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise IndexError(f"indices out of range for {len(self)} links")
        return LinkSet(
            senders=self.senders[idx].copy(),
            receivers=self.receivers[idx].copy(),
            rates=self.rates[idx].copy(),
        )

    def mask(self, keep: np.ndarray) -> "LinkSet":
        """Subset by boolean mask of length ``N``."""
        m = np.asarray(keep, dtype=bool).reshape(-1)
        if m.shape[0] != len(self):
            raise ValueError(f"mask length {m.shape[0]} != {len(self)}")
        return self.subset(np.flatnonzero(m))

    def concat(self, other: "LinkSet") -> "LinkSet":
        """Concatenate two link sets (self's links first)."""
        return LinkSet(
            senders=np.vstack([self.senders, other.senders]),
            receivers=np.vstack([self.receivers, other.receivers]),
            rates=np.concatenate([self.rates, other.rates]),
        )

    def with_rates(self, rates: np.ndarray) -> "LinkSet":
        """Copy of this link set with different rates."""
        return LinkSet(senders=self.senders.copy(), receivers=self.receivers.copy(), rates=rates)

    def total_rate(self, indices: Optional[np.ndarray] = None) -> float:
        """Sum of rates over ``indices`` (or all links)."""
        if indices is None:
            return float(self.rates.sum())
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        return float(self.rates[idx].sum())
