"""Schedule result type.

Every scheduler returns a :class:`Schedule`: the chosen active sender
indices plus provenance (algorithm name and diagnostics such as the LDP
class/colour that won, or RLE's elimination counts).  Keeping results in
one type lets the simulator, benchmarks and tests treat all schedulers
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np


@dataclass(frozen=True)
class Schedule:
    """A one-slot schedule: which links transmit simultaneously.

    Attributes
    ----------
    active : (K,) int array
        Sorted indices of the scheduled links within the problem's
        ``LinkSet``.
    algorithm:
        Name of the producing scheduler (e.g. ``"ldp"``).
    diagnostics:
        Free-form per-algorithm metadata; never consumed by the library
        itself, only surfaced in reports.
    """

    active: np.ndarray
    algorithm: str = "unknown"
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Sorted, then adjacent duplicates dropped: np.unique's result,
        # without the numpy.ma import np.unique makes on its first call.
        a = np.sort(np.asarray(self.active, dtype=np.int64).reshape(-1))
        if a.size and a[0] < 0:
            raise ValueError("active indices must be non-negative")
        keep = np.ones(a.size, dtype=bool)
        np.not_equal(a[1:], a[:-1], out=keep[1:])
        a = a[keep]
        a.setflags(write=False)
        object.__setattr__(self, "active", a)

    @property
    def size(self) -> int:
        """Number of scheduled links."""
        return int(self.active.size)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, index: int) -> bool:
        return bool(np.isin(index, self.active))

    def mask(self, n_links: int) -> np.ndarray:
        """Boolean mask of length ``n_links`` with scheduled links True."""
        if self.active.size and self.active.max() >= n_links:
            raise ValueError(
                f"schedule references link {int(self.active.max())} "
                f"but the problem has only {n_links} links"
            )
        m = np.zeros(n_links, dtype=bool)
        m[self.active] = True
        return m

    def with_diagnostics(self, **extra: Any) -> "Schedule":
        """Copy with extra diagnostic entries merged in."""
        d = dict(self.diagnostics)
        d.update(extra)
        return Schedule(active=self.active.copy(), algorithm=self.algorithm, diagnostics=d)

    @classmethod
    def empty(cls, algorithm: str = "unknown") -> "Schedule":
        """The empty schedule."""
        return cls(active=np.zeros(0, dtype=np.int64), algorithm=algorithm)
