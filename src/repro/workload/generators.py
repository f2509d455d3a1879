"""Stochastic per-link packet-arrival processes.

The workload layer turns the repo's one-shot scheduling experiments
into the traffic-driven setting of "Wireless Network Stability in the
SINR Model" (Ásgeirsson-Halldórsson-Mitra): per-link packet arrivals
over a slotted horizon, served by a scheduler each slot.  This module
supplies the arrival side as declarative, config-constructible
generators:

``poisson``
    Independent Poisson(rate) arrivals per link per slot — the
    memoryless baseline every stability result is stated against.
``onoff``
    A two-state Markov-modulated Poisson process (bursty MMPP): each
    link flips between an *on* state (rate ``rate_on``) and an *off*
    state (rate ``rate_off``) with per-slot transition probabilities.
    Burst lengths are geometric; the long-run mean rate is
    ``duty * rate_on + (1 - duty) * rate_off``.
``diurnal``
    Poisson arrivals whose rate follows a raised-cosine day curve
    between ``base_rate`` and ``peak_rate`` with period ``period``
    slots — the workload shape of daily user traffic.
``spikes``
    Adversarial load: Poisson background at ``base_rate`` plus a
    deterministic burst of ``spike_size`` packets on every link, every
    ``spike_every`` slots — the worst case for drain scheduling
    because the spikes are perfectly synchronised.

Determinism contract
--------------------
``sample(n_links, n_slots, seed)`` is a pure function of the
generator's parameters and its arguments.  Every generator derives one
``numpy`` PCG64 stream from the seed and draws the whole
``(n_slots, n_links)`` trace in a single fixed C-order pass, so traces
are **bit-reproducible** across processes, platforms and ``n_jobs``
values (the golden-trace tests under ``tests/goldens/`` pin the exact
bytes).  Generators are frozen dataclasses of plain floats — picklable
for process fan-out, hashable for caching.

``scaled(factor)`` returns a copy with every rate multiplied by
``factor``; the stability analyzer sweeps this scalar to locate the
divergence threshold (see :mod:`repro.workload.analyzers`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Type

import numpy as np

from repro.utils.rng import as_rng
from repro.utils.validation import check_count, check_positive

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "OnOffArrivals",
    "DiurnalArrivals",
    "SpikeArrivals",
    "ARRIVAL_FAMILIES",
    "arrivals_from_spec",
    "spec_of",
]


def _check_rate(value: float, name: str) -> None:
    check_positive(value, name, strict=False)


def _check_shape(n_links: int, n_slots: int) -> None:
    check_count(n_links, "n_links")
    check_count(n_slots, "n_slots")


class ArrivalProcess:
    """Base protocol: a deterministic packet-arrival trace factory.

    Subclasses are frozen dataclasses whose :meth:`sample` draws a
    ``(n_slots, n_links)`` int64 matrix of per-slot packet counts as a
    pure function of ``(parameters, n_links, n_slots, seed)``.
    """

    #: Registry name; set by each concrete family.
    family: str = "abstract"

    def sample(self, n_links: int, n_slots: int, *, seed: int) -> np.ndarray:
        """Draw the ``(n_slots, n_links)`` int64 packet-count trace."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "ArrivalProcess":
        """A copy with every rate multiplied by ``factor`` (>= 0)."""
        raise NotImplementedError

    def mean_rate(self) -> float:
        """Long-run expected packets per link per slot."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Independent Poisson arrivals at ``rate`` packets/link/slot."""

    rate: float = 0.05
    family = "poisson"

    def __post_init__(self) -> None:
        _check_rate(self.rate, "rate")

    def sample(self, n_links: int, n_slots: int, *, seed: int) -> np.ndarray:
        """One i.i.d. Poisson draw per (slot, link) cell."""
        _check_shape(n_links, n_slots)
        rng = as_rng(seed)
        return rng.poisson(self.rate, size=(n_slots, n_links)).astype(np.int64)

    def scaled(self, factor: float) -> "PoissonArrivals":
        """A copy with ``rate`` multiplied by ``factor``."""
        _check_rate(factor, "factor")
        return replace(self, rate=self.rate * factor)

    def mean_rate(self) -> float:
        """Exactly ``rate``."""
        return self.rate


@dataclass(frozen=True)
class OnOffArrivals(ArrivalProcess):
    """Bursty two-state MMPP: per-link on/off Markov chain x Poisson.

    Each link's state chain starts *off*, flips off->on with
    probability ``p_on`` and on->off with probability ``p_off`` per
    slot, and emits Poisson(``rate_on``) packets while on and
    Poisson(``rate_off``) while off.  The stationary duty cycle is
    ``p_on / (p_on + p_off)`` (0 when both are 0).
    """

    rate_on: float = 0.5
    rate_off: float = 0.0
    p_on: float = 0.1
    p_off: float = 0.3
    family = "onoff"

    def __post_init__(self) -> None:
        _check_rate(self.rate_on, "rate_on")
        _check_rate(self.rate_off, "rate_off")
        for name in ("p_on", "p_off"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")

    @property
    def duty(self) -> float:
        denom = self.p_on + self.p_off
        return self.p_on / denom if denom > 0 else 0.0

    def sample(self, n_links: int, n_slots: int, *, seed: int) -> np.ndarray:
        """Per-link on/off chains, then Poisson counts at the state rate."""
        _check_shape(n_links, n_slots)
        rng = as_rng(seed)
        # Fixed draw order: all state-transition uniforms first, then
        # all Poisson counts — one C-order pass each, so the trace
        # bytes never depend on how the consumer chunks the horizon.
        flips = rng.random(size=(n_slots, n_links))
        on = np.zeros((n_slots, n_links), dtype=bool)
        state = np.zeros(n_links, dtype=bool)
        for t in range(n_slots):
            state = np.where(state, flips[t] >= self.p_off, flips[t] < self.p_on)
            on[t] = state
        lam = np.where(on, self.rate_on, self.rate_off)
        return rng.poisson(lam).astype(np.int64)

    def scaled(self, factor: float) -> "OnOffArrivals":
        """A copy with both state rates multiplied by ``factor``."""
        _check_rate(factor, "factor")
        return replace(
            self, rate_on=self.rate_on * factor, rate_off=self.rate_off * factor
        )

    def mean_rate(self) -> float:
        """Duty-weighted average of the on and off rates."""
        d = self.duty
        return d * self.rate_on + (1.0 - d) * self.rate_off


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Poisson arrivals with a raised-cosine day curve.

    The per-slot rate is
    ``base_rate + (peak_rate - base_rate) * (1 - cos(2 pi t / period)) / 2``
    — it starts at ``base_rate`` (t = 0), peaks at ``peak_rate`` half a
    period later, and averages ``(base_rate + peak_rate) / 2``.
    """

    base_rate: float = 0.02
    peak_rate: float = 0.1
    period: int = 100
    family = "diurnal"

    def __post_init__(self) -> None:
        _check_rate(self.base_rate, "base_rate")
        _check_rate(self.peak_rate, "peak_rate")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    def rate_at(self, t: np.ndarray | int) -> np.ndarray:
        """The modulated rate at slot(s) ``t``."""
        phase = 2.0 * np.pi * np.asarray(t, dtype=float) / self.period
        return self.base_rate + (self.peak_rate - self.base_rate) * 0.5 * (
            1.0 - np.cos(phase)
        )

    def sample(self, n_links: int, n_slots: int, *, seed: int) -> np.ndarray:
        """Poisson draws at the slot-dependent :meth:`rate_at` rate."""
        _check_shape(n_links, n_slots)
        rng = as_rng(seed)
        lam = np.broadcast_to(
            self.rate_at(np.arange(n_slots))[:, None], (n_slots, n_links)
        )
        return rng.poisson(lam).astype(np.int64)

    def scaled(self, factor: float) -> "DiurnalArrivals":
        """A copy with base and peak rates multiplied by ``factor``."""
        _check_rate(factor, "factor")
        return replace(
            self,
            base_rate=self.base_rate * factor,
            peak_rate=self.peak_rate * factor,
        )

    def mean_rate(self) -> float:
        """The raised-cosine average ``(base_rate + peak_rate) / 2``."""
        return 0.5 * (self.base_rate + self.peak_rate)


@dataclass(frozen=True)
class SpikeArrivals(ArrivalProcess):
    """Adversarial synchronised spike train over a Poisson background.

    Every ``spike_every`` slots (at ``t = offset, offset + spike_every,
    ...``) every link receives ``spike_size`` extra packets in the same
    slot — the perfectly correlated burst that maximises instantaneous
    backlog for a given mean rate.  ``spike_size`` is real-valued under
    :meth:`scaled`; the integer part arrives deterministically and the
    fractional remainder as an independent Bernoulli per link.
    """

    base_rate: float = 0.01
    spike_size: float = 3.0
    spike_every: int = 50
    offset: int = 0
    family = "spikes"

    def __post_init__(self) -> None:
        _check_rate(self.base_rate, "base_rate")
        _check_rate(self.spike_size, "spike_size")
        if self.spike_every < 1:
            raise ValueError(f"spike_every must be >= 1, got {self.spike_every}")
        if not 0 <= self.offset < self.spike_every:
            raise ValueError(
                f"offset must be in [0, spike_every), got {self.offset}"
            )

    def sample(self, n_links: int, n_slots: int, *, seed: int) -> np.ndarray:
        """Poisson background plus deterministic spikes every period."""
        _check_shape(n_links, n_slots)
        rng = as_rng(seed)
        out = rng.poisson(self.base_rate, size=(n_slots, n_links)).astype(np.int64)
        whole = int(np.floor(self.spike_size))
        frac = self.spike_size - whole
        spike_slots = np.arange(self.offset, n_slots, self.spike_every)
        if spike_slots.size:
            out[spike_slots] += whole
            if frac > 0.0:
                extra = rng.random(size=(spike_slots.size, n_links)) < frac
                out[spike_slots] += extra.astype(np.int64)
        return out

    def scaled(self, factor: float) -> "SpikeArrivals":
        """A copy with background and spike size multiplied by ``factor``."""
        _check_rate(factor, "factor")
        return replace(
            self,
            base_rate=self.base_rate * factor,
            spike_size=self.spike_size * factor,
        )

    def mean_rate(self) -> float:
        """Background rate plus the amortised per-slot spike mass."""
        return self.base_rate + self.spike_size / self.spike_every


#: Registry: family name -> generator class (declarative-config keys).
ARRIVAL_FAMILIES: Dict[str, Type[ArrivalProcess]] = {
    "poisson": PoissonArrivals,
    "onoff": OnOffArrivals,
    "diurnal": DiurnalArrivals,
    "spikes": SpikeArrivals,
}


def arrivals_from_spec(spec: Dict[str, Any]) -> ArrivalProcess:
    """Build a generator from a declarative spec dict.

    The spec carries a ``family`` key naming the registry entry plus
    that family's constructor parameters, e.g.
    ``{"family": "poisson", "rate": 0.05}``.  Unknown families and
    unknown parameters raise ``ValueError`` (typos in scenario configs
    must not silently fall back to defaults).
    """
    if "family" not in spec:
        raise ValueError(
            f"arrival spec needs a 'family' key; choose from "
            f"{sorted(ARRIVAL_FAMILIES)}"
        )
    family = spec["family"]
    if family not in ARRIVAL_FAMILIES:
        raise ValueError(
            f"unknown arrival family {family!r}; choose from "
            f"{sorted(ARRIVAL_FAMILIES)}"
        )
    cls = ARRIVAL_FAMILIES[family]
    known = {f.name for f in fields(cls)}
    params = {k: v for k, v in spec.items() if k != "family"}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {unknown} for arrival family {family!r}; "
            f"accepted: {sorted(known)}"
        )
    return cls(**params)


def spec_of(process: ArrivalProcess) -> Dict[str, Any]:
    """The declarative spec that reconstructs ``process`` (round-trip)."""
    out: Dict[str, Any] = {"family": process.family}
    for f in fields(process):
        out[f.name] = getattr(process, f.name)
    return out
