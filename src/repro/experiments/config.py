"""Section-V experiment configuration.

The paper's setup: senders uniform in a 500x500 square, link lengths
``U[5, 20]`` in random directions, acceptable error rate 0.01, decoding
threshold 1, unit data rates.  The paper does not print its exact sweep
grids; the defaults here (N in 100..500, alpha in 2.5..4.5 around the
default 3.0) cover the ranges its Figs. 5-6 discuss.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.core.base import get_scheduler
from repro.core.schedule import Schedule
from repro.network.links import LinkSet
from repro.network.topology import paper_topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.store import UnitCheckpoint
    from repro.sim.resilient import RetryPolicy


@dataclass(frozen=True)
class TopologyWorkload:
    """Picklable per-repetition workload factory.

    The figure drivers fan work units out over processes
    (:mod:`repro.sim.parallel`), so the workload callable must survive
    pickling — a frozen dataclass of plain floats does, a closure over
    an :class:`ExperimentConfig` does not.  Calling it draws one
    paper-style topology: ``workload(seed) -> LinkSet``.
    """

    n_links: int
    region_side: float = 500.0
    min_length: float = 5.0
    max_length: float = 20.0
    rate: float = 1.0

    def __call__(self, seed: int) -> LinkSet:
        return paper_topology(
            self.n_links,
            region_side=self.region_side,
            min_length=self.min_length,
            max_length=self.max_length,
            rate=self.rate,
            seed=seed,
        )


def paper_scheduler_set() -> Dict[str, Callable[..., Schedule]]:
    """The four algorithms of Figs. 5: LDP, RLE, ApproxLogN, ApproxDiversity."""
    return {
        "ldp": get_scheduler("ldp"),
        "rle": get_scheduler("rle"),
        "approx_logn": get_scheduler("approx_logn"),
        "approx_diversity": get_scheduler("approx_diversity"),
    }


PAPER_SCHEDULERS: Tuple[str, ...] = ("ldp", "rle", "approx_logn", "approx_diversity")
FIG6_SCHEDULERS: Tuple[str, ...] = ("ldp", "rle")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the figure drivers.

    ``n_links_sweep`` feeds Figs. 5(a)/6(a); ``alpha_sweep`` feeds
    Figs. 5(b)/6(b) (with ``n_links_fixed`` links).  Lower the
    repetition/trial counts for quick runs; the benchmark defaults are
    in each bench file.  Traffic runs are configured by
    :class:`~repro.workload.scenario.WorkloadScenario` alone, not here.

    Execution knob: ``n_jobs`` fans the ``point x rep x scheduler``
    grid out over worker processes (1 = serial, 0 = all CPUs; results
    are bit-identical either way).

    Resilience knobs (``docs/ROBUSTNESS.md``): ``unit_timeout`` and
    ``max_retries`` give the executor a retry policy (both unset = each
    work unit is tried once and its exception propagates), and
    ``resume_dir`` checkpoints each completed work unit so an
    interrupted sweep resumes from where it stopped; a checkpoint adds
    no retries of its own.

    Channel knobs (``docs/CHANNELS.md``): ``channel`` selects the
    fading law every Monte-Carlo replay samples (``rayleigh`` |
    ``nakagami:m=...`` | ``shadowing:sigma_db=...`` | ``deterministic``,
    see :mod:`repro.channel.laws`) and ``power_policy`` the named
    transmit-power policy wrapped around each scheduler run
    (:data:`repro.core.powercontrol.POWER_POLICIES`); set both via
    :meth:`with_channel`.
    """

    region_side: float = 500.0
    min_length: float = 5.0
    max_length: float = 20.0
    gamma_th: float = 1.0
    eps: float = 0.01
    rate: float = 1.0
    alpha_default: float = 3.0
    n_links_fixed: int = 300
    n_links_sweep: Tuple[int, ...] = (100, 200, 300, 400, 500)
    alpha_sweep: Tuple[float, ...] = (2.5, 3.0, 3.5, 4.0, 4.5)
    n_repetitions: int = 10
    n_trials: int = 500
    root_seed: int = 2017
    n_jobs: int = 1
    unit_timeout: Optional[float] = None
    max_retries: Optional[int] = None
    resume_dir: Optional[str] = None
    #: Channel-law spec for Monte-Carlo replays ("rayleigh" is the
    #: paper's channel); set via :meth:`with_channel`, which
    #: canonicalises and validates the spec.
    channel: str = "rayleigh"
    #: Named power policy from
    #: :data:`repro.core.powercontrol.POWER_POLICIES` ("uniform" is the
    #: paper's setting).
    power_policy: str = "uniform"

    def workload(self, n_links: int) -> TopologyWorkload:
        """Per-repetition workload factory for ``n_links`` links.

        Returns a picklable :class:`TopologyWorkload` so the same
        factory serves the serial and process-parallel paths.
        """
        return TopologyWorkload(
            n_links=n_links,
            region_side=self.region_side,
            min_length=self.min_length,
            max_length=self.max_length,
            rate=self.rate,
        )

    def small(self) -> "ExperimentConfig":
        """A fast variant for tests and smoke runs."""
        return replace(
            self,
            n_links_fixed=60,
            n_links_sweep=(30, 60),
            alpha_sweep=(2.5, 3.5),
            n_repetitions=2,
            n_trials=100,
        )

    def with_execution(self, *, n_jobs: Optional[int] = None) -> "ExperimentConfig":
        """Copy with ``n_jobs`` replaced (``None`` keeps it)."""
        return self if n_jobs is None else replace(self, n_jobs=n_jobs)

    def with_channel(
        self,
        *,
        channel: Optional[str] = None,
        power_policy: Optional[str] = None,
    ) -> "ExperimentConfig":
        """Copy with channel/power knobs replaced (unspecified kept).

        ``channel`` is a law spec understood by
        :func:`repro.channel.laws.get_channel_law` (e.g.
        ``"nakagami:m=2"``, ``"shadowing:sigma_db=6"``); it is parsed
        here, so typos fail at configuration time, and stored in
        canonical form.  ``power_policy`` must name a
        :data:`repro.core.powercontrol.POWER_POLICIES` entry.

        >>> cfg = ExperimentConfig().with_channel(channel="shadowing:sigma_db=6")
        >>> cfg.channel
        'shadowing:sigma_db=6,static=false'
        """
        out = self
        if channel is not None:
            from repro.channel.laws import get_channel_law

            out = replace(out, channel=get_channel_law(channel).spec)
        if power_policy is not None:
            from repro.core.powercontrol import POWER_POLICIES

            if power_policy not in POWER_POLICIES:
                raise ValueError(
                    f"unknown power policy {power_policy!r}; choose from "
                    f"{POWER_POLICIES}"
                )
            out = replace(out, power_policy=power_policy)
        return out

    def with_resilience(
        self,
        *,
        unit_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        resume_dir: Optional[str] = None,
    ) -> "ExperimentConfig":
        """Copy with resilience knobs replaced (unspecified ones kept)."""
        out = self
        if unit_timeout is not None:
            out = replace(out, unit_timeout=unit_timeout)
        if max_retries is not None:
            out = replace(out, max_retries=max_retries)
        if resume_dir is not None:
            out = replace(out, resume_dir=str(resume_dir))
        return out

    def retry_policy(self) -> Optional["RetryPolicy"]:
        """The configured :class:`~repro.sim.resilient.RetryPolicy`.

        ``None`` when neither resilience knob is set — the executor then
        tries each work unit once and lets its exception propagate.
        """
        if self.unit_timeout is None and self.max_retries is None:
            return None
        from repro.sim.resilient import RetryPolicy

        kwargs = {}
        if self.unit_timeout is not None:
            kwargs["unit_timeout"] = self.unit_timeout
        if self.max_retries is not None:
            kwargs["max_retries"] = self.max_retries
        return RetryPolicy(**kwargs)

    def unit_checkpoint(self) -> Optional["UnitCheckpoint"]:
        """The configured per-unit checkpoint store, or ``None``."""
        if self.resume_dir is None:
            return None
        from repro.experiments.store import UnitCheckpoint

        return UnitCheckpoint(self.resume_dir)
