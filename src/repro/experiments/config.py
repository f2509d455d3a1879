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
    in each bench file.

    Execution knobs: ``n_jobs`` fans the ``point x rep x scheduler``
    grid out over worker processes (1 = serial, 0 = all CPUs; results
    are bit-identical either way), and ``mc_max_bytes`` bounds each
    Monte-Carlo replay's peak memory (``None`` = the sampler's default
    128 MiB chunk budget).

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

    Dynamic-network knobs: ``incremental`` routes mobility traces
    through :class:`~repro.core.incremental.IncrementalScheduler`
    instead of per-step from-scratch runs; ``move_threshold``
    sparsifies the emitted deltas (0 = exact geometry) and
    ``quality_bound`` is the engine's from-scratch fallback trigger.
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
    mc_max_bytes: Optional[int] = None
    unit_timeout: Optional[float] = None
    max_retries: Optional[int] = None
    resume_dir: Optional[str] = None
    incremental: bool = False
    move_threshold: float = 0.0
    quality_bound: float = 0.8
    workload_arrival: str = "poisson"
    workload_rate: float = 0.05
    workload_slots: int = 300
    workload_policy: str = "backlogged"
    #: Channel-law spec for Monte-Carlo replays ("rayleigh" is the
    #: paper's channel); set via :meth:`with_channel`, which
    #: canonicalises and validates the spec.
    channel: str = "rayleigh"
    #: Named power policy from
    #: :data:`repro.core.powercontrol.POWER_POLICIES` ("uniform" is the
    #: paper's setting).
    power_policy: str = "uniform"
    #: Schedule-cache knob (``docs/CACHING.md``): ``None`` = off,
    #: ``"memory"`` = in-process only, anything else = a persistence
    #: directory.  Set via :meth:`with_cache`.
    cache: Optional[str] = None
    cache_capacity: int = 256
    cache_policy: str = "repetition_aware"

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

    def with_execution(
        self,
        *,
        n_jobs: Optional[int] = None,
        mc_max_bytes: Optional[int] = None,
    ) -> "ExperimentConfig":
        """Copy with execution knobs replaced (unspecified ones kept)."""
        out = self
        if n_jobs is not None:
            out = replace(out, n_jobs=n_jobs)
        if mc_max_bytes is not None:
            out = replace(out, mc_max_bytes=mc_max_bytes)
        return out

    def with_dynamics(
        self,
        *,
        incremental: Optional[bool] = None,
        move_threshold: Optional[float] = None,
        quality_bound: Optional[float] = None,
    ) -> "ExperimentConfig":
        """Copy with dynamic-network knobs replaced (unspecified kept)."""
        out = self
        if incremental is not None:
            out = replace(out, incremental=incremental)
        if move_threshold is not None:
            if move_threshold < 0:
                raise ValueError("move_threshold must be >= 0")
            out = replace(out, move_threshold=move_threshold)
        if quality_bound is not None:
            if not 0.0 <= quality_bound <= 1.0:
                raise ValueError("quality_bound must be in [0, 1]")
            out = replace(out, quality_bound=quality_bound)
        return out

    def with_workload(
        self,
        *,
        arrival: Optional[str] = None,
        rate: Optional[float] = None,
        slots: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> "ExperimentConfig":
        """Copy with traffic-workload knobs replaced (unspecified kept).

        ``arrival`` names an :data:`repro.workload.generators.ARRIVAL_FAMILIES`
        entry, ``rate`` is the mean offered load in packets/link/slot
        (the family's shape is preserved; its rates are scaled to this
        mean), ``slots`` the horizon and ``policy`` the service policy
        of :func:`repro.workload.queues.simulate_workload`.
        """
        out = self
        if arrival is not None:
            from repro.workload.generators import ARRIVAL_FAMILIES

            if arrival not in ARRIVAL_FAMILIES:
                raise ValueError(
                    f"unknown arrival family {arrival!r}; choose from "
                    f"{sorted(ARRIVAL_FAMILIES)}"
                )
            out = replace(out, workload_arrival=arrival)
        if rate is not None:
            if not rate > 0:
                raise ValueError(f"workload rate must be > 0, got {rate}")
            out = replace(out, workload_rate=rate)
        if slots is not None:
            if slots < 0:
                raise ValueError(f"workload slots must be >= 0, got {slots}")
            out = replace(out, workload_slots=slots)
        if policy is not None:
            from repro.workload.queues import POLICIES

            if policy not in POLICIES:
                raise ValueError(
                    f"unknown workload policy {policy!r}; choose from {POLICIES}"
                )
            out = replace(out, workload_policy=policy)
        return out

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

    def with_cache(
        self,
        *,
        cache: Optional[str] = None,
        capacity: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> "ExperimentConfig":
        """Copy with schedule-cache knobs replaced (unspecified kept).

        ``cache`` is ``"memory"`` for a process-local cache or a
        directory path for a persisted one; ``policy`` must name a
        :data:`repro.cache.policy.CACHE_POLICIES` entry.

        >>> cfg = ExperimentConfig().with_cache(cache="memory", capacity=64)
        >>> (cfg.cache, cfg.cache_capacity)
        ('memory', 64)
        """
        out = self
        if cache is not None:
            out = replace(out, cache=str(cache))
        if capacity is not None:
            if capacity < 1:
                raise ValueError(f"cache capacity must be >= 1, got {capacity}")
            out = replace(out, cache_capacity=capacity)
        if policy is not None:
            from repro.cache.policy import CACHE_POLICIES

            if policy not in CACHE_POLICIES:
                raise ValueError(
                    f"unknown cache policy {policy!r}; choose from {CACHE_POLICIES}"
                )
            out = replace(out, cache_policy=policy)
        return out

    def schedule_cache(self):
        """The configured :class:`~repro.cache.store.ScheduleCache`, or ``None``."""
        if self.cache is None:
            return None
        from repro.cache.store import ScheduleCache

        return ScheduleCache(
            capacity=self.cache_capacity,
            policy=self.cache_policy,
            directory=None if self.cache == "memory" else self.cache,
        )

    def arrival_process(self):
        """The configured arrival generator, scaled to ``workload_rate``.

        Builds the family's default-shaped generator and rescales its
        rates so the long-run mean equals ``workload_rate`` — the
        declarative "family + mean load" surface the CLI and scenario
        configs share.
        """
        from repro.workload.generators import ARRIVAL_FAMILIES

        base = ARRIVAL_FAMILIES[self.workload_arrival]()
        mean = base.mean_rate()
        if not mean > 0:
            raise ValueError(
                f"arrival family {self.workload_arrival!r} has zero base rate"
            )
        return base.scaled(self.workload_rate / mean)

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
