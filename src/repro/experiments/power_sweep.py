"""Channel-law x power-policy sweep over every registered scheduler.

ROADMAP O4's end-state in one driver: *every scheduler runs against
every channel through the same config surface*.  For each cell of the
``channels x policies`` grid, :func:`power_sweep` runs the full
scheduler registry (LDP/RLE/the approximation baselines/the exact
solvers/the protocol-model baselines/...) through
:func:`repro.sim.runner.run_schedulers` with the cell's channel law and
power policy — same workloads, same root seed in every cell, so
differences across cells are paired (channel/policy effects, not
workload noise).

The default grid keeps instances small (``n_links <= 22``) because the
registry includes the exact solvers (``brute_force`` raises above
:data:`repro.core.exact.BRUTE_FORCE_LIMIT` links); the seeded
schedulers (those that take a ``seed``,
:func:`repro.core.base.takes_seed`) get identity-derived seeds so the
whole sweep is deterministic and bit-identical across ``n_jobs``.

CLI: ``python -m repro power-sweep`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.base import get_scheduler, list_schedulers, takes_seed
from repro.core.exact import BRUTE_FORCE_LIMIT
from repro.core.powercontrol import POWER_POLICIES
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.rng import stable_seed
from repro.utils.validation import ValidationError, check_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentConfig
    from repro.sim.runner import RunResult

#: Default channel grid: the paper's law, one milder-fading Nakagami
#: point, one Suzuki composite, and the no-fading physical model.
DEFAULT_CHANNELS: Tuple[str, ...] = (
    "rayleigh",
    "nakagami:m=2",
    "shadowing:sigma_db=6",
    "deterministic",
)

@dataclass(frozen=True)
class PowerSweepCell:
    """One grid cell: all schedulers under one (channel, policy) pair.

    ``channel`` is the canonical law spec; ``results`` maps scheduler
    name to its :class:`~repro.sim.runner.RunResult`.
    """

    channel: str
    power_policy: str
    results: Dict[str, "RunResult"]


def power_sweep(
    config: Optional["ExperimentConfig"] = None,
    *,
    channels: Sequence[str] = DEFAULT_CHANNELS,
    policies: Sequence[str] = POWER_POLICIES,
    schedulers: Optional[Sequence[str]] = None,
    n_links: int = 12,
    n_repetitions: int = 2,
    n_trials: int = 100,
) -> List[PowerSweepCell]:
    """Run the scheduler registry over the channel x power grid.

    Parameters
    ----------
    config:
        Execution/channel-parameter source (alpha, gamma_th, eps, root
        seed, n_jobs, resilience knobs); defaults to
        ``ExperimentConfig()``.  The config's own ``channel`` /
        ``power_policy`` fields are ignored — the grid supplies them.
    channels, policies:
        The grid axes: law specs for
        :func:`repro.channel.laws.get_channel_law` and names from
        :data:`repro.core.powercontrol.POWER_POLICIES`.
    schedulers:
        Scheduler registry names; ``None`` = every registered scheduler.
    n_links:
        Links per workload — capped at
        :data:`~repro.core.exact.BRUTE_FORCE_LIMIT` whenever the grid
        includes the exact solvers.
    n_repetitions, n_trials:
        Workload draws per cell, and Monte-Carlo trials per schedule.

    Returns
    -------
    list of :class:`PowerSweepCell`, channel-major in grid order.
    """
    from repro.channel.laws import get_channel_law
    from repro.experiments.config import ExperimentConfig
    from repro.sim.runner import run_schedulers

    cfg = config or ExperimentConfig()
    names = list(schedulers) if schedulers is not None else list_schedulers()
    check_count(n_links, "n_links")
    if "brute_force" in names and n_links > BRUTE_FORCE_LIMIT:
        raise ValidationError(
            f"n_links={n_links} exceeds BRUTE_FORCE_LIMIT={BRUTE_FORCE_LIMIT} "
            "while the grid includes brute_force; shrink the workload or "
            "pass an explicit scheduler list",
            param="n_links",
        )
    sched_map = {name: get_scheduler(name) for name in names}
    # A seeded scheduler draws fresh OS entropy without a seed; pin it
    # with an identity-derived one so the sweep stays deterministic.
    kwargs_map = {
        name: {"seed": stable_seed("powersweep", name, root=cfg.root_seed)}
        for name, fn in sched_map.items()
        if takes_seed(fn)
    }
    workload = cfg.workload(n_links)
    cells: List[PowerSweepCell] = []
    with span(
        "experiment.power_sweep",
        channels=len(channels),
        policies=len(policies),
        schedulers=len(names),
    ):
        for channel in channels:
            spec = get_channel_law(channel).spec
            for policy_name in policies:
                results = run_schedulers(
                    sched_map,
                    workload,
                    n_repetitions=n_repetitions,
                    n_trials=n_trials,
                    alpha=cfg.alpha_default,
                    gamma_th=cfg.gamma_th,
                    eps=cfg.eps,
                    root_seed=cfg.root_seed,
                    scheduler_kwargs=kwargs_map,
                    n_jobs=cfg.n_jobs,
                    policy=cfg.retry_policy(),
                    checkpoint=cfg.unit_checkpoint(),
                    channel=spec,
                    power_policy=policy_name,
                )
                obs_metrics.inc("powersweep.cells")
                cells.append(
                    PowerSweepCell(
                        channel=spec, power_policy=policy_name, results=results
                    )
                )
    return cells


def format_power_sweep(cells: Sequence[PowerSweepCell]) -> str:
    """Plain-text grid report: one line per (channel, policy, scheduler)."""
    lines = [
        f"{'channel':<34} {'policy':<22} {'scheduler':<18} "
        f"{'failed':>8} {'throughput':>11} {'sched':>6}"
    ]
    for cell in cells:
        for name in sorted(cell.results):
            r = cell.results[name]
            lines.append(
                f"{cell.channel:<34} {cell.power_policy:<22} {name:<18} "
                f"{r.mean_failed:>8.3f} {r.mean_throughput:>11.3f} "
                f"{r.mean_scheduled:>6.1f}"
            )
    return "\n".join(lines)
