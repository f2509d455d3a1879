"""Figure 5: number of failed transmissions.

- :func:`failed_vs_links` — Fig. 5(a): failures as the number of links
  grows (alpha fixed at the default);
- :func:`failed_vs_alpha` — Fig. 5(b): failures as the path-loss
  exponent grows (link count fixed).

Expected shape (paper): LDP and RLE show ~zero failures; ApproxLogN and
ApproxDiversity fail increasingly with N and decreasingly with alpha.

Both sweeps execute through :func:`repro.sim.runner.run_sweep`, so the
whole ``point x repetition x scheduler`` grid fans out over
``config.n_jobs`` worker processes (1 = serial; results are
bit-identical for every value).  The config's resilience knobs
(``unit_timeout``, ``max_retries``, ``resume_dir``) flow through as
well, so a sweep can survive worker crashes and resume after an
interruption — see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.config import ExperimentConfig, paper_scheduler_set
from repro.obs.trace import span
from repro.sim.runner import RunResult, SweepPoint, run_sweep
from repro.utils.rng import stable_seed


@dataclass(frozen=True)
class SweepSeries:
    """One figure panel: x values and per-algorithm y series."""

    x_label: str
    x_values: Tuple[float, ...]
    series: Dict[str, List[RunResult]]

    def metric(self, algorithm: str, field: str) -> List[float]:
        """Extract one metric across the sweep, e.g. ``metric('ldp',
        'mean_failed')``."""
        return [getattr(r, field) for r in self.series[algorithm]]


def sweep_panel(
    schedulers: Dict[str, object],
    points: Sequence[SweepPoint],
    cfg: ExperimentConfig,
    *,
    x_label: str,
) -> SweepSeries:
    """Run a sweep and package the results as a :class:`SweepSeries`."""
    per_point = run_sweep(
        schedulers,
        points,
        n_repetitions=cfg.n_repetitions,
        n_trials=cfg.n_trials,
        gamma_th=cfg.gamma_th,
        eps=cfg.eps,
        n_jobs=cfg.n_jobs,
        policy=cfg.retry_policy(),
        checkpoint=cfg.unit_checkpoint(),
        channel=cfg.channel,
        power_policy=cfg.power_policy,
    )
    series: Dict[str, List[RunResult]] = {name: [] for name in schedulers}
    for results in per_point:
        for name in schedulers:
            series[name].append(results[name])
    return SweepSeries(
        x_label=x_label,
        x_values=tuple(p.x for p in points),
        series=series,
    )


def failed_vs_links(config: ExperimentConfig | None = None) -> SweepSeries:
    """Fig. 5(a): failed transmissions vs number of links."""
    cfg = config or ExperimentConfig()
    points = [
        SweepPoint(
            x=float(n),
            workload=cfg.workload(n),
            alpha=cfg.alpha_default,
            root_seed=stable_seed("fig5a", n, root=cfg.root_seed),
        )
        for n in cfg.n_links_sweep
    ]
    with span("experiment.fig5a", points=len(points)):
        return sweep_panel(
            paper_scheduler_set(), points, cfg, x_label="number of links"
        )


def failed_vs_alpha(config: ExperimentConfig | None = None) -> SweepSeries:
    """Fig. 5(b): failed transmissions vs path loss exponent alpha."""
    cfg = config or ExperimentConfig()
    points = [
        SweepPoint(
            x=float(alpha),
            workload=cfg.workload(cfg.n_links_fixed),
            alpha=alpha,
            root_seed=stable_seed("fig5b", alpha, root=cfg.root_seed),
        )
        for alpha in cfg.alpha_sweep
    ]
    with span("experiment.fig5b", points=len(points)):
        return sweep_panel(
            paper_scheduler_set(), points, cfg, x_label="path loss exponent alpha"
        )
