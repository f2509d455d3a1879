"""Figure 6: throughput of the fading-resistant algorithms.

- :func:`throughput_vs_links` — Fig. 6(a): throughput as the number of
  links grows;
- :func:`throughput_vs_alpha` — Fig. 6(b): throughput as alpha grows.

Expected shape (paper): RLE >= LDP throughout; both grow with N and
with alpha (larger alpha shrinks LDP's squares and RLE's elimination
radius, so more links fit a slot).

Like Fig. 5, the sweeps run through :func:`repro.sim.runner.run_sweep`
and honour ``config.n_jobs``.
"""

from __future__ import annotations

from repro.core.base import get_scheduler
from repro.experiments.config import FIG6_SCHEDULERS, ExperimentConfig
from repro.experiments.fig5 import SweepSeries, sweep_panel
from repro.obs.trace import span
from repro.sim.runner import SweepPoint
from repro.utils.rng import stable_seed


def _fig6_schedulers():
    return {name: get_scheduler(name) for name in FIG6_SCHEDULERS}


def throughput_vs_links(config: ExperimentConfig | None = None) -> SweepSeries:
    """Fig. 6(a): throughput vs number of links (LDP vs RLE)."""
    cfg = config or ExperimentConfig()
    points = [
        SweepPoint(
            x=float(n),
            workload=cfg.workload(n),
            alpha=cfg.alpha_default,
            root_seed=stable_seed("fig6a", n, root=cfg.root_seed),
        )
        for n in cfg.n_links_sweep
    ]
    with span("experiment.fig6a", points=len(points)):
        return sweep_panel(
            _fig6_schedulers(), points, cfg, x_label="number of links"
        )


def throughput_vs_alpha(config: ExperimentConfig | None = None) -> SweepSeries:
    """Fig. 6(b): throughput vs path loss exponent alpha (LDP vs RLE)."""
    cfg = config or ExperimentConfig()
    points = [
        SweepPoint(
            x=float(alpha),
            workload=cfg.workload(cfg.n_links_fixed),
            alpha=alpha,
            root_seed=stable_seed("fig6b", alpha, root=cfg.root_seed),
        )
        for alpha in cfg.alpha_sweep
    ]
    with span("experiment.fig6b", points=len(points)):
        return sweep_panel(
            _fig6_schedulers(), points, cfg, x_label="path loss exponent alpha"
        )
