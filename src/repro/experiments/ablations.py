"""Ablation studies (DESIGN.md experiments A1-A4).

Beyond the paper's four figure panels:

- **A1** :func:`ldp_class_ablation` — the paper's one-sided length
  classes vs the two-sided classes of [14];
- **A2** :func:`rle_c2_ablation` — throughput sensitivity to RLE's
  interference-budget split ``c2``;
- **A3** :func:`approximation_quality` — LDP/RLE scheduled rate against
  the exact optimum on small instances (feasible for exact solvers);
- **A4** is runtime scaling and lives entirely in
  ``benchmarks/test_scaling.py`` (pytest-benchmark owns the timing);
- **A5** :func:`channel_robustness` — how each scheduler's Monte-Carlo
  metrics move when the simulated channel departs from the Rayleigh
  law its certificates assume (``docs/CHANNELS.md``).

Every driver takes ``n_jobs`` and fans its repetition grid out through
:func:`repro.sim.resilient.resilient_map` (1 = serial, bit-identical
results for every value) under the keys ``a1/<i>``, ``a2/<i>`` and
``a3/<i>``; an optional ``policy``
(:class:`~repro.sim.resilient.RetryPolicy`) adds timeouts and retries
— see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exact import branch_and_bound_schedule
from repro.core.ldp import ldp_schedule
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.network.topology import exponential_length_topology, paper_topology
from repro.obs.trace import span
from repro.sim.resilient import RetryPolicy, resilient_map
from repro.utils.rng import stable_seed


@dataclass(frozen=True)
class AblationResult:
    """Per-variant mean metric across repetitions."""

    variant: str
    x_values: Tuple[float, ...]
    means: Tuple[float, ...]
    stds: Tuple[float, ...]


def _a1_rep(
    rep: int,
    *,
    n_links: int,
    alpha: float,
    root_seed: int,
    diverse_lengths: bool,
    variants: Tuple[Tuple[str, bool], ...],
) -> Dict[str, float]:
    """One A1 repetition: expected throughput per LDP class variant."""
    seed = stable_seed("a1", rep, root=root_seed)
    if diverse_lengths:
        links = exponential_length_topology(n_links, seed=seed)
    else:
        links = paper_topology(n_links, seed=seed)
    problem = FadingRLS(links=links, alpha=alpha)
    out: Dict[str, float] = {}
    for name, two_sided in variants:
        sched = ldp_schedule(problem, two_sided=two_sided)
        out[name] = float(problem.expected_throughput(sched.active))
    return out


def ldp_class_ablation(
    *,
    n_links: int = 300,
    n_repetitions: int = 10,
    alpha: float = 3.0,
    root_seed: int = 2017,
    diverse_lengths: bool = True,
    n_jobs: Optional[int] = 1,
    policy: Optional[RetryPolicy] = None,
) -> Dict[str, AblationResult]:
    """A1: LDP one-sided vs two-sided classes, expected throughput.

    ``diverse_lengths=True`` uses the exponential-length workload where
    ``g(L)`` is large and the class policy matters; the paper-uniform
    workload has ``g(L) <= 2`` and the variants nearly tie.
    """
    variants = (("one_sided", False), ("two_sided", True))
    worker = partial(
        _a1_rep,
        n_links=n_links,
        alpha=alpha,
        root_seed=root_seed,
        diverse_lengths=diverse_lengths,
        variants=variants,
    )
    with span("experiment.ablation_a1", reps=n_repetitions):
        per_rep = resilient_map(
            worker,
            range(n_repetitions),
            keys=[f"a1/{i}" for i in range(n_repetitions)],
            n_jobs=n_jobs,
            policy=policy,
        )
    out: Dict[str, AblationResult] = {}
    for name, _ in variants:
        arr = np.array([rows[name] for rows in per_rep])
        out[name] = AblationResult(
            variant=name,
            x_values=(float(n_links),),
            means=(float(arr.mean()),),
            stds=(float(arr.std(ddof=1)) if n_repetitions > 1 else 0.0,),
        )
    return out


def _a2_cell(
    cell: Tuple[float, int],
    *,
    n_links: int,
    alpha: float,
    root_seed: int,
) -> float:
    """One A2 cell: RLE expected throughput at one (c2, repetition)."""
    c2, rep = cell
    links = paper_topology(n_links, seed=stable_seed("a2", rep, root=root_seed))
    problem = FadingRLS(links=links, alpha=alpha)
    sched = rle_schedule(problem, c2=c2)
    return float(problem.expected_throughput(sched.active))


def rle_c2_ablation(
    *,
    c2_values: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
    n_links: int = 300,
    n_repetitions: int = 10,
    alpha: float = 3.0,
    root_seed: int = 2017,
    n_jobs: Optional[int] = 1,
    policy: Optional[RetryPolicy] = None,
) -> AblationResult:
    """A2: RLE expected throughput across the ``c2`` budget split."""
    cells = [(float(c2), rep) for c2 in c2_values for rep in range(n_repetitions)]
    worker = partial(_a2_cell, n_links=n_links, alpha=alpha, root_seed=root_seed)
    with span("experiment.ablation_a2", cells=len(cells)):
        values = resilient_map(
            worker,
            cells,
            keys=[f"a2/{i}" for i in range(len(cells))],
            n_jobs=n_jobs,
            policy=policy,
        )
    means: List[float] = []
    stds: List[float] = []
    for i in range(len(c2_values)):
        arr = np.array(values[i * n_repetitions : (i + 1) * n_repetitions])
        means.append(float(arr.mean()))
        stds.append(float(arr.std(ddof=1)) if n_repetitions > 1 else 0.0)
    return AblationResult(
        variant="rle_c2",
        x_values=tuple(float(c) for c in c2_values),
        means=tuple(means),
        stds=tuple(stds),
    )


@dataclass(frozen=True)
class ApproximationQuality:
    """Scheduled rate of each algorithm relative to the exact optimum."""

    n_instances: int
    mean_ratio: Dict[str, float]  # algorithm -> mean(opt_rate / alg_rate)
    worst_ratio: Dict[str, float]
    theoretical_bound: Dict[str, float]


def _a3_instance(
    rep: int,
    *,
    n_links: int,
    alpha: float,
    region_side: float,
    root_seed: int,
) -> Dict[str, Tuple[float, float]]:
    """One A3 instance: (opt/alg ratio, theoretical bound) per algorithm."""
    from repro.core.bounds import ldp_approximation_ratio, rle_approximation_ratio
    from repro.network.diversity import length_diversity

    links = paper_topology(
        n_links, region_side=region_side, seed=stable_seed("a3", rep, root=root_seed)
    )
    problem = FadingRLS(links=links, alpha=alpha)
    opt = problem.scheduled_rate(branch_and_bound_schedule(problem).active)
    out: Dict[str, Tuple[float, float]] = {}
    for name, fn in (("ldp", ldp_schedule), ("rle", rle_schedule)):
        rate = problem.scheduled_rate(fn(problem).active)
        ratio = opt / rate if rate > 0 else float(np.inf)
        if name == "ldp":
            bound = ldp_approximation_ratio(length_diversity(links))
        else:
            bound = rle_approximation_ratio(alpha, problem.eps, problem.gamma_th, 0.5)
        out[name] = (float(ratio), float(bound))
    return out


def approximation_quality(
    *,
    n_links: int = 12,
    n_instances: int = 20,
    alpha: float = 3.0,
    region_side: float = 200.0,
    root_seed: int = 2017,
    n_jobs: Optional[int] = 1,
    policy: Optional[RetryPolicy] = None,
) -> ApproximationQuality:
    """A3: empirical approximation ratios on exactly solvable instances.

    Uses branch-and-bound for the optimum; instances are small and
    geographically tight so the optimum is nontrivial.  Reports
    ``opt / alg`` (1.0 = optimal; the paper guarantees ``<= 16 g(L)``
    for LDP and the Thm 4.4 constant for RLE).  Branch-and-bound
    dominates the runtime, so ``n_jobs`` parallelises per instance.
    """
    worker = partial(
        _a3_instance,
        n_links=n_links,
        alpha=alpha,
        region_side=region_side,
        root_seed=root_seed,
    )
    with span("experiment.ablation_a3", instances=n_instances):
        per_instance = resilient_map(
            worker,
            range(n_instances),
            keys=[f"a3/{i}" for i in range(n_instances)],
            n_jobs=n_jobs,
            policy=policy,
        )
    ratios: Dict[str, List[float]] = {"ldp": [], "rle": []}
    bounds: Dict[str, List[float]] = {"ldp": [], "rle": []}
    for rows in per_instance:
        for name, (ratio, bound) in rows.items():
            ratios[name].append(ratio)
            bounds[name].append(bound)
    return ApproximationQuality(
        n_instances=n_instances,
        mean_ratio={k: float(np.mean(v)) for k, v in ratios.items()},
        worst_ratio={k: float(np.max(v)) for k, v in ratios.items()},
        theoretical_bound={k: float(np.max(v)) for k, v in bounds.items()},
    )


def channel_robustness(
    *,
    channels: Sequence[str] = (
        "rayleigh",
        "nakagami:m=2",
        "nakagami:m=8",
        "shadowing:sigma_db=6",
        "deterministic",
    ),
    n_links: int = 60,
    n_repetitions: int = 5,
    n_trials: int = 200,
    alpha: float = 3.0,
    root_seed: int = 2017,
    n_jobs: Optional[int] = 1,
    policy: Optional[RetryPolicy] = None,
) -> Dict[str, Dict[str, "RunResult"]]:
    """A5: the paper schedulers replayed under every channel law.

    The schedulers (and their Rayleigh/Cor. 3.1 certificates) are held
    fixed; only the Monte-Carlo channel varies, so differences isolate
    how robust each certificate is to the fading model.  Every channel
    shares the same root seed — paired comparison, like the figure
    sweeps.  Returns ``{canonical channel spec: run_schedulers dict}``.
    """
    from repro.channel.laws import get_channel_law
    from repro.experiments.config import ExperimentConfig, paper_scheduler_set
    from repro.sim.runner import RunResult, run_schedulers  # noqa: F401

    cfg = ExperimentConfig()
    out: Dict[str, Dict[str, RunResult]] = {}
    with span("experiment.ablation_channel", channels=len(channels)):
        for spec in channels:
            law = get_channel_law(spec)
            out[law.spec] = run_schedulers(
                paper_scheduler_set(),
                cfg.workload(n_links),
                n_repetitions=n_repetitions,
                n_trials=n_trials,
                alpha=alpha,
                root_seed=root_seed,
                n_jobs=n_jobs,
                policy=policy,
                channel=law.spec,
            )
    return out
