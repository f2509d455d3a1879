"""Declarative workload scenarios: one JSON dict -> one traffic run.

A :class:`WorkloadScenario` is the config-file surface of the workload
subsystem: topology + channel + arrival process + service policy +
stability-sweep knobs, all plain JSON values, round-tripping through
:meth:`~WorkloadScenario.to_dict` / :meth:`~WorkloadScenario.from_dict`.
``repro traffic --config scenario.json`` (and
:func:`run_scenario` programmatically) executes one end-to-end:
simulate the base trajectory, summarise it, and — unless disabled —
sweep the offered load for the empirical stability region.

Example scenario file::

    {
      "name": "paper-12-poisson",
      "topology": "paper", "n_links": 12, "topology_seed": 1,
      "alpha": 3.0, "gamma_th": 1.0, "eps": 0.05,
      "arrivals": {"family": "poisson", "rate": 0.05},
      "scheduler": "rle", "policy": "backlogged",
      "n_slots": 300, "seed": 0,
      "stability": {"factor_lo": 0.1, "factor_hi": 8.0}
    }

Unknown keys anywhere in the dict raise (scenario files are interfaces;
typos must not silently fall back to defaults — same contract as
:func:`repro.workload.generators.arrivals_from_spec`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.base import list_schedulers
from repro.core.problem import FadingRLS
from repro.network.links import LinkSet
from repro.network.topology import TOPOLOGIES, make_topology
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.validation import ValidationError, check_count, check_interval
from repro.workload.analyzers import (
    stability_region,
    summarize_workload,
)
from repro.workload.generators import (
    ArrivalProcess,
    PoissonArrivals,
    arrivals_from_spec,
    spec_of,
)
from repro.workload.queues import POLICIES, simulate_workload

__all__ = ["WorkloadScenario", "run_scenario"]

#: Stability-sweep knobs accepted in the ``stability`` sub-dict, with
#: their defaults (None = derive at run time).
_STABILITY_DEFAULTS: Dict[str, Any] = {
    "factor_lo": 0.1,
    "factor_hi": 8.0,
    "n_grid": 5,
    "max_iter": 8,
    "rel_tol": 0.05,
    "n_slots": None,  # default: the scenario's own n_slots
    "drift_tol": 0.02,
    "backlog_floor": 4.0,
}


@dataclass(frozen=True)
class WorkloadScenario:
    """One declarative traffic experiment (see the module docstring)."""

    name: str = "scenario"
    topology: str = "paper"
    n_links: int = 12
    topology_seed: int = 1
    alpha: float = 3.0
    gamma_th: float = 1.0
    eps: float = 0.05
    noise: float = 0.0
    power: float = 1.0
    arrivals: ArrivalProcess = field(default_factory=PoissonArrivals)
    scheduler: str = "rle"
    scheduler_kwargs: Dict[str, Any] = field(default_factory=dict)
    policy: str = "backlogged"
    n_slots: int = 300
    seed: int = 0
    warmup: int = 0
    max_queue: Optional[int] = None
    #: None disables the stability sweep; a dict overrides
    #: :data:`_STABILITY_DEFAULTS` entries.
    stability: Optional[Dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValidationError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}",
                param="topology",
            )
        if self.policy not in POLICIES:
            raise ValidationError(
                f"unknown policy {self.policy!r}; choose from {POLICIES}",
                param="policy",
            )
        if self.scheduler not in list_schedulers():
            raise ValidationError(
                f"unknown scheduler {self.scheduler!r}; choose from {list_schedulers()}",
                param="scheduler",
            )
        check_count(self.n_links, "n_links")
        check_count(self.n_slots, "n_slots")
        if self.max_queue is not None:
            check_count(self.max_queue, "max_queue")
        check_interval(self.warmup, "warmup", 0, self.n_slots)
        if not isinstance(self.arrivals, ArrivalProcess):
            raise TypeError(
                f"arrivals must be an ArrivalProcess, got "
                f"{type(self.arrivals).__name__}"
            )
        if self.stability is not None:
            unknown = sorted(set(self.stability) - set(_STABILITY_DEFAULTS))
            if unknown:
                raise ValidationError(
                    f"unknown stability option(s) {unknown}; "
                    f"accepted: {sorted(_STABILITY_DEFAULTS)}",
                    param="stability",
                )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadScenario":
        """Build from a plain JSON dict; unknown keys raise."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario key(s) {unknown}; accepted: {sorted(known)}"
            )
        params = dict(data)
        if "arrivals" in params and isinstance(params["arrivals"], dict):
            params["arrivals"] = arrivals_from_spec(params["arrivals"])
        return cls(**params)

    @classmethod
    def from_json(cls, path: str | Path) -> "WorkloadScenario":
        """Load a scenario file."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready round-trip dict (``from_dict(to_dict(s)) == s``)."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = spec_of(value) if f.name == "arrivals" else value
        return out

    # -- execution ------------------------------------------------------

    def build_links(self) -> LinkSet:
        """Materialise the declared topology."""
        return make_topology(self.topology, self.n_links, self.topology_seed)

    def build_problem(self) -> FadingRLS:
        """Materialise the scheduling instance (topology + channel)."""
        return FadingRLS(
            links=self.build_links(),
            alpha=self.alpha,
            gamma_th=self.gamma_th,
            eps=self.eps,
            noise=self.noise,
            power=self.power,
        )

    def stability_options(self) -> Optional[Dict[str, Any]]:
        """The resolved sweep knobs, or None when the sweep is disabled."""
        if self.stability is None:
            return None
        options = dict(_STABILITY_DEFAULTS)
        options.update(self.stability)
        if options["n_slots"] is None:
            options["n_slots"] = self.n_slots
        return options


def run_scenario(
    scenario: WorkloadScenario,
    *,
    n_jobs: Optional[int] = 1,
    cache=None,
) -> Dict[str, Any]:
    """Execute one scenario end-to-end; returns the JSON-ready payload.

    The payload carries the scenario echo (provenance), the base
    trajectory's summary statistics, and — when the scenario enables it
    — the stability-region estimate.  Every random draw derives from
    the scenario's seeds, so the payload is bit-reproducible for any
    ``n_jobs``.  ``cache`` optionally routes the base trajectory's
    per-slot scheduler runs through a
    :class:`~repro.cache.store.ScheduleCache` (its hit/miss statistics
    join the payload; the stability sweep stays uncached — it fans out
    over processes).
    """
    problem = scenario.build_problem()
    with span("workload.scenario", scenario=scenario.name, links=problem.n_links):
        result = simulate_workload(
            problem,
            scenario.arrivals,
            scenario.scheduler,
            n_slots=scenario.n_slots,
            seed=scenario.seed,
            policy=scenario.policy,
            max_queue=scenario.max_queue,
            scheduler_kwargs=scenario.scheduler_kwargs,
            cache=cache,
        )
        stats = summarize_workload(result, warmup=scenario.warmup)
        options = scenario.stability_options()
        estimate = None
        if options is not None:
            sweep_slots = options.pop("n_slots")
            estimate = stability_region(
                problem,
                scenario.arrivals,
                scenario.scheduler,
                n_slots=sweep_slots,
                seed=scenario.seed,
                policy=scenario.policy,
                n_jobs=n_jobs,
                scheduler_kwargs=scenario.scheduler_kwargs,
                **options,
            )
    obs_metrics.inc("workload.scenarios_run")
    payload = {
        "scenario": scenario.to_dict(),
        "stats": stats.to_dict(),
        "stability": None if estimate is None else estimate.to_dict(),
    }
    if cache is not None:
        cache.flush()
        payload["cache"] = cache.stats
    return payload
