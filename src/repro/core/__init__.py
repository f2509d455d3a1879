"""Core: the Fading-R-LS problem and its scheduling algorithms.

Public surface:

- :class:`repro.core.problem.FadingRLS` — a problem instance (links +
  channel parameters) with interference-factor and feasibility methods,
- :class:`repro.core.schedule.Schedule` — the result type returned by
  every scheduler,
- :func:`repro.core.ldp.ldp_schedule` — Link Diversity Partition
  (Algorithm 1, ``O(g(L))``-approximation),
- :func:`repro.core.rle.rle_schedule` — Recursive Link Elimination
  (Algorithm 2, constant approximation for uniform rates),
- :mod:`repro.core.baselines` — ApproxLogN / ApproxDiversity and naive
  baselines,
- :mod:`repro.core.exact` — brute-force, branch-and-bound, and
  MILP-based optimal solvers,
- :mod:`repro.core.reduction` — the Theorem 3.2 Knapsack reduction,
- :mod:`repro.core.bounds` — the paper's geometric constants and
  approximation-ratio formulas,
- :mod:`repro.core.multislot`, :mod:`repro.core.dls` — the future-work
  extensions (multi-slot covering; decentralised scheduling).
"""

from repro.core.base import SchedulerError, get_scheduler, list_schedulers, register_scheduler
from repro.core.certify import certify
from repro.core.dls import dls_schedule
from repro.core.exact import branch_and_bound_schedule, brute_force_schedule, milp_schedule
from repro.core.incremental import IncrementalScheduler
from repro.core.ldp import ldp_schedule
from repro.core.localsearch import improve_schedule, local_search_schedule
from repro.core.multislot import exact_min_slots, first_fit_multislot, multislot_schedule
from repro.core.problem import FadingRLS
from repro.core.relaxation import lp_upper_bound
from repro.core.rle import rle_schedule
from repro.core.schedule import Schedule

__all__ = [
    "FadingRLS",
    "Schedule",
    "IncrementalScheduler",
    "ldp_schedule",
    "rle_schedule",
    "dls_schedule",
    "multislot_schedule",
    "first_fit_multislot",
    "exact_min_slots",
    "certify",
    "improve_schedule",
    "local_search_schedule",
    "lp_upper_bound",
    "brute_force_schedule",
    "branch_and_bound_schedule",
    "milp_schedule",
    "register_scheduler",
    "get_scheduler",
    "list_schedulers",
    "SchedulerError",
]
