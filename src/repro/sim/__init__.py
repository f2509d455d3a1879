"""Monte-Carlo transmission simulator.

Replays schedules through a fading channel to measure what the paper's
Section V measures: failed transmissions and throughput.  The replay
defaults to the paper's Rayleigh law; every entry point takes a
``channel=`` spec selecting any registered
:class:`~repro.channel.laws.ChannelLaw` (``docs/CHANNELS.md``).

- :mod:`repro.sim.montecarlo` — memory-bounded streaming fading trials
  per schedule,
- :mod:`repro.sim.metrics` — the evaluation metrics,
- :mod:`repro.sim.runner` — batched multi-repetition experiment runner,
- :mod:`repro.sim.parallel` — the work units behind the runner
  (identity-derived seeds, one geometry per repetition),
- :mod:`repro.sim.resilient` — the one process-pool executor they run
  through (``n_jobs`` control, and with a retry policy: timeouts,
  deterministic-backoff retry, pool replacement, serial degradation).
"""

from repro.sim.metrics import SimulationResult, summarize_trials
from repro.sim.montecarlo import simulate_schedule
from repro.sim.parallel import (
    WorkUnit,
    available_cpus,
    checkpoint_key,
    execute_units,
    resolve_n_jobs,
    unit_key,
)
from repro.sim.resilient import (
    RetryPolicy,
    UnitExecutionError,
    UnitFailure,
    backoff_delay,
    resilient_map,
)
from repro.sim.runner import RunResult, SweepPoint, run_schedulers, run_sweep

__all__ = [
    "simulate_schedule",
    "SimulationResult",
    "summarize_trials",
    "run_schedulers",
    "run_sweep",
    "SweepPoint",
    "RunResult",
    "WorkUnit",
    "execute_units",
    "resolve_n_jobs",
    "available_cpus",
    "unit_key",
    "checkpoint_key",
    "RetryPolicy",
    "UnitExecutionError",
    "UnitFailure",
    "backoff_delay",
    "resilient_map",
]
