"""``repro.obs`` — zero-dependency observability.

Three pillars, one master switch (see ``docs/OBSERVABILITY.md`` for
the full instrumentation contract):

- **span tracing** (:mod:`repro.obs.trace`) — nested, named, timed
  regions exported as versioned JSONL via :mod:`repro.obs.export`;
- **metrics** (:mod:`repro.obs.metrics`) — integer counters, gauges
  and power-of-two histograms with deterministic snapshot/merge, so
  worker-process metrics aggregate to byte-identical snapshots for
  every ``n_jobs``;
- **profiling hooks** (:mod:`repro.obs.profile`) — explicit cProfile /
  tracemalloc wrappers (never switched on implicitly).

Everything is **off by default** and the disabled path is a guarded
early return, benchmarked at well under 5% of a smoke figure run::

    import repro.obs as obs

    obs.enable()
    run_sweep(...)                            # instrumented internals record
    obs.export.write_trace("run.jsonl", obs.trace.drain_spans(),
                           metrics_snapshot=obs.metrics.snapshot())
    obs.disable()

or, from the CLI: ``python -m repro --trace run.jsonl --metrics
figures --panel fig5a`` then ``python -m repro trace summarize
run.jsonl``.
"""

from repro.obs import export, metrics, profile, trace
from repro.obs.export import (
    SCHEMA,
    TraceData,
    TraceFormatError,
    format_trace_summary,
    read_trace,
    summarize_trace,
    validate_record,
    write_trace,
)
from repro.obs.profile import (
    ProfileReport,
    profile_call,
    profile_fading_stream,
    profiled,
)
from repro.obs.state import disable, enable, is_enabled
from repro.obs.trace import SpanRecord, absorb_spans, drain_spans, peek_spans, span


def reset() -> None:
    """Clear all recorded spans and metrics (the switch is untouched)."""
    trace.reset()
    metrics.reset()


__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "span",
    "SpanRecord",
    "drain_spans",
    "peek_spans",
    "absorb_spans",
    "metrics",
    "trace",
    "export",
    "profile",
    "SCHEMA",
    "TraceData",
    "TraceFormatError",
    "write_trace",
    "read_trace",
    "validate_record",
    "summarize_trace",
    "format_trace_summary",
    "ProfileReport",
    "profiled",
    "profile_call",
    "profile_fading_stream",
]
