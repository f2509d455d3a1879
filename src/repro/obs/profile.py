"""Opt-in profiling hooks: cProfile and tracemalloc wrappers.

Spans (:mod:`repro.obs.trace`) answer "how long did each *stage* take";
these hooks answer the next question — "which *functions* inside a slow
stage burn the time, and where does the memory peak".  Both profilers
carry real overhead (cProfile typically 1.3-2x wall time, tracemalloc
more), so they are never enabled by the observability master switch:
every use is an explicit call or the CLI's ``--profile`` flag.

- :func:`profile_call` — run any callable under cProfile and/or
  tracemalloc, returning ``(result, ProfileReport)``;
- :func:`profiled` — the same as a context manager for open-coded
  regions;
- :func:`profile_fading_stream` — drain the fading stream under
  tracemalloc, the direct check of the Monte-Carlo chunk cap.

Profile a runner entry point with :func:`profile_call` directly, e.g.
``profile_call(run_schedulers, schedulers, workload, n_repetitions=1)``.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple


@dataclass
class ProfileReport:
    """Outcome of one profiled region.

    Attributes
    ----------
    wall:
        Wall-clock seconds of the region (always measured).
    stats:
        ``pstats``-formatted text (top functions by cumulative time)
        when cProfile was on, else ``None``.
    peak_bytes:
        tracemalloc peak allocation in bytes when memory profiling was
        on, else ``None``.
    """

    wall: float = 0.0
    stats: Optional[str] = None
    peak_bytes: Optional[int] = None

    def top(self, n: int = 10) -> str:
        """First ``n`` data lines of the cProfile table (header kept)."""
        if self.stats is None:
            return "(cProfile was not enabled)"
        lines = self.stats.splitlines()
        for i, line in enumerate(lines):
            if line.lstrip().startswith("ncalls"):
                return "\n".join(lines[: i + 1 + n])
        return "\n".join(lines[:n])


def _stats_text(profiler: cProfile.Profile, *, sort: str, limit: int) -> str:
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).strip_dirs().sort_stats(sort).print_stats(limit)
    return buf.getvalue()


@contextmanager
def profiled(
    *,
    cpu: bool = True,
    memory: bool = False,
    sort: str = "cumulative",
    limit: int = 40,
) -> Iterator[ProfileReport]:
    """Profile the enclosed block; the yielded report fills in on exit.

    >>> from repro.obs.profile import profiled
    >>> with profiled(memory=True) as report:
    ...     _ = sorted(range(1000))
    >>> report.wall > 0 and report.peak_bytes > 0
    True
    """
    report = ProfileReport()
    profiler = cProfile.Profile() if cpu else None
    mem_started_here = False
    if memory:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
            mem_started_here = True
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        yield report
    finally:
        if profiler is not None:
            profiler.disable()
        report.wall = time.perf_counter() - t0
        if memory:
            _, peak = tracemalloc.get_traced_memory()
            report.peak_bytes = int(peak)
            if mem_started_here:
                tracemalloc.stop()
        if profiler is not None:
            report.stats = _stats_text(profiler, sort=sort, limit=limit)


def profile_call(
    fn: Callable[..., Any],
    *args: Any,
    cpu: bool = True,
    memory: bool = False,
    sort: str = "cumulative",
    limit: int = 40,
    **kwargs: Any,
) -> Tuple[Any, ProfileReport]:
    """Run ``fn(*args, **kwargs)`` under the profilers.

    Returns ``(result, report)``; exceptions from ``fn`` propagate
    (the report is discarded with them).
    """
    with profiled(cpu=cpu, memory=memory, sort=sort, limit=limit) as report:
        result = fn(*args, **kwargs)
    return result, report


def profile_fading_stream(*args: Any, **kwargs: Any) -> Tuple[int, ProfileReport]:
    """Drain :func:`repro.channel.sampling.iter_fading_trials` under tracemalloc.

    Consumes the whole stream (discarding each chunk, exactly like the
    simulator's reduce-and-release loop) and reports the peak
    allocation — the direct way to check the chunk cap.
    Returns ``(n_chunks, report)``.
    """
    from repro.channel.sampling import iter_fading_trials

    def drain() -> int:
        chunks = 0
        for z in iter_fading_trials(*args, **kwargs):
            chunks += 1
            del z
        return chunks

    return profile_call(drain, cpu=False, memory=True)
