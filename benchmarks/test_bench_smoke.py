"""Smoke benchmarks: one small figure end-to-end, and a cold start, exported.

``make bench-smoke`` (or ``pytest benchmarks -m smoke``) runs these
with the other smoke benches: a sub-minute Fig. 5(a) sweep through the
full pipeline — topology, schedulers, streaming Monte-Carlo replay,
aggregation — and ``import repro.cli`` in fresh interpreters, recording
their wall times to ``BENCH_RESULTS.json`` so every PR leaves a perf
data point even when the full suite doesn't run.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import pytest

from benchmarks import bench_export
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5 import failed_vs_links


@pytest.mark.smoke
def test_smoke_fig5a_end_to_end():
    cfg = ExperimentConfig().small()
    t0 = time.perf_counter()
    sweep = failed_vs_links(cfg)
    wall = time.perf_counter() - t0

    # The paper's qualitative shape must hold even at smoke scale.
    assert len(sweep.x_values) == len(cfg.n_links_sweep)
    for alg in ("ldp", "rle"):
        assert max(sweep.metric(alg, "mean_failed")) <= 1.0

    bench_export.record(
        "smoke_fig5a",
        wall,
        {
            "n_links_sweep": list(cfg.n_links_sweep),
            "n_repetitions": cfg.n_repetitions,
            "n_trials": cfg.n_trials,
            "n_jobs": cfg.n_jobs,
        },
    )
    print(f"\nsmoke fig5a: {wall:.2f}s")


#: Fresh interpreters timed for ``cold_start`` (after one that writes
#: the bytecode).
COLD_START_RUNS = 5


def _import_cli(*flags: str) -> subprocess.CompletedProcess:
    """``python *flags -c "import repro.cli"`` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(bench_export.REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", "import repro.cli"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=60,
    )


def importtime_self_ms(stderr: str) -> dict:
    """Self milliseconds per top-level package from ``-X importtime``."""
    totals: dict = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line.partition(":")[2].split("|")
        totals[name.strip().split(".")[0]] += int(self_us) / 1000.0
    return {pkg: round(ms, 3) for pkg, ms in sorted(totals.items(), key=lambda kv: -kv[1])}


@pytest.mark.smoke
def test_smoke_cold_start():
    _import_cli()  # writes any missing bytecode
    walls = []
    for _ in range(COLD_START_RUNS):
        t0 = time.perf_counter()
        _import_cli()
        walls.append(time.perf_counter() - t0)
    wall = statistics.median(walls)
    split = importtime_self_ms(_import_cli("-X", "importtime").stderr)

    # Only the ILP solvers import SciPy, when they are called.
    assert "scipy" not in split and "repro" in split

    bench_export.record(
        "cold_start",
        wall,
        {
            "statement": "import repro.cli",
            "runs": COLD_START_RUNS,
            "importtime_self_ms": split,
        },
    )
    print(f"\ncold start: {wall:.3f}s (median of {COLD_START_RUNS})")
