"""Kernel micro-benchmarks for the compute backend.

Times the hot kernels behind ``repro.backend`` (and two neighbours)
at paper-grade sizes and records the results for the regression gate:

- **feasibility** — the O(K^2) gathered verdict kernel vs the legacy
  O(N^2) matvec reduction (``mask @ F``): the tentpole single-core
  speedup target (>= 5x at N=800, K~24);
- **F-build** — the Eq. 17 interference-matrix build, numpy reference
  wall time;
- **distance** — the broadcast ``cross_distances`` kernel under every
  distance matrix vs the ``(N, N, 2)`` einsum form it replaced
  (bit-identical output);
- **submit path** — the serialization probe the executor used to run
  eagerly on every pool submit (now diagnosed lazily, only after a
  pool-surfaced failure): quantifies the removed per-map overhead;
- **RLE fresh** — one ``rle_schedule`` call on a never-seen 200-link
  paper topology, the scheduler work of a ``repro serve`` cache miss
  (its block loop reads the next picks' columns and rows in blocks).

Speedup entries are stamped with the machine's core count; the bench
gate skips cross-machine speedup comparisons (``tools/bench_gate.py``).
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from benchmarks import bench_export
from repro import obs
from repro.backend import kernels
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.geometry.distance import cross_distances
from repro.network.topology import paper_topology
from repro.sim.parallel import build_units
from repro.core.base import get_scheduler
from repro.experiments.config import TopologyWorkload
from repro.obs import metrics as obs_metrics

N_LINKS = 800
K_ACTIVE = 24


def _best_of(fn, repeats=7, inner=20):
    """Best wall time of ``repeats`` batches of ``inner`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _problem():
    return FadingRLS(links=paper_topology(N_LINKS, seed=0), alpha=3.0)


def test_feasibility_kernel_speedup():
    p = _problem()
    f = p.interference_matrix()
    budgets = p.effective_budgets()
    rng = np.random.default_rng(1)
    idx = np.sort(rng.choice(N_LINKS, size=K_ACTIVE, replace=False))
    mask = np.zeros(N_LINKS, dtype=bool)
    mask[idx] = True

    def legacy():
        # The historical reduction: a full-width matvec over all N
        # links, then the budget comparison on the active rows.
        load = mask.astype(float) @ f
        return bool(np.all(load[idx] <= budgets[idx] + 1e-12))

    def gathered():
        return kernels.feasible_verdict(f[np.ix_(idx, idx)], budgets[idx])

    assert legacy() == gathered()
    legacy_s = _best_of(legacy)
    gathered_s = _best_of(gathered)
    speedup = legacy_s / gathered_s
    bench_export.record(
        "kernel_feasibility",
        gathered_s,
        {
            "n_links": N_LINKS,
            "k_active": K_ACTIVE,
            "legacy_matvec_seconds": legacy_s,
            "speedup_vs_matvec": speedup,
        },
    )
    print(
        f"\nfeasibility: matvec {legacy_s * 1e6:.1f}us, gathered "
        f"{gathered_s * 1e6:.1f}us, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"expected >= 5x over the O(N^2) matvec at N={N_LINKS}, K={K_ACTIVE}; "
        f"got {speedup:.2f}x"
    )


def test_fmatrix_build_wall():
    p = _problem()
    d = p.distances()

    def build():
        kernels.fmatrix(d, p.alpha, p.gamma_th)

    numpy_s = _best_of(build, inner=3)
    bench_export.record("kernel_fmatrix_build", numpy_s, {"n_links": N_LINKS})
    print(f"\nF-build: numpy {numpy_s * 1e3:.2f}ms at N={N_LINKS}")


def test_distance_kernel():
    links = paper_topology(N_LINKS, seed=0)
    a, b = links.senders, links.receivers

    def einsum_form():
        diff = a[:, None, :] - b[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def broadcast():
        return cross_distances(a, b)

    assert np.array_equal(broadcast(), einsum_form())
    einsum_s = _best_of(einsum_form, inner=5)
    broadcast_s = _best_of(broadcast, inner=5)
    speedup = einsum_s / broadcast_s
    bench_export.record(
        "kernel_distance",
        broadcast_s,
        {
            "n_links": N_LINKS,
            "einsum_seconds": einsum_s,
            "speedup_vs_einsum": speedup,
        },
    )
    print(
        f"\ndistance: einsum {einsum_s * 1e3:.2f}ms, broadcast "
        f"{broadcast_s * 1e3:.2f}ms, speedup {speedup:.1f}x"
    )
    # Measured ~4x at N=800 on a 2-vCPU x86 VM; the guard only catches a
    # kernel that lost its advantage, the gate tracks the ratio.
    assert speedup >= 1.5


def test_submit_path_probe_overhead_removed():
    """The executor no longer pickles every unit eagerly before submit.

    Replicates the removed eager probe (``pickle.dumps`` of the worker
    function and every work unit, per map call) and records what it
    cost — pure overhead now paid only after a pool-surfaced
    serialization failure, i.e. never on the happy path.
    """
    from repro.sim import parallel, resilient

    # The eager probe is gone from the submit path...
    assert not hasattr(parallel, "_check_picklable")
    # ...and the lazy diagnosis hooks exist in its place.
    assert hasattr(resilient, "_looks_like_pickling_error")
    assert hasattr(resilient, "_raise_pickling_diagnosis")

    units = build_units(
        {"rle": get_scheduler("rle"), "ldp": get_scheduler("ldp")},
        TopologyWorkload(n_links=300),
        n_repetitions=16,
        n_trials=500,
        alpha=3.0,
        gamma_th=1.0,
        eps=0.01,
        root_seed=7,
    )

    def eager_probe():
        pickle.dumps(parallel.execute_unit)
        for u in units:
            pickle.dumps(u)

    probe_s = _best_of(eager_probe, inner=5)
    bench_export.record(
        "parallel_submit_probe",
        probe_s,
        {
            "units": len(units),
            "note": "per-map serialization overhead removed from the "
            "submit path (now a lazy post-failure diagnosis)",
        },
    )
    print(
        f"\nsubmit probe: {probe_s * 1e6:.1f}us of per-map serialization "
        f"removed for {len(units)} units"
    )
    assert probe_s > 0.0


def _rle_call_seconds(links) -> float:
    """Wall time of one RLE call on a fresh instance of ``links``."""
    problem = FadingRLS(links=links)
    t0 = time.perf_counter()
    rle_schedule(problem)
    return time.perf_counter() - t0


def test_rle_fresh():
    topologies = [paper_topology(200, seed=seed) for seed in range(300)]
    picks, cells = [], []
    obs.enable()
    try:
        for links in topologies:
            obs.reset()
            picks.append(rle_schedule(FadingRLS(links=links)).size)
            cells.append(obs_metrics.snapshot()["counters"]["fmatrix.block_cells"])
    finally:
        obs.disable()
        obs.reset()
    # Median over every call of the fastest of three passes per topology.
    passes = [[_rle_call_seconds(links) for links in topologies] for _ in range(3)]
    per_call = float(np.median(np.min(passes, axis=0)))
    large = paper_topology(4096, seed=0)
    large_s = min(_rle_call_seconds(large) for _ in range(5))
    bench_export.record(
        "kernel_rle_fresh",
        per_call,
        {
            "n_links": 200,
            "topologies": len(topologies),
            "mean_picks": float(np.mean(picks)),
            "mean_block_cells": float(np.mean(cells)),
            "n4096_seconds": large_s,
        },
    )
    print(
        f"\nRLE fresh: {per_call * 1e6:.0f}us per 200-link call "
        f"({np.mean(picks):.1f} picks, {np.mean(cells):.0f} F cells), "
        f"{large_s * 1e3:.2f}ms at N=4096"
    )
    # Rows go only to the heads that can be picked, against the links
    # still remaining: fewer cells than one full 200-link row per pick.
    assert np.mean(cells) < np.mean(picks) * 200
