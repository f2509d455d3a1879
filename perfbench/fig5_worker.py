"""The fig5-sweep program process.

Reads ``{"warmup": [root_seed, ...], "timed": [root_seed, ...]}`` from
stdin.  Each op is one repetition of the paper's largest Fig. 5(a)
point::

    failed_vs_links(ExperimentConfig(n_links_sweep=(500,), n_repetitions=1,
                                     n_trials=500, root_seed=root_seed))

Prints one JSON line when warm-up is done (``ready``), then, unless
``--probe``, runs the timed ops back to back in blocks of ``--block``
ops and prints one JSON line with per-op start and end times; per block
its span, the :func:`calib.measure` readings before and after it (taken
outside the timed ops) and its :func:`calib.unstolen` share; the CPU
time of the blocks, VmHWM and per-op results.  With ``--spans PATH``
the layer wrappers of :mod:`layers` record the timed ops and the spans
are written to PATH at the end.

Run with ``PYTHONPATH=src`` from the repository root; ``run.py``
spawns it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import calib


def op_result(series):
    """Digest of one op plus the schedules the checker certifies."""
    h = hashlib.sha256()
    schedules = {}
    for name in sorted(series.series):
        for rep in series.series[name][0].per_rep:
            active = [int(i) for i in rep.active_indices]
            schedules.setdefault(name, []).append(active)
            h.update(name.encode())
            h.update(json.dumps(active).encode())
            h.update(repr((rep.n_scheduled, rep.n_trials, rep.mean_failed,
                           rep.mean_throughput, rep.scheduled_rate)).encode())
            h.update(rep.per_link_success.tobytes())
    return {"digest": h.hexdigest(), "ldp": schedules["ldp"], "rle": schedules["rle"]}


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true", help="exit after warm-up")
    parser.add_argument("--spans", default=None, help="trace the timed ops into PATH")
    parser.add_argument("--block", type=int, required=True, help="timed ops per block")
    args = parser.parse_args()
    plan = json.load(sys.stdin)

    rec = None
    if args.spans:
        import layers

        rec = layers.Recorder()
        layers.install(rec)
        rec.enabled = False
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.fig5 import failed_vs_links

    def run_op(root_seed):
        cfg = ExperimentConfig(
            n_links_sweep=(500,), n_repetitions=1, n_trials=500, root_seed=root_seed
        )
        return failed_vs_links(cfg)

    warm = [op_result(run_op(s))["digest"] for s in plan["warmup"]]
    print(json.dumps({"ready": True, "warmup_digests": warm}), flush=True)
    if args.probe:
        return 0

    results, times, errors, blocks = [], [], [], []
    timed = plan["timed"]
    cpu = 0.0
    cal = calib.measure()
    for lo in range(0, len(timed), args.block):
        hi = min(lo + args.block, len(timed))
        if rec is not None:
            rec.enabled = True
        cpu0 = time.process_time()
        ticks0 = calib.ticks()
        t0 = time.monotonic_ns()
        for i in range(lo, hi):
            start = time.monotonic_ns()
            try:
                if rec is None:
                    series = run_op(timed[i])
                else:
                    rec.new_op(i)
                    with rec.span("sim.runner"):
                        series = run_op(timed[i])
            except Exception as exc:  # a failed op is counted, not fatal
                series = None
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            times.append((start, time.monotonic_ns()))
            results.append(series)
        t1 = time.monotonic_ns()
        share = calib.unstolen(ticks0, calib.ticks())
        cpu += time.process_time() - cpu0
        if rec is not None:
            rec.enabled = False
        cal_after = calib.measure()
        blocks.append((lo, hi, t0, t1, cal, cal_after, share))
        cal = cal_after
    if rec is not None:
        rec.dump(args.spans)
    ops = [None if s is None else op_result(s) for s in results]
    print(json.dumps({
        "times_ns": times,
        "blocks": blocks,
        "cpu_s": cpu,
        "peak_rss_kb": peak_rss_kb(),
        "ops": ops,
        "errors": errors,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
