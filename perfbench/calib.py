"""Machine-speed reference for the timing metrics.

The benchmark runs on a shared VM whose speed changes from run to run
and within a run, in two ways:

- the CPU gets slower (other tenants on sibling hyperthreads, shared
  caches, clock changes), which stretches CPU time and wall time alike;
- the hypervisor steals the vCPUs for other guests, which stretches wall
  time only.  Steal ranged from 1% to 35% of the demanded CPU time
  between runs a minute apart.

No statistic of the program alone can tell a slow machine from a slow
program, so the timings are scaled to a reference machine state:

- :func:`measure` is the median CPU time (``time.thread_time``, which
  leaves out stolen time) of a fixed kernel that uses only the standard
  library and NumPy, never ``repro``, read while the program is idle.
  ``cpu_speed(measure())`` is the CPU's speed against the reference.
- :func:`ticks` reads the busy and stolen CPU time of the whole VM from
  ``/proc/stat``; :func:`unstolen` is the share of demanded CPU time a
  stretch of time was not stolen.

A CPU duration is multiplied by ``cpu_speed``, a wall duration by
``cpu_speed * unstolen``.  A change to the program moves the scaled
metrics exactly as it moves the raw ones.

The kernel mixes what the workloads spend their time on: sorting tuples
of ints and list building (cache fingerprints, schedulers), JSON and
SHA-256 (HTTP bodies, exact keys) and NumPy element-wise and
random-sampling work on a 200 x 200 array (geometry, Monte-Carlo).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

#: Median kernel CPU time in ms on the reference machine (a 2-vCPU Xeon
#: VM in a quiet period); only the scale of the reported values uses it.
REF_MS = 9.0
REPS = 5

_ROWS = [[(i * 7919 + j * 104729) % 1009 for j in range(200)] for i in range(100)]
_A = np.arange(40000, dtype=np.float64).reshape(200, 200) / 40000.0


def kernel() -> int:
    """One fixed unit of interpreter, JSON, hashing and NumPy work."""
    keys = [(row[0], tuple(sorted(row))) for row in _ROWS]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    blob = json.dumps(keys).encode()
    digest = hashlib.sha256(blob).digest()
    back = json.loads(blob)
    rng = np.random.default_rng(order[0])
    total = 0.0
    for _ in range(4):
        total += float(np.sqrt(_A * _A.T + rng.exponential(size=_A.shape)).sum())
    return len(back) + digest[0] + int(total > 0)


def measure(reps: int = REPS) -> float:
    """Median thread CPU time of ``reps`` kernel runs, in ms."""
    times = []
    for _ in range(reps):
        t = time.thread_time()
        kernel()
        times.append(time.thread_time() - t)
    return statistics.median(times) * 1000.0


def cpu_speed(cal_ms: float) -> float:
    """Factor that scales a CPU duration measured at ``cal_ms`` to the reference."""
    return REF_MS / cal_ms


def ticks():
    """``(busy, stolen)`` clock ticks of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:]]
    return f[0] + f[1] + f[2] + f[5] + f[6], f[7]


def unstolen(before, after) -> float:
    """Share of the CPU time demanded between two :func:`ticks` readings
    that the hypervisor did not steal."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return busy / (busy + stolen) if busy + stolen > 0 else 1.0
