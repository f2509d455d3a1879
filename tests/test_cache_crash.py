"""Crash consistency of a persisted schedule-cache directory.

A child process opens a cache directory, inserts entries, hits one,
evicts one and flushes.  It SIGKILLs itself inside the k-th call of
``os.replace`` or ``os.fsync`` made by ``_atomic_write_json`` — so the
kill lands at a fixed point of a fixed write, with no timer.  Over all
k that covers every entry insert and both of ``flush()``'s writes (the
re-written hit entry and ``_stats.json``).  Reopening the directory
must then find no damaged file, only entries that replay bit-identical
to ``rle_schedule`` on their links, and never a leftover ``.*.tmp``
file read as an entry.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cache.fingerprint import exact_key, scheduler_identity
from repro.cache.store import ScheduleCache, cache_dir_stats
from repro.core.base import get_scheduler
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.network.topology import paper_topology

#: Writes the child makes: inserts of p0 and p1, then flush()'s
#: re-write of the hit entry p0 and its ``_stats.json``.
N_WRITES = 4

CHILD = r"""
import json, os, signal, sys
from repro.cache import store
from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology

directory, target, kill_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
writing = []
real_write, real_call = store._atomic_write_json, getattr(os, target)
calls = 0

def write(path, payload):
    writing.append(path.name)
    real_write(path, payload)

def call(*args, **kwargs):
    global calls
    calls += 1
    if calls == kill_at:
        print(json.dumps({"killed_in": writing[-1]}), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    return real_call(*args, **kwargs)

store._atomic_write_json = write
setattr(os, target, call)
problems = [FadingRLS(links=paper_topology(12, seed=40 + i)) for i in range(2)]
cache = store.ScheduleCache(capacity=2, directory=directory)
cache.schedule(problems[0], "rle")  # write 1: insert p0
cache.schedule(problems[0], "rle")  # exact hit
cache.schedule(problems[1], "rle")  # write 2: insert p1, evicts the loaded entry
cache.flush()  # write 3: p0 re-written with its hit; write 4: _stats.json
print(json.dumps({"writes": writing}), flush=True)
"""


def _problem(i: int) -> FadingRLS:
    return FadingRLS(links=paper_topology(12, seed=40 + i))


def _run_child(directory: Path, target: str, kill_at: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(directory), target, str(kill_at)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _seed_directory(directory: Path) -> str:
    """A clean earlier session: one entry (p2) and its ``_stats.json``."""
    cache = ScheduleCache(capacity=2, directory=directory)
    cache.schedule(_problem(2), "rle")
    cache.flush()
    (key,) = cache.keys()
    return key


def _assert_consistent(directory: Path) -> ScheduleCache:
    stats = cache_dir_stats(directory)
    assert stats["damaged"] == 0
    assert isinstance(stats["counters"], dict)
    reader = ScheduleCache(capacity=16, directory=directory)
    committed = {p.stem for p in directory.glob("*.json") if p.name != "_stats.json"}
    assert set(reader.keys()) == committed
    assert stats["entries"] == len(committed)
    for entry in list(reader._entries.values()):
        alpha, gamma_th, eps, noise, power = entry.params
        problem = FadingRLS(
            links=entry.links, alpha=alpha, gamma_th=gamma_th, eps=eps, noise=noise, power=power
        )
        assert exact_key(problem, entry.scheduler_id) == entry.exact_key
        assert np.array_equal(entry.schedule.active, rle_schedule(problem).active)
        served, tier = reader.schedule(problem, "rle", return_tier=True)
        assert tier == "exact"
        assert served is entry.schedule
    return reader


def _expected_writes():
    sid = scheduler_identity(get_scheduler("rle"), {})
    first, second = (f"{exact_key(_problem(i), sid)}.json" for i in range(2))
    return [first, second, first, "_stats.json"]


def test_uninterrupted_child_makes_the_expected_writes(tmp_path):
    seeded = _seed_directory(tmp_path)
    proc = _run_child(tmp_path, "replace", kill_at=0)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["writes"] == _expected_writes()
    reader = _assert_consistent(tmp_path)
    assert seeded not in reader  # evicted, and its file removed
    assert len(reader) == 2
    assert not list(tmp_path.glob(".*.tmp"))


@pytest.mark.parametrize("kill_at", range(1, N_WRITES + 1))
@pytest.mark.parametrize("target", ["fsync", "replace"])
def test_kill_inside_an_atomic_write_leaves_a_consistent_directory(tmp_path, target, kill_at):
    _seed_directory(tmp_path)
    proc = _run_child(tmp_path, target, kill_at)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    killed_in = json.loads(proc.stdout)["killed_in"]
    assert killed_in == _expected_writes()[kill_at - 1]
    reader = _assert_consistent(tmp_path)
    leftovers = list(tmp_path.glob(".*.tmp"))
    assert leftovers, "the kill should leave the write's temp file behind"
    for tmp in leftovers:
        key = tmp.name.split(".")[1]
        if not (tmp_path / f"{key}.json").exists():
            assert key not in reader
    if kill_at <= 2:
        # An insert never reached its rename: the entry is absent.
        assert killed_in[: -len(".json")] not in reader
