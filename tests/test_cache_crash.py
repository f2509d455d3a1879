"""Crash consistency of the two stores that write through
``repro.io.results.write_json_atomic``.

A child process SIGKILLs itself inside the k-th call of ``os.replace``
or ``os.fsync`` made by ``write_json_atomic`` — so the kill lands at a
fixed point of a fixed write, with no timer.

Schedule-cache directory: the child opens a cache directory, inserts
entries, hits one, evicts one and flushes.  Over all k that covers
every entry insert and both of ``flush()``'s writes (the re-written hit
entry and ``_stats.json``).  Reopening the directory must then find no
damaged file, only entries that replay bit-identical to
``rle_schedule`` on their links, and never a leftover ``.*.tmp`` file
read as an entry; ``cache_dir_stats`` counts that file as
``stale_tmp``.

``--resume`` checkpoints: the child runs ``execute_units`` with a
``UnitCheckpoint`` at ``n_jobs=1``.  Over all k that covers every
unit's write.  Reopening the directory must find only entries
bit-identical to the uninterrupted run's result for their key, and a
resumed ``execute_units`` must match the uninterrupted run bit for bit,
serving exactly the surviving entries from the checkpoint.
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
from repro.experiments.config import TopologyWorkload
from repro.experiments.store import UnitCheckpoint, result_to_payload
from repro.network.topology import paper_topology
from repro.obs import metrics as obs_metrics
from repro.sim.parallel import build_units, checkpoint_key, execute_units

#: Writes the child makes: inserts of p0 and p1, then flush()'s
#: re-write of the hit entry p0 and its ``_stats.json``.
N_WRITES = 4

#: The harness both children share: ``hook(module)`` records the file
#: name of each ``module.write_json_atomic`` call in ``writing`` and
#: SIGKILLs the process inside the ``kill_at``-th call of ``os.<target>``
#: (``kill_at = 0`` never kills).
HOOK = r"""
import json, os, signal, sys

directory, target, kill_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
writing = []
calls = 0

def hook(module):
    real_write, real_call = module.write_json_atomic, getattr(os, target)

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

    module.write_json_atomic = write
    setattr(os, target, call)
"""

CHILD = HOOK + r"""
from repro.cache import store
from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology

hook(store)
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


def _run_child(
    directory: Path, target: str, kill_at: int, code: str = CHILD
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, str(directory), target, str(kill_at)],
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
    assert cache_dir_stats(tmp_path)["stale_tmp"] == 0


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
    # The kill leaves exactly its own write's temp file, and stats say so.
    assert len(leftovers) == 1
    assert cache_dir_stats(tmp_path)["stale_tmp"] == 1
    for tmp in leftovers:
        key = tmp.name.split(".")[1]
        if not (tmp_path / f"{key}.json").exists():
            assert key not in reader
    if kill_at <= 2:
        # An insert never reached its rename: the entry is absent.
        assert killed_in[: -len(".json")] not in reader


#: The child's sweep: ``tests/test_store_checkpoint.py``'s grid (two
#: schedulers x two repetitions = four units, so four writes).
CHECKPOINT_CHILD = HOOK + r"""
from repro.core.base import get_scheduler
from repro.experiments import store
from repro.experiments.config import TopologyWorkload
from repro.sim.parallel import build_units, execute_units

hook(store)
units = build_units(
    {"rle": get_scheduler("rle"), "ldp": get_scheduler("ldp")},
    TopologyWorkload(n_links=20),
    n_repetitions=2,
    n_trials=30,
    alpha=3.0,
    gamma_th=1.0,
    eps=0.01,
    root_seed=5,
)
execute_units(units, n_jobs=1, checkpoint=store.UnitCheckpoint(directory))
print(json.dumps({"writes": writing}), flush=True)
"""


def _checkpoint_units():
    """The child's units, built in this process (same grid, same keys)."""
    return build_units(
        {"rle": get_scheduler("rle"), "ldp": get_scheduler("ldp")},
        TopologyWorkload(n_links=20),
        n_repetitions=2,
        n_trials=30,
        alpha=3.0,
        gamma_th=1.0,
        eps=0.01,
        root_seed=5,
    )


def _same_result(a, b) -> bool:
    """Every field equal, floats exactly (the lossless payloads match)."""
    return result_to_payload(a) == result_to_payload(b)


@pytest.fixture(scope="module")
def clean_sweep():
    """``(units, results)`` of the uninterrupted, uncheckpointed run."""
    units = _checkpoint_units()
    return units, execute_units(units)


def test_uninterrupted_checkpoint_child_writes_every_unit(tmp_path, clean_sweep):
    units, clean = clean_sweep
    proc = _run_child(tmp_path, "replace", 0, CHECKPOINT_CHILD)
    assert proc.returncode == 0, proc.stderr
    keys = [checkpoint_key(u) for u in units]
    assert json.loads(proc.stdout)["writes"] == [f"{k}.json" for k in keys]
    ck = UnitCheckpoint(tmp_path)
    assert ck.keys() == sorted(keys)
    assert all(_same_result(ck.get(k), r) for k, r in zip(keys, clean))


@pytest.mark.parametrize("kill_at", range(1, 5))
@pytest.mark.parametrize("target", ["fsync", "replace"])
def test_kill_inside_a_checkpoint_write_then_resume_is_bit_identical(
    tmp_path, target, kill_at, clean_sweep, obs_enabled
):
    units, clean = clean_sweep
    proc = _run_child(tmp_path, target, kill_at, CHECKPOINT_CHILD)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    keys = [checkpoint_key(u) for u in units]
    assert json.loads(proc.stdout)["killed_in"] == f"{keys[kill_at - 1]}.json"
    expected = dict(zip(keys, clean))
    ck = UnitCheckpoint(tmp_path)
    # The units written before the kill survive, bit-identical; the
    # killed write's temp file is there but is never read as an entry.
    assert ck.keys() == sorted(keys[: kill_at - 1])
    assert all(_same_result(ck.get(k), expected[k]) for k in ck.keys())
    assert len(list(tmp_path.glob(".*.tmp"))) == 1
    obs_enabled.reset()
    resumed = execute_units(units, checkpoint=ck)
    assert all(_same_result(a, b) for a, b in zip(resumed, clean))
    counters = obs_metrics.snapshot()["counters"]
    assert counters.get("resilience.units_from_checkpoint", 0) == kill_at - 1
    assert ck.keys() == sorted(keys)
