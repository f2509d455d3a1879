"""Result serialisation (JSON).

Schedules and experiment sweeps become plain dicts so runs can be
archived, diffed, and post-processed without re-simulation.

The module also holds the one durable JSON writer and the one tolerant
reader behind both on-disk stores, the schedule cache directory
(:mod:`repro.cache.store`) and ``--resume`` checkpoints
(:mod:`repro.experiments.store`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.sim.metrics import SimulationResult

PathLike = Union[str, Path]


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays in diagnostics to JSON-safe values."""
    import numpy as np

    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def schedule_to_dict(
    schedule: Schedule,
    problem: FadingRLS | None = None,
    result: SimulationResult | None = None,
) -> Dict[str, Any]:
    """Serialise a schedule (optionally with verification and simulation)."""
    out: Dict[str, Any] = {
        "algorithm": schedule.algorithm,
        "active": schedule.active.tolist(),
        "size": schedule.size,
        "diagnostics": _jsonable(schedule.diagnostics),
    }
    if problem is not None:
        out["feasible"] = problem.is_feasible(schedule.active)
        out["scheduled_rate"] = problem.scheduled_rate(schedule.active)
        out["expected_throughput"] = problem.expected_throughput(schedule.active)
        out["parameters"] = {
            "alpha": problem.alpha,
            "gamma_th": problem.gamma_th,
            "eps": problem.eps,
            "noise": problem.noise,
        }
    if result is not None:
        out["simulation"] = {
            "n_trials": result.n_trials,
            "mean_failed": result.mean_failed,
            "mean_throughput": result.mean_throughput,
            "failure_rate": result.failure_rate,
        }
    return out


def sweep_to_dict(sweep) -> Dict[str, Any]:
    """Serialise a :class:`~repro.experiments.fig5.SweepSeries`."""
    return {
        "x_label": sweep.x_label,
        "x_values": list(sweep.x_values),
        "series": {
            alg: [
                {
                    "mean_failed": r.mean_failed,
                    "failed_std": r.failed_std,
                    "mean_throughput": r.mean_throughput,
                    "throughput_std": r.throughput_std,
                    "mean_scheduled": r.mean_scheduled,
                }
                for r in results
            ]
            for alg, results in sweep.series.items()
        },
    }


def write_json(payload: Dict[str, Any], path: PathLike) -> None:
    """Write a dict as pretty-printed JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def write_json_atomic(path: PathLike, payload: Dict[str, Any]) -> None:
    """Durable write of :func:`write_json`'s bytes: unique temp file,
    ``fsync``, then ``os.replace``.

    Serialisation happens before the directory is touched, so an
    unserialisable payload raises without disturbing an existing file.
    A crash mid-write leaves only a ``.<stem>.*.tmp`` file, which no
    reader takes for an entry, never a torn ``path``.  The file gets
    ``mkstemp``'s mode, 0600.
    """
    path = Path(path)
    data = json.dumps(payload, indent=2, sort_keys=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_json_object(path: PathLike) -> Optional[Dict[str, Any]]:
    """The JSON object stored at ``path``, or ``None`` when the file is
    missing, unreadable, not JSON (or nested too deeply to parse) or not
    an object.

    Stores read a damaged entry as a miss instead of crashing.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError):  # ValueError: bad JSON or UTF-8
        return None
    return payload if isinstance(payload, dict) else None
