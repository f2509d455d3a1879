"""Per-work-unit checkpoints for resumable sweeps.

:class:`UnitCheckpoint` keeps one :class:`~repro.sim.metrics.SimulationResult`
per key as ``<key>.json`` under one directory, serialised losslessly
(floats survive the JSON round-trip bit-exactly), which is what lets an
interrupted sweep resume from its completed cells (see
``docs/ROBUSTNESS.md``).  Entries are written by
:func:`repro.io.results.write_json_atomic`, so a crash mid-write never
leaves a torn ``<key>.json``, and read by
:func:`repro.io.results.read_json_object`, so a damaged entry reads as
a miss and re-runs instead of crashing the sweep.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.io.results import read_json_object, write_json_atomic
from repro.sim.metrics import SimulationResult

__all__ = [
    "UnitCheckpoint",
    "result_from_payload",
    "result_to_payload",
]

PathLike = Union[str, Path]


#: Version tag of the per-unit checkpoint payload shape.
UNIT_PAYLOAD_SCHEMA = 1

_RESULT_FIELDS = (
    "algorithm",
    "n_scheduled",
    "n_trials",
    "mean_failed",
    "failed_stderr",
    "mean_throughput",
    "throughput_stderr",
    "scheduled_rate",
    "per_link_success",
    "active_indices",
)


def result_to_payload(result: SimulationResult) -> Dict[str, Any]:
    """Lossless JSON payload for one :class:`SimulationResult`.

    Floats are emitted as Python floats — JSON's shortest-round-trip
    repr reproduces the exact IEEE-754 value on load, so a checkpointed
    unit is *bit-identical* to a recomputed one.
    """
    return {
        "schema": UNIT_PAYLOAD_SCHEMA,
        "algorithm": result.algorithm,
        "n_scheduled": int(result.n_scheduled),
        "n_trials": int(result.n_trials),
        "mean_failed": float(result.mean_failed),
        "failed_stderr": float(result.failed_stderr),
        "mean_throughput": float(result.mean_throughput),
        "throughput_stderr": float(result.throughput_stderr),
        "scheduled_rate": float(result.scheduled_rate),
        "per_link_success": [float(x) for x in result.per_link_success],
        "active_indices": [int(x) for x in result.active_indices],
    }


def result_from_payload(payload: Mapping[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_payload`; raises ``ValueError`` on junk."""
    if payload.get("schema") != UNIT_PAYLOAD_SCHEMA:
        raise ValueError(f"unknown unit payload schema: {payload.get('schema')!r}")
    missing = [f for f in _RESULT_FIELDS if f not in payload]
    if missing:
        raise ValueError(f"unit payload missing fields: {missing}")
    return SimulationResult(
        algorithm=str(payload["algorithm"]),
        n_scheduled=int(payload["n_scheduled"]),
        n_trials=int(payload["n_trials"]),
        mean_failed=float(payload["mean_failed"]),
        failed_stderr=float(payload["failed_stderr"]),
        mean_throughput=float(payload["mean_throughput"]),
        throughput_stderr=float(payload["throughput_stderr"]),
        scheduled_rate=float(payload["scheduled_rate"]),
        per_link_success=np.asarray(payload["per_link_success"], dtype=float),
        active_indices=np.asarray(payload["active_indices"], dtype=np.int64),
    )


class UnitCheckpoint:
    """Per-work-unit result persistence for resumable sweeps.

    One :class:`SimulationResult` per key (the executor's content
    hash of the unit's full configuration — see
    :func:`repro.sim.parallel.checkpoint_key`), written through on each
    unit's first success.  Damaged or schema-mismatched entries read as
    misses, so a resumed sweep recomputes exactly the units it cannot
    trust.  The directory is created if missing.
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Filesystem path backing ``key``."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[SimulationResult]:
        """The checkpointed result for ``key``, or ``None``."""
        payload = read_json_object(self.path_for(key))
        if payload is None:
            return None
        try:
            return result_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, key: str, result: SimulationResult) -> None:
        """Persist one unit's result (atomic; safe to interrupt)."""
        write_json_atomic(self.path_for(key), result_to_payload(result))

    def keys(self) -> List[str]:
        """Sorted keys of every checkpointed unit."""
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())
