"""Metrics registry: counters, gauges, histograms.

Three instrument kinds, all keyed by stable dotted names from the
catalogue in ``docs/OBSERVABILITY.md``:

- **counters** (:func:`inc`) — monotonically increasing **integer**
  totals (cells computed, trials simulated, checks run);
- **gauges** (:func:`gauge`) — last-written float values (plus an
  update count);
- **histograms** (:func:`observe`) — distributions of non-negative
  values in power-of-two buckets (integer counts per bucket, exact
  min/max).

Determinism contract
--------------------
Snapshots must be **byte-identical** for every ``n_jobs`` of the
parallel experiment engine, so every aggregation is restricted to
operations that are exact and associative:

- counter values are integers (floats are rejected — integer addition
  is associative, float addition is not);
- histograms store integer bucket counts and exact ``min``/``max``
  (no float running sum, whose value would depend on grouping);
- gauges are last-write-wins in *merge order*, which
  :mod:`repro.sim.parallel` fixes to work-unit submission order.

:func:`snapshot` returns a plain-JSON dict; :func:`snapshot_json`
canonicalises it (sorted keys, no whitespace) so equality can be
asserted on bytes.  :func:`merge` folds worker snapshots into one, and
:func:`merge_into_registry` folds a worker snapshot into this process's
live registry — both obey the same semantics, so serial execution
(every increment lands in the live registry directly) and parallel
execution (per-unit snapshots merged in submission order) produce the
same bytes.
"""

from __future__ import annotations

import json
import math
import operator
import threading
from typing import Any, Dict, Iterable, List, Optional

from repro.obs import state as _state

_lock = threading.Lock()
_counters: Dict[str, int] = {}
_gauges: Dict[str, Dict[str, Any]] = {}
_hists: Dict[str, Dict[str, Any]] = {}


def inc(name: str, value: int = 1) -> None:
    """Add ``value`` to counter ``name`` (no-op when disabled).

    ``value`` must be a non-negative integer (anything accepted by
    ``operator.index``, e.g. NumPy integers) — see the determinism
    contract in the module docstring.
    """
    if not _state.enabled:
        return
    v = operator.index(value)
    if v < 0:
        raise ValueError(f"counter increments must be >= 0, got {value!r}")
    with _lock:
        _counters[name] = _counters.get(name, 0) + v


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (last write wins; no-op when disabled)."""
    if not _state.enabled:
        return
    v = float(value)
    with _lock:
        g = _gauges.get(name)
        if g is None:
            _gauges[name] = {"value": v, "updates": 1}
        else:
            g["value"] = v
            g["updates"] += 1


def _bucket(value: float) -> str:
    """Histogram bucket key: the power-of-two exponent ``e`` with
    ``2^(e-1) < value <= 2^e`` (``"zero"`` for exactly 0)."""
    if value == 0.0:
        return "zero"
    m, e = math.frexp(value)  # value = m * 2^e, m in [0.5, 1)
    if m == 0.5:
        e -= 1
    return str(e)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op when disabled).

    Values must be non-negative (durations, counts, sizes).  Only the
    bucket counts and exact min/max are kept — no running float sum —
    so merged histograms are independent of observation grouping.
    """
    if not _state.enabled:
        return
    v = float(value)
    if not v >= 0.0:  # catches negatives and NaN
        raise ValueError(f"histogram observations must be >= 0, got {value!r}")
    key = _bucket(v)
    with _lock:
        h = _hists.get(name)
        if h is None:
            h = {"count": 0, "min": v, "max": v, "buckets": {}}
            _hists[name] = h
        h["count"] += 1
        h["min"] = min(h["min"], v)
        h["max"] = max(h["max"], v)
        h["buckets"][key] = h["buckets"].get(key, 0) + 1


def snapshot() -> Dict[str, Any]:
    """Deep-copied plain-JSON view of the registry.

    Shape (the JSONL metrics record embeds this verbatim)::

        {"counters":   {name: int},
         "gauges":     {name: {"value": float, "updates": int}},
         "histograms": {name: {"count": int, "min": float,
                               "max": float, "buckets": {exp: int}}}}
    """
    with _lock:
        return {
            "counters": dict(_counters),
            "gauges": {k: dict(v) for k, v in _gauges.items()},
            "histograms": {
                k: {
                    "count": v["count"],
                    "min": v["min"],
                    "max": v["max"],
                    "buckets": dict(v["buckets"]),
                }
                for k, v in _hists.items()
            },
        }


#: Metric-name prefixes excluded from :func:`stable_snapshot`.  The
#: resilience layer's counters (retries, timeouts, pool rebuilds —
#: see ``docs/ROBUSTNESS.md``) describe *execution accidents*, not the
#: computation: a run that hit two worker crashes recovers bit-identical
#: results but legitimately different retry counts, so byte-identity
#: assertions must compare snapshots with these names stripped.  The
#: serving layer's counters (``service.*``) count request traffic, not
#: a computation.
VOLATILE_PREFIXES = ("resilience.", "service.")


def stable_snapshot(snap: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """A snapshot with volatile (execution-dependent) metrics removed.

    Drops every instrument whose name starts with one of
    :data:`VOLATILE_PREFIXES` from all three kinds.  This is the view
    the determinism contract applies to: ``stable_snapshot`` bytes are
    identical across ``n_jobs`` values *and* across fault/retry
    histories, while the raw :func:`snapshot` additionally carries the
    volatile resilience counters.
    """
    s = snapshot() if snap is None else snap

    def keep(name: str) -> bool:
        return not any(name.startswith(p) for p in VOLATILE_PREFIXES)

    return {
        kind: {name: value for name, value in s.get(kind, {}).items() if keep(name)}
        for kind in ("counters", "gauges", "histograms")
    }


def snapshot_json(snap: Optional[Dict[str, Any]] = None) -> str:
    """Canonical JSON bytes of a snapshot (sorted keys, no whitespace).

    Two runs whose metrics agree produce *identical strings* — the
    ``n_jobs``-invariance tests compare exactly this.
    """
    return json.dumps(
        snapshot() if snap is None else snap, sort_keys=True, separators=(",", ":")
    )


def _merge_two(into: Dict[str, Any], snap: Dict[str, Any]) -> None:
    """Fold ``snap`` into ``into`` (both snapshot-shaped), in place."""
    for name, value in snap.get("counters", {}).items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    for name, g in snap.get("gauges", {}).items():
        mine = into["gauges"].get(name)
        if mine is None:
            into["gauges"][name] = dict(g)
        else:
            mine["value"] = g["value"]  # last write (merge order) wins
            mine["updates"] += g["updates"]
    for name, h in snap.get("histograms", {}).items():
        mine = into["histograms"].get(name)
        if mine is None:
            into["histograms"][name] = {
                "count": h["count"],
                "min": h["min"],
                "max": h["max"],
                "buckets": dict(h["buckets"]),
            }
        else:
            mine["count"] += h["count"]
            mine["min"] = min(mine["min"], h["min"])
            mine["max"] = max(mine["max"], h["max"])
            for key, n in h["buckets"].items():
                mine["buckets"][key] = mine["buckets"].get(key, 0) + n


def merge(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold snapshots (in iteration order) into one merged snapshot.

    Counters and histogram buckets add; gauges take the last snapshot's
    value (update counts add); histogram min/max combine.  The fold is
    exact for any grouping of the same underlying events, which is what
    makes worker aggregation ``n_jobs``-invariant.
    """
    out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        _merge_two(out, snap)
    return out


def merge_into_registry(snap: Dict[str, Any]) -> None:
    """Fold one worker snapshot into this process's live registry.

    Used by :mod:`repro.sim.parallel` after each work unit returns; a
    no-op when observability is disabled.
    """
    if not _state.enabled:
        return
    with _lock:
        live = {"counters": _counters, "gauges": _gauges, "histograms": _hists}
        _merge_two(live, snap)


def format_snapshot(snap: Optional[Dict[str, Any]] = None) -> str:
    """Human-readable table of a snapshot (sorted by name)."""
    s = snapshot() if snap is None else snap
    lines: List[str] = []
    for name in sorted(s.get("counters", {})):
        lines.append(f"counter    {name:<40} {s['counters'][name]}")
    for name in sorted(s.get("gauges", {})):
        g = s["gauges"][name]
        lines.append(
            f"gauge      {name:<40} {g['value']:g} ({g['updates']} updates)"
        )
    for name in sorted(s.get("histograms", {})):
        h = s["histograms"][name]
        lines.append(
            f"histogram  {name:<40} count={h['count']} "
            f"min={h['min']:g} max={h['max']:g}"
        )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def reset() -> None:
    """Clear every instrument (tests and worker initialisation)."""
    with _lock:
        _counters.clear()
        _gauges.clear()
        _hists.clear()
