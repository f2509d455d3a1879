"""JSON wire schemas for :mod:`repro.service`.

Parsing lives here — between the transport (:mod:`repro.service.server`)
and the scheduling brain (:mod:`repro.service.broker`) — so both the
HTTP layer and in-process callers (the load generator, tests) speak the
same dialect.  All failures raise
:class:`repro.utils.validation.ValidationError`, whose stable ``code``
the server copies verbatim into the 400 response body; clients match on
codes, never on messages.

A schedule request::

    {"topology": {"senders": [[x, y], ...], "receivers": [[x, y], ...],
                  "rates": [r, ...],             # optional, default 1.0
                  "alpha": 3.0, "gamma_th": 1.0, # optional channel params
                  "eps": 0.01, "noise": 0.0, "power": 1.0},
     "scheduler": "rle",                         # optional
     "tenant": "default"}                        # optional

A session request is either ``{"topology": ..., "scheduler": ...}``
(opens the session and returns the initial schedule) or
``{"delta": {"moves": [i, ...], "new_senders": [[x, y], ...],
"new_receivers": [...], "removes": [...], "inserts": {...}}}``
(streams one :class:`~repro.network.delta.LinkDelta` into the session's
:class:`~repro.core.incremental.IncrementalScheduler`).
"""

from __future__ import annotations

import reprlib
from itertools import chain
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.base import list_schedulers
from repro.core.exact import BRUTE_FORCE_LIMIT
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.network.delta import LinkDelta
from repro.network.links import LinkSet
from repro.utils.validation import ValidationError, require

#: Stable reason codes for request-validation failures (400 responses).
CODE_BAD_JSON = "bad-json"
CODE_BAD_TOPOLOGY = "bad-topology"
CODE_BAD_DELTA = "bad-delta"
CODE_BAD_SESSION_REQUEST = "bad-session-request"
CODE_UNKNOWN_SCHEDULER = "unknown-scheduler"
CODE_TOO_MANY_LINKS = "too-many-links"

#: Hard per-request size cap; a topology larger than this is refused at
#: the door rather than scheduled (rle is O(N^2) — one pathological
#: request must not starve the worker pool).
MAX_LINKS = 4096

#: Lower caps for the schedulers whose cost grows exponentially with the
#: link count.  A worker thread cannot be cancelled, so one large request
#: to one of them would hold a thread, and shutdown, for minutes.
#: ``brute_force``'s is its own guard; the others are the largest sizes
#: whose slowest run over paper topologies with seeds 0-9 stayed under
#: about a second (docs/SERVICE.md, "Error codes").
SCHEDULER_MAX_LINKS: Mapping[str, int] = {
    "brute_force": BRUTE_FORCE_LIMIT,
    "branch_and_bound": 24,
    "milp": 56,
}


#: The types a JSON decoder gives numbers; ``bool`` is an ``int``
#: subclass, so matching types exactly also refuses ``true``/``false``.
_NUMBER_TYPES = frozenset((int, float))
_LIST_TYPES = frozenset((list,))


def _numbers(raw: Any) -> Optional[np.ndarray]:
    """``raw`` as a float array if it is a list of JSON numbers, else ``None``.

    ``np.asarray(raw, dtype=float)`` would also take the strings ``"2.5"``
    and ``" 3 "``, booleans, and nested lists (flattened by a reshape).
    """
    if isinstance(raw, list) and _NUMBER_TYPES.issuperset(map(type, raw)):
        try:
            return np.array(raw, dtype=float)
        except OverflowError:  # an integer no float holds
            pass
    return None


def _pairs(raw: Any) -> Optional[np.ndarray]:
    """``raw`` as an ``(N, 2)`` float array if it is a list of ``[x, y]``
    pairs of JSON numbers, else ``None``."""
    if not (isinstance(raw, list) and _LIST_TYPES.issuperset(map(type, raw))):
        return None
    flat = list(chain.from_iterable(raw))
    # every row has 2 items when the shortest has 2 and they sum to 2N
    if len(flat) != 2 * len(raw) or min(map(len, raw), default=2) != 2:
        return None
    arr = _numbers(flat)
    return None if arr is None else arr.reshape(-1, 2)


def _points(payload: Mapping[str, Any], field: str) -> np.ndarray:
    raw = payload.get(field)
    require(raw is not None, f"topology.{field} is required", code=CODE_BAD_TOPOLOGY)
    arr = _pairs(raw)
    if arr is None or not arr.size or not np.all(np.isfinite(arr)):
        raise ValidationError(
            f"topology.{field} must be a non-empty list of [x, y] pairs of finite numbers",
            code=CODE_BAD_TOPOLOGY,
            param=field,
        )
    return arr


def _is_json_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(payload: Mapping[str, Any], field: str, default: float) -> float:
    raw = payload.get(field, default)
    # JSON numbers only: float() would also take true/false and "3".
    if _is_json_int(raw) or isinstance(raw, float):
        try:
            return float(raw)
        except OverflowError:  # an integer no float holds
            pass
    # reprlib bounds the echo: a request value can be megabytes long, or
    # nested past the recursion limit that repr() would hit.
    raise ValidationError(
        f"topology.{field} must be a number, got {reprlib.repr(raw)}",
        code=CODE_BAD_TOPOLOGY,
        param=field,
    )


def _indices(payload: Mapping[str, Any], field: str) -> np.ndarray:
    raw = payload.get(field, [])
    # JSON integers only: an int64 cast would truncate 0.5 and take true/"1".
    if isinstance(raw, list) and all(_is_json_int(i) for i in raw):
        try:
            return np.asarray(raw, dtype=np.int64)
        except OverflowError:  # an integer no int64 holds
            pass
    raise ValidationError(
        f"delta.{field} must be a list of integers", code=CODE_BAD_DELTA, param=field
    )


def parse_topology(payload: Any) -> FadingRLS:
    """A :class:`FadingRLS` problem from its JSON ``topology`` object."""
    require(
        isinstance(payload, Mapping),
        "topology must be a JSON object",
        code=CODE_BAD_TOPOLOGY,
    )
    senders = _points(payload, "senders")
    receivers = _points(payload, "receivers")
    require(
        senders.shape == receivers.shape,
        f"senders {senders.shape} and receivers {receivers.shape} must match",
        code=CODE_BAD_TOPOLOGY,
    )
    require(
        senders.shape[0] <= MAX_LINKS,
        f"topology has {senders.shape[0]} links; the service caps requests "
        f"at {MAX_LINKS}",
        code=CODE_TOO_MANY_LINKS,
    )
    rates = payload.get("rates")
    if rates is not None:
        rates = _numbers(rates)
        if rates is None:
            raise ValidationError(
                "topology.rates must be a list of numbers",
                code=CODE_BAD_TOPOLOGY,
                param="rates",
            )
    try:
        links = LinkSet(senders=senders, receivers=receivers, rates=rates)
        return FadingRLS(
            links=links,
            alpha=_scalar(payload, "alpha", 3.0),
            gamma_th=_scalar(payload, "gamma_th", 1.0),
            eps=_scalar(payload, "eps", 0.01),
            noise=_scalar(payload, "noise", 0.0),
            power=_scalar(payload, "power", 1.0),
        )
    except ValueError as exc:
        raise topology_error(exc) from None


def topology_error(exc: ValueError) -> ValidationError:
    """``exc`` — a check on the request's links or channel parameters,
    including a scheduler's own domain check — as a ``bad-topology``
    error naming the same parameter."""
    return ValidationError(
        str(exc), code=CODE_BAD_TOPOLOGY, param=getattr(exc, "param", None)
    )


def parse_scheduler(payload: Mapping[str, Any]) -> str:
    """The validated scheduler name from a request payload."""
    name = payload.get("scheduler", "rle")
    available = list_schedulers()
    if name not in available:
        raise ValidationError(
            f"unknown scheduler {reprlib.repr(name)}; available: {available}",
            code=CODE_UNKNOWN_SCHEDULER,
            param="scheduler",
        )
    return name


def check_links(n_links: int, scheduler: str) -> None:
    """Refuse ``n_links`` links for ``scheduler`` past :data:`MAX_LINKS`
    or its :data:`SCHEDULER_MAX_LINKS` cap (400 ``too-many-links``)."""
    cap = min(MAX_LINKS, SCHEDULER_MAX_LINKS.get(scheduler, MAX_LINKS))
    require(
        n_links <= cap,
        f"{n_links} links for {scheduler}; the service caps its requests at {cap}",
        code=CODE_TOO_MANY_LINKS,
    )


def parse_tenant(payload: Mapping[str, Any]) -> str:
    """The tenant label (defaults to ``"default"``)."""
    tenant = payload.get("tenant", "default")
    require(
        isinstance(tenant, str) and 0 < len(tenant) <= 64,
        "tenant must be a non-empty string of at most 64 characters",
        code=CODE_BAD_SESSION_REQUEST,
    )
    return tenant


def parse_schedule_request(payload: Any) -> Tuple[FadingRLS, str, str]:
    """``(problem, scheduler, tenant)`` from a ``POST /v1/schedule`` body."""
    require(
        isinstance(payload, Mapping),
        "request body must be a JSON object",
        code=CODE_BAD_JSON,
    )
    problem = parse_topology(payload.get("topology"))
    scheduler = parse_scheduler(payload)
    check_links(problem.n_links, scheduler)
    return problem, scheduler, parse_tenant(payload)


def parse_delta(payload: Any) -> LinkDelta:
    """A :class:`LinkDelta` from its JSON ``delta`` object."""
    require(
        isinstance(payload, Mapping),
        "delta must be a JSON object",
        code=CODE_BAD_DELTA,
    )
    inserts: Optional[LinkSet] = None
    raw_inserts = payload.get("inserts")
    if raw_inserts is not None:
        require(
            isinstance(raw_inserts, Mapping),
            "delta.inserts must be a JSON object with senders/receivers",
            code=CODE_BAD_DELTA,
        )
        senders = _delta_pairs(raw_inserts, "senders", "inserts.")
        receivers = _delta_pairs(raw_inserts, "receivers", "inserts.")
        require(senders.size > 0, "delta.inserts must add at least one link", code=CODE_BAD_DELTA)
        rates = raw_inserts.get("rates")
        if rates is not None:
            rates = _numbers(rates)
            if rates is None:
                raise ValidationError(
                    "delta.inserts.rates must be a list of numbers",
                    code=CODE_BAD_DELTA,
                    param="inserts.rates",
                )
        try:
            inserts = LinkSet(senders=senders, receivers=receivers, rates=rates)
        except ValueError as exc:
            raise ValidationError(
                f"bad delta.inserts: {exc}", code=CODE_BAD_DELTA
            ) from None
    moves, removes = _indices(payload, "moves"), _indices(payload, "removes")
    new_senders = _delta_pairs(payload, "new_senders")
    new_receivers = _delta_pairs(payload, "new_receivers")
    try:
        return LinkDelta(
            moves=moves,
            new_senders=new_senders,
            new_receivers=new_receivers,
            removes=removes,
            inserts=inserts,
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad delta: {exc}", code=CODE_BAD_DELTA) from None


def _delta_pairs(payload: Mapping[str, Any], field: str, prefix: str = "") -> np.ndarray:
    """The ``[x, y]`` pairs ``payload[field]`` of a delta (default none)."""
    arr = _pairs(payload.get(field, []))
    if arr is None:
        raise ValidationError(
            f"delta.{prefix}{field} must be a list of [x, y] pairs of numbers",
            code=CODE_BAD_DELTA,
            param=prefix + field,
        )
    return arr


def schedule_payload(
    schedule: Schedule,
    n_links: int,
    *,
    trace_id: str,
    tier: str,
    coalesced: bool,
    wall_seconds: float,
) -> Dict[str, Any]:
    """The JSON body of a successful ``POST /v1/schedule`` response to a
    request for ``n_links`` links."""
    return {
        "trace_id": trace_id,
        "algorithm": schedule.algorithm,
        "active": schedule.active.tolist(),
        "n_links": int(n_links),
        "n_active": int(schedule.size),
        "tier": tier,
        "coalesced": bool(coalesced),
        "wall_seconds": round(float(wall_seconds), 6),
    }


def error_payload(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The JSON body of every non-2xx response."""
    body: Dict[str, Any] = {"error": {"code": code, "message": message}}
    body["error"].update({k: v for k, v in extra.items() if v is not None})
    return body
