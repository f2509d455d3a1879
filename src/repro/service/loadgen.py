"""Deterministic load generator for :mod:`repro.service`.

Open-loop request generation driven by :mod:`repro.workload`'s arrival
families: the per-client request counts per tick come from
``ArrivalProcess.sample(n_links=clients, n_slots=ticks, seed=seed)``,
so a ``(family, clients, ticks, seed)`` tuple pins the entire offered
load bit-for-bit — the same property the workload golden traces rely
on.  Every client releases its tick-``t`` requests at the same instant
(an event barrier), so the ``spikes`` family reproduces the perfectly
correlated burst that admission control exists for.

Accounting is the core invariant: every request ends in exactly one of
``ok`` (2xx), ``rejected_429``, ``rejected_503``, ``other_status``, or
``transport_errors`` — :attr:`LoadReport.unaccounted` must be 0, which
is the "zero dropped-without-429" acceptance criterion.

Every client holds one persistent stdlib-asyncio HTTP connection,
either to a live ``repro serve`` process (``host``/``port``) or to a
:class:`~repro.service.server.ScheduleServer` that serves a given
``broker=`` in process, on an ephemeral port, for the run.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology
from repro.service.broker import ScheduleBroker
from repro.service.server import ScheduleServer
from repro.utils.validation import check_count, check_positive
from repro.workload.generators import arrivals_from_spec

__all__ = ["LoadReport", "build_topology_payload", "raise_nofile_limit", "run_loadgen"]


def raise_nofile_limit(target: int = 8192) -> int:
    """Best-effort bump of ``RLIMIT_NOFILE`` (1k clients need >1k fds).

    Returns the soft limit now in effect; failures (non-POSIX, capped
    hard limit) leave the limit unchanged rather than raising.
    """
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < target:
            wanted = target if hard == resource.RLIM_INFINITY else min(target, hard)
            resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))
            soft = wanted
        return soft
    except (ImportError, ValueError, OSError):  # pragma: no cover - platform caps
        return -1


@dataclass
class LoadReport:
    """Outcome accounting + latency percentiles of one loadgen run."""

    clients: int
    ticks: int
    arrival: str
    seed: int
    sent: int = 0
    ok: int = 0
    rejected_429: int = 0
    rejected_503: int = 0
    other_status: int = 0
    transport_errors: int = 0
    peak_inflight: int = 0
    wall_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list, repr=False)

    @property
    def unaccounted(self) -> int:
        """Requests with no recorded outcome; must be 0."""
        accounted = (
            self.ok
            + self.rejected_429
            + self.rejected_503
            + self.other_status
            + self.transport_errors
        )
        return self.sent - accounted

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        """The ``q``-quantile response latency in milliseconds."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[idx] * 1000.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (counts, percentiles, throughput)."""
        return {
            "clients": self.clients,
            "ticks": self.ticks,
            "arrival": self.arrival,
            "seed": self.seed,
            "sent": self.sent,
            "ok": self.ok,
            "rejected_429": self.rejected_429,
            "rejected_503": self.rejected_503,
            "other_status": self.other_status,
            "transport_errors": self.transport_errors,
            "unaccounted": self.unaccounted,
            "peak_inflight": self.peak_inflight,
            "wall_seconds": round(self.wall_seconds, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": round(self.percentile_ms(0.50), 3),
            "p90_ms": round(self.percentile_ms(0.90), 3),
            "p99_ms": round(self.percentile_ms(0.99), 3),
        }


def build_topology_payload(problem: FadingRLS) -> Dict[str, Any]:
    """The JSON ``topology`` object for ``problem`` (wire format)."""
    links = problem.links
    return {
        "senders": links.senders.tolist(),
        "receivers": links.receivers.tolist(),
        "rates": links.rates.tolist(),
        "alpha": problem.alpha,
        "gamma_th": problem.gamma_th,
        "eps": problem.eps,
        "noise": problem.noise,
        "power": problem.power,
    }


def topology_pool(pool: int, n_links: int, seed: int) -> List[FadingRLS]:
    """``pool`` distinct deterministic problems for the request mix."""
    return [
        FadingRLS(links=paper_topology(n_links, seed=seed * 1000 + i))
        for i in range(pool)
    ]


def request_trace(clients: int, ticks: int, arrival: str, seed: int) -> np.ndarray:
    """Per-(tick, client) request counts from a workload arrival family.

    Tick 0 is clamped to at least one request per client, so a run with
    ``clients=K`` really does put ``K`` requests in flight at once.
    """
    process = arrivals_from_spec({"family": arrival})
    counts = process.sample(clients, ticks, seed=seed)
    counts = counts.copy()
    counts[0] = np.maximum(counts[0], 1)
    return counts


class _HttpClient:
    """One persistent keep-alive connection speaking minimal HTTP/1.1."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout
        )

    async def request(self, raw: bytes) -> int:
        """Send one pre-serialised request; returns the response status.

        The response body is framed by ``Content-Length`` and drained so
        the connection stays usable for the next request.
        """
        assert self._reader is not None and self._writer is not None
        self._writer.write(raw)
        await self._writer.drain()
        head = await asyncio.wait_for(
            self._reader.readuntil(b"\r\n\r\n"), self.timeout
        )
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length:
            await asyncio.wait_for(self._reader.readexactly(length), self.timeout)
        return status

    async def aclose(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


def _serialise_request(host: str, payload: Dict[str, Any]) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST /v1/schedule HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n"
        f"\r\n"
    ).encode() + body


async def run_loadgen(
    *,
    host: Optional[str] = None,
    port: Optional[int] = None,
    broker: Optional[ScheduleBroker] = None,
    clients: int = 100,
    ticks: int = 2,
    arrival: str = "spikes",
    pool: int = 4,
    n_links: int = 12,
    scheduler: str = "rle",
    tenants: int = 1,
    seed: int = 0,
    tick_seconds: float = 0.0,
    timeout: float = 60.0,
) -> LoadReport:
    """Drive a deterministic open-loop load and account every request.

    Exactly one of ``host``/``port`` (a live server) or ``broker`` (served
    in process for the run; the caller still owns and closes it) must be
    given.  Counts and times are checked before any server boots or
    client starts.
    """
    if (broker is None) == (host is None or port is None):
        raise ValueError("pass either host+port or broker, not both")
    check_count(clients, "clients")
    check_count(ticks, "ticks", minimum=1)
    check_count(pool, "pool", minimum=1)
    check_count(tenants, "tenants", minimum=1)
    check_positive(tick_seconds, "tick_seconds", strict=False)
    check_positive(timeout, "timeout")
    counts = request_trace(clients, ticks, arrival, seed)
    problems = topology_pool(pool, n_links, seed)
    report = LoadReport(
        clients=clients, ticks=ticks, arrival=arrival, seed=seed,
        sent=int(counts.sum()),
    )
    server = None
    if broker is not None:
        server = ScheduleServer(broker)
        host, port = await server.start()
    assert host is not None and port is not None
    try:
        return await _drive(
            host, port, report, counts, problems,
            scheduler=scheduler, tenants=tenants, tick_seconds=tick_seconds,
            timeout=timeout,
        )
    finally:
        if server is not None:
            await server.close()


async def _drive(
    host: str,
    port: int,
    report: LoadReport,
    counts: np.ndarray,
    problems: List[FadingRLS],
    *,
    scheduler: str,
    tenants: int,
    tick_seconds: float,
    timeout: float,
) -> LoadReport:
    """Run ``report.clients`` HTTP clients through ``counts``' ticks."""
    clients, ticks, pool = report.clients, report.ticks, len(problems)
    raw_requests = [
        [
            _serialise_request(
                host,
                {
                    "topology": build_topology_payload(problem),
                    "scheduler": scheduler,
                    "tenant": f"tenant-{t}",
                },
            )
            for problem in problems
        ]
        for t in range(tenants)
    ]

    tick_gates = [asyncio.Event() for _ in range(ticks)]
    # Barrier: no tick fires until every client has finished (or failed)
    # its connection attempt.  Without it, early-accepted clients can
    # complete whole request cycles while late ones still sit behind
    # the listen backlog, and measured concurrency plateaus near the
    # backlog instead of reaching ``clients``.
    all_ready = asyncio.Event()
    ready_count = 0

    def _ready() -> None:
        nonlocal ready_count
        ready_count += 1
        if ready_count >= clients:
            all_ready.set()

    if clients == 0:
        all_ready.set()
    inflight = 0

    def _track(delta: int) -> None:
        nonlocal inflight
        inflight += delta
        report.peak_inflight = max(report.peak_inflight, inflight)

    def _bucket(status: int) -> None:
        if 200 <= status < 300:
            report.ok += 1
        elif status == 429:
            report.rejected_429 += 1
        elif status == 503:
            report.rejected_503 += 1
        else:
            report.other_status += 1

    async def _client(c: int) -> None:
        tenant_idx = c % tenants
        planned = int(counts[:, c].sum())
        done = 0
        conn = _HttpClient(host, port, timeout)
        try:
            await conn.connect()
        except (OSError, asyncio.TimeoutError):
            report.transport_errors += planned
            _ready()
            return
        _ready()
        try:
            for t in range(ticks):
                await tick_gates[t].wait()
                for r in range(int(counts[t, c])):
                    pool_idx = (c + t + r) % pool
                    t0 = time.perf_counter()
                    _track(+1)
                    try:
                        _bucket(await conn.request(raw_requests[tenant_idx][pool_idx]))
                        done += 1
                        report.latencies.append(time.perf_counter() - t0)
                    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                        # The connection is unusable; this request and
                        # every remaining planned one count as transport
                        # errors so the accounting invariant still closes.
                        report.transport_errors += planned - done
                        return
                    finally:
                        _track(-1)
        finally:
            await conn.aclose()

    async def _pacer() -> None:
        await all_ready.wait()
        for gate in tick_gates:
            gate.set()
            if tick_seconds > 0:
                await asyncio.sleep(tick_seconds)
            else:
                await asyncio.sleep(0)

    t_start = time.perf_counter()
    tasks = [asyncio.ensure_future(_client(c)) for c in range(clients)]
    pacer = asyncio.ensure_future(_pacer())
    await asyncio.gather(*tasks)
    await pacer
    report.wall_seconds = time.perf_counter() - t_start
    return report
