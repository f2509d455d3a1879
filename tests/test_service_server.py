"""HTTP transport tests: routing, validation codes, error mapping.

Everything runs against a real ``asyncio.start_server`` socket on an
ephemeral port — the same code path ``repro serve`` uses — with a tiny
raw-HTTP client so framing (Content-Length, keep-alive) is exercised,
not mocked.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.base import get_scheduler
from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology
from repro.service import server as server_module
from repro.service.broker import ScheduleBroker
from repro.service.loadgen import build_topology_payload
from repro.service.server import ScheduleServer, _parse_head


def _problem(n=8, seed=3):
    return FadingRLS(links=paper_topology(n, seed=seed))


async def _request(host, port, method, path, payload=None, *, reader_writer=None,
                   close=False):
    """One raw HTTP exchange; returns (status, parsed body, reader/writer)."""
    if reader_writer is None:
        reader, writer = await asyncio.open_connection(host, port)
    else:
        reader, writer = reader_writer
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{'Connection: close' + chr(13) + chr(10) if close else ''}\r\n"
    ).encode()
    writer.write(head + body)
    await writer.drain()
    resp_head = await reader.readuntil(b"\r\n\r\n")
    lines = resp_head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.lower() == "content-length":
            length = int(value)
    resp_body = json.loads(await reader.readexactly(length)) if length else {}
    return status, resp_body, (reader, writer)


def _serve(test_coro_factory, **broker_kwargs):
    """Boot broker+server on an ephemeral port, run the test body, tear down."""

    async def runner():
        broker = ScheduleBroker(inline=True, **broker_kwargs)
        server = ScheduleServer(broker, port=0)
        await broker.start()
        host, port = await server.start()
        try:
            return await test_coro_factory(host, port, broker, server)
        finally:
            await server.close()
            await broker.close(drain=False)

    return asyncio.run(runner())


class TestScheduleEndpoint:
    def test_schedule_matches_direct_run(self):
        problem = _problem()
        direct = get_scheduler("rle")(problem)

        async def body(host, port, broker, server):
            status, resp, rw = await _request(
                host, port, "POST", "/v1/schedule",
                {"topology": build_topology_payload(problem)},
            )
            rw[1].close()
            return status, resp

        status, resp = _serve(body)
        assert status == 200
        assert resp["active"] == [int(i) for i in direct.active]
        assert resp["algorithm"] == direct.algorithm
        assert resp["n_links"] == problem.n_links
        assert resp["tier"] == "miss" and resp["coalesced"] is False
        assert resp["trace_id"].startswith("req-")

    def test_cache_tier_and_keep_alive_reuse(self):
        problem = _problem()

        async def body(host, port, broker, server):
            payload = {"topology": build_topology_payload(problem)}
            _, first, rw = await _request(host, port, "POST", "/v1/schedule", payload)
            # same connection, second request: keep-alive framing works
            _, second, rw = await _request(
                host, port, "POST", "/v1/schedule", payload, reader_writer=rw
            )
            rw[1].close()
            return first, second

        first, second = _serve(body)
        assert first["tier"] == "miss"
        assert second["tier"] == "cache"
        assert second["active"] == first["active"]

    def test_validation_errors_carry_stable_codes(self):
        cases = [
            ({"topology": {"senders": [[0, 0]], "receivers": "bogus"}}, "bad-topology"),
            ({"topology": None}, "bad-topology"),
            ({}, "bad-topology"),
            (
                {
                    "topology": build_topology_payload(_problem(3)),
                    "scheduler": "nope",
                },
                "unknown-scheduler",
            ),
        ]

        async def body(host, port, broker, server):
            out = []
            for payload, _expected in cases:
                status, resp, rw = await _request(
                    host, port, "POST", "/v1/schedule", payload
                )
                rw[1].close()
                out.append((status, resp["error"]["code"]))
            return out

        results = _serve(body)
        for (status, code), (_payload, expected) in zip(results, cases):
            assert status == 400
            assert code == expected

    def test_bad_json_is_400(self):
        async def body(host, port, broker, server):
            reader, writer = await asyncio.open_connection(host, port)
            raw = b"not json"
            writer.write(
                b"POST /v1/schedule HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(raw)}\r\n\r\n".encode()
                + raw
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ")[1])
            writer.close()
            return status

        assert _serve(body) == 400

    def test_rate_limit_maps_to_429(self):
        problem = _problem(5)

        async def body(host, port, broker, server):
            payload = {"topology": build_topology_payload(problem)}
            statuses = []
            for _ in range(3):
                status, resp, rw = await _request(
                    host, port, "POST", "/v1/schedule", payload
                )
                rw[1].close()
                statuses.append((status, resp.get("error", {}).get("code")))
            return statuses

        results = _serve(body, tenant_rate=0.001, tenant_burst=2.0)
        assert [s for s, _ in results] == [200, 200, 429]
        assert results[2][1] == "tenant-rate-exceeded"


class TestSessionsEndpoint:
    def test_open_then_delta(self):
        problem = _problem(10, 7)

        async def body(host, port, broker, server):
            open_status, opened, rw = await _request(
                host, port, "POST", "/v1/sessions/mob-1/delta",
                {"topology": build_topology_payload(problem)},
            )
            delta_status, repaired, rw = await _request(
                host, port, "POST", "/v1/sessions/mob-1/delta",
                {"delta": {"removes": [0, 2]}},
                reader_writer=rw,
            )
            rw[1].close()
            return open_status, opened, delta_status, repaired

        open_status, opened, delta_status, repaired = _serve(body)
        assert open_status == 200 and delta_status == 200
        assert opened["seq"] == 0 and repaired["seq"] == 1
        assert opened["session"] == repaired["session"] == "mob-1"
        from repro.core.incremental import IncrementalScheduler
        from repro.network.delta import LinkDelta

        engine = IncrementalScheduler(problem.links)
        engine.schedule()
        expected = engine.step(LinkDelta(removes=np.array([0, 2])))
        assert repaired["active"] == [int(i) for i in expected.active]
        assert repaired["mode"] == expected.diagnostics.get("mode")

    def test_session_error_statuses(self):
        problem = _problem(5, 2)

        async def body(host, port, broker, server):
            out = {}
            status, resp, rw = await _request(
                host, port, "POST", "/v1/sessions/ghost/delta",
                {"delta": {"removes": [0]}},
            )
            out["unknown"] = (status, resp["error"]["code"])
            topo = {"topology": build_topology_payload(problem)}
            _, _, rw = await _request(
                host, port, "POST", "/v1/sessions/dup/delta", topo, reader_writer=rw
            )
            status, resp, rw = await _request(
                host, port, "POST", "/v1/sessions/dup/delta", topo, reader_writer=rw
            )
            out["exists"] = (status, resp["error"]["code"])
            status, resp, rw = await _request(
                host, port, "POST", "/v1/sessions/x/delta",
                {"topology": build_topology_payload(problem), "delta": {}},
                reader_writer=rw,
            )
            out["both"] = (status, resp["error"]["code"])
            status, resp, rw = await _request(
                host, port, "POST", "/v1/sessions/dup/delta",
                {"delta": {"moves": "zap"}},
                reader_writer=rw,
            )
            out["bad_delta"] = (status, resp["error"]["code"])
            rw[1].close()
            return out

        out = _serve(body)
        assert out["unknown"] == (404, "unknown-session")
        assert out["exists"] == (409, "session-exists")
        assert out["both"] == (400, "bad-session-request")
        assert out["bad_delta"] == (400, "bad-delta")


class TestIntrospectionEndpoints:
    def test_healthz_and_statz(self):
        problem = _problem(6)

        async def body(host, port, broker, server):
            status_h, health, rw = await _request(host, port, "GET", "/v1/healthz")
            await _request(
                host, port, "POST", "/v1/schedule",
                {"topology": build_topology_payload(problem)}, reader_writer=rw,
            )
            status_s, statz, rw = await _request(
                host, port, "GET", "/v1/statz", reader_writer=rw
            )
            rw[1].close()
            return status_h, health, status_s, statz

        status_h, health, status_s, statz = _serve(body)
        assert status_h == 200 and health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert status_s == 200
        assert statz["broker"]["requests"] == 1
        assert statz["broker"]["scheduled"] == 1
        assert statz["broker"]["cache"]["entries"] == 1

    def test_unknown_route_and_method(self):
        async def body(host, port, broker, server):
            s404, r404, rw = await _request(host, port, "GET", "/v1/nope")
            s405, r405, rw = await _request(
                host, port, "GET", "/v1/schedule", reader_writer=rw
            )
            s405b, _, rw = await _request(
                host, port, "POST", "/v1/healthz", {}, reader_writer=rw
            )
            rw[1].close()
            return (s404, r404["error"]["code"]), s405, s405b

        (s404, code), s405, s405b = _serve(body)
        assert (s404, code) == (404, "unknown-route")
        assert s405 == 405 and s405b == 405

    def test_oversized_body_is_413(self):
        async def body(host, port, broker, server):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /v1/schedule HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 999999999\r\n\r\n"
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            writer.close()
            return int(head.split(b" ")[1])

        assert _serve(body) == 413

    def test_connection_close_honoured(self):
        async def body(host, port, broker, server):
            status, _, (reader, writer) = await _request(
                host, port, "GET", "/v1/healthz", close=True
            )
            eof = await reader.read(1)  # server closes after the response
            writer.close()
            return status, eof

        status, eof = _serve(body)
        assert status == 200 and eof == b""

    def test_access_log_lines(self):
        lines = []

        async def runner():
            broker = ScheduleBroker(inline=True)
            server = ScheduleServer(broker, port=0, access_log=lines.append)
            await broker.start()
            host, port = await server.start()
            try:
                _, _, rw = await _request(host, port, "GET", "/v1/healthz")
                rw[1].close()
            finally:
                await server.close()
                await broker.close(drain=False)

        asyncio.run(runner())
        assert len(lines) == 1
        assert lines[0].startswith("GET /v1/healthz 200 ")


async def _busy_connection(server, timeout=5.0):
    """Wait until the server holds a connection mid-request."""
    deadline = asyncio.get_running_loop().time() + timeout
    while server._idle or not server._handlers:
        assert asyncio.get_running_loop().time() < deadline, "no busy connection"
        await asyncio.sleep(0.01)


class TestShutdown:
    def test_close_ends_idle_keep_alive_connections(self):
        """close() returns with every connection handler finished."""

        async def runner():
            broker = ScheduleBroker(inline=True)
            server = ScheduleServer(broker, port=0)
            await broker.start()
            host, port = await server.start()
            _, _, (reader, writer) = await _request(host, port, "GET", "/v1/healthz")
            handlers = set(server._handlers)
            assert handlers
            # well inside the default grace: idle connections close at once
            await asyncio.wait_for(server.close(), timeout=2.0)
            await broker.close(drain=False)
            eof = await reader.read(1)
            writer.close()
            return handlers, eof

        handlers, eof = asyncio.run(runner())
        assert all(t.done() and not t.cancelled() for t in handlers)
        assert eof == b""

    def test_close_answers_an_in_flight_request_first(self):
        """A request mid-dispatch gets its response, marked Connection: close."""

        async def runner():
            broker = ScheduleBroker(inline=True)
            server = ScheduleServer(broker, port=0)
            await broker.start()
            host, port = await server.start()
            release = asyncio.Event()
            dispatch = server._dispatch

            async def held_dispatch(method, path, body):
                await release.wait()
                return await dispatch(method, path, body)

            server._dispatch = held_dispatch
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            await _busy_connection(server)
            closing = asyncio.ensure_future(server.close())
            await asyncio.sleep(0.05)
            still_open = not closing.done()
            release.set()
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
            await reader.readexactly(length)
            eof = await reader.read(1)
            await asyncio.wait_for(closing, timeout=10.0)
            await broker.close(drain=False)
            writer.close()
            return still_open, head, eof

        still_open, head, eof = asyncio.run(runner())
        assert still_open
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in head
        assert eof == b""

    def test_close_aborts_a_stalled_request_after_the_grace(self, monkeypatch):
        """A client that never finishes its body cannot hold close() up."""
        monkeypatch.setattr(server_module, "CLOSE_GRACE_SECONDS", 0.2)

        async def runner():
            broker = ScheduleBroker(inline=True)
            server = ScheduleServer(broker, port=0)
            await broker.start()
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /v1/schedule HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100\r\n\r\n{"
            )
            await writer.drain()
            await _busy_connection(server)
            handlers = set(server._handlers)
            await asyncio.wait_for(server.close(), timeout=10.0)
            await broker.close(drain=False)
            writer.close()
            return handlers

        handlers = asyncio.run(runner())
        assert all(t.done() and not t.cancelled() for t in handlers)

    def test_sigterm_with_open_keep_alive_connection_exits_cleanly(self):
        """`repro serve` ends on SIGTERM with exit 0 and no traceback."""
        proc = _serve_process()
        try:
            port = _listening_port(proc)
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
                conn.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                response = b""
                while b"\r\n\r\n" not in response:
                    response += conn.recv(4096)
                assert response.startswith(b"HTTP/1.1 200")
                proc.send_signal(signal.SIGTERM)
                _, stderr = proc.communicate(timeout=10.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr
        assert "Traceback" not in stderr, stderr


def _serve_process(*flags: str) -> subprocess.Popen:
    """`repro serve` on an ephemeral port, in a child process."""
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _listening_port(proc: subprocess.Popen) -> int:
    line = proc.stdout.readline()
    assert "listening on http://" in line, line
    return int(line.rsplit(":", 1)[1])


def _serve_statz(*flags: str) -> dict:
    """The ``/v1/statz`` body of a `repro serve` started with ``flags``."""
    proc = _serve_process(*flags)
    try:
        port = _listening_port(proc)
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
            conn.sendall(b"GET /v1/statz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            response = b""
            while chunk := conn.recv(4096):
                response += chunk
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=10.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return json.loads(response.split(b"\r\n\r\n", 1)[1])


class TestServeCommand:
    @pytest.mark.parametrize("with_dir", [False, True])
    def test_cache_capacity_flag_sizes_the_cache(self, tmp_path, with_dir):
        flags = ["--cache-capacity", "8"] + (["--cache-dir", str(tmp_path)] if with_dir else [])
        assert _serve_statz(*flags)["broker"]["cache"]["capacity"] == 8

    def test_no_cache_turns_the_cache_off(self):
        assert _serve_statz("--no-cache", "--cache-capacity", "0")["broker"]["cache"] is None

    @pytest.mark.parametrize("with_dir", [False, True])
    def test_bad_cache_capacity_is_a_one_line_error(self, tmp_path, with_dir):
        flags = ["--cache-capacity", "0"] + (["--cache-dir", str(tmp_path)] if with_dir else [])
        proc = _serve_process(*flags)
        try:
            _, stderr = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 1
        assert stderr == "capacity must be >= 1, got 0\n"


class TestHeadParser:
    def test_good_head(self):
        method, path, headers = _parse_head(
            b"POST /v1/schedule?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\n"
        )
        assert method == "POST"
        assert path == "/v1/schedule"
        assert headers == {"host": "h", "content-length": "3"}

    @pytest.mark.parametrize(
        "raw",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /x SPDY/9\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n",
        ],
    )
    def test_malformed_heads(self, raw):
        assert _parse_head(raw) is None
