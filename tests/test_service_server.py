"""HTTP transport tests: routing, validation codes, error mapping.

Everything runs against a real ``asyncio.start_server`` socket on an
ephemeral port — the same code path ``repro serve`` uses — with a tiny
raw-HTTP client so framing (Content-Length, keep-alive) is exercised,
not mocked.
"""

from __future__ import annotations

import asyncio
import codecs
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.store import ScheduleCache
from repro.core import base as core_base
from repro.core.base import get_scheduler
from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology
from repro.service import broker as broker_module
from repro.service import schemas
from repro.service import server as server_module
from repro.service.broker import WIRE_ERROR_CODES, ScheduleBroker
from repro.service.loadgen import build_topology_payload
from repro.service.server import ScheduleServer, _parse_head
from repro.utils.validation import ValidationError


def _problem(n=8, seed=3):
    return FadingRLS(links=paper_topology(n, seed=seed))


async def _request(host, port, method, path, payload=None, *, reader_writer=None,
                   close=False):
    """One raw HTTP exchange; returns (status, parsed body, reader/writer).

    A ``bytes`` payload is sent as it is; any other is JSON-encoded.
    """
    if reader_writer is None:
        reader, writer = await asyncio.open_connection(host, port)
    else:
        reader, writer = reader_writer
    if payload is None:
        body = b""
    elif isinstance(payload, bytes):
        body = payload
    else:
        body = json.dumps(payload).encode()
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
        broker = ScheduleBroker(**broker_kwargs)
        server = ScheduleServer(broker, port=0)
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
            # Finite coordinates, but the link's length overflows a double.
            ({"topology": {"senders": [[1e308, 0]], "receivers": [[-1e308, 0]]}},
             "bad-topology"),
            # A subnormal eps, or a gamma_th near the float range: rle's c1
            # (Eq. 59) has no finite value.
            ({"topology": {**build_topology_payload(_problem(3)), "eps": 5e-324}},
             "bad-topology"),
            ({"topology": {**build_topology_payload(_problem(3)), "eps": 1e-320}},
             "bad-topology"),
            ({"topology": {**build_topology_payload(_problem(3)), "gamma_th": 1e308}},
             "bad-topology"),
            (
                {
                    "topology": build_topology_payload(_problem(3)),
                    "scheduler": "nope",
                },
                "unknown-scheduler",
            ),
            # Bodies only the stdlib decoder reads: a UTF-8 byte order
            # mark, and UTF-16.
            (codecs.BOM_UTF8 + json.dumps({"topology": None}).encode(), "bad-topology"),
            (
                json.dumps(
                    {"topology": build_topology_payload(_problem(3)), "scheduler": "nope"}
                ).encode("utf-16"),
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

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param(field, value, id=f"{field}-{label}")
            for field in ("alpha", "gamma_th", "eps", "noise", "power")
            for label, value in [
                ("-1", -1.0),
                ("0", 0.0),
                ("nan", float("nan")),
                ("inf", float("inf")),
                ("str", "x"),
                ("int-1e400", 10**400),  # no float holds it
            ]
            if (field, value) != ("noise", 0.0)  # noise 0 is the default
        ]
        + [pytest.param("alpha", 2.0, id="alpha-2-rle")],  # rle's domain: alpha > 2
    )
    def test_bad_channel_parameter_is_a_documented_400(self, field, value):
        topology = build_topology_payload(_problem(6))
        topology[field] = value  # inf and NaN go out as Infinity and NaN

        async def body(host, port, broker, server):
            status, resp, rw = await _request(
                host, port, "POST", "/v1/schedule", {"topology": topology}
            )
            rw[1].close()
            return status, resp["error"], broker.stats

        status, error, stats = _serve(body)
        assert status == 400
        assert error["code"] == "bad-topology" and error["code"] in WIRE_ERROR_CODES
        assert error["param"] == field
        if value == float("inf") and field != "eps":  # eps: "must be in (0, 1)"
            assert "must be finite" in error["message"]
        accounted = (
            stats["scheduled"] + stats["coalesced"] + stats["rejected_429"]
            + stats["rejected_503"] + stats["errors"]
        )
        assert accounted == stats["requests"]

    # float() would read each of these as a valid value: strings and
    # booleans are not JSON numbers.
    @pytest.mark.parametrize(
        "field, value",
        [("alpha", "3"), ("gamma_th", "1"), ("eps", "0.01"), ("noise", "0"), ("power", "1"),
         ("gamma_th", True), ("power", True), ("noise", False)],
    )
    def test_channel_parameter_must_be_a_json_number(self, field, value):
        topology = build_topology_payload(_problem(6))
        topology[field] = value
        with pytest.raises(ValidationError) as exc:
            schemas.parse_topology(topology)
        assert (exc.value.code, exc.value.param) == ("bad-topology", field)

    # np.asarray(..., dtype=float) read each of these as numbers (the
    # sender at [0, 1], rate 2.5, a flattened [[3]]): JSON numbers only.
    @pytest.mark.parametrize(
        "field, edit",
        [
            pytest.param("senders", lambda t: t["senders"].__setitem__(0, ["0", True]),
                         id="senders-str-bool"),
            pytest.param("senders", lambda t: t["senders"].__setitem__(0, [" 3 ", 0.0]),
                         id="senders-padded-str"),
            pytest.param("receivers", lambda t: t["receivers"].__setitem__(0, ["1e1", 0.0]),
                         id="receivers-exponent-str"),
            pytest.param("receivers", lambda t: t["receivers"].__setitem__(0, [False, 0.0]),
                         id="receivers-bool"),
            pytest.param("senders", lambda t: t["senders"].__setitem__(0, [[1.0], [2.0]]),
                         id="senders-nested"),
            pytest.param("rates", lambda t: t["rates"].__setitem__(0, "2.5"), id="rates-str"),
            pytest.param("rates", lambda t: t["rates"].__setitem__(0, True), id="rates-bool"),
            pytest.param("rates", lambda t: t.__setitem__("rates", [[r] for r in t["rates"]]),
                         id="rates-nested"),
            pytest.param("rates", lambda t: t.__setitem__("rates", 1.0), id="rates-scalar"),
        ],
    )
    def test_coordinates_and_rates_must_be_json_numbers(self, field, edit):
        topology = build_topology_payload(_problem(6))
        edit(topology)

        async def body(host, port, broker, server):
            status, resp, rw = await _request(
                host, port, "POST", "/v1/schedule", {"topology": topology}
            )
            rw[1].close()
            return status, resp["error"]

        status, error = _serve(body)
        assert (status, error["code"], error["param"]) == (400, "bad-topology", field)
        assert f"topology.{field} must be" in error["message"]

    @pytest.mark.parametrize("field", ["senders", "rates"])
    def test_integer_too_large_for_a_float_is_a_400(self, field):
        topology = build_topology_payload(_problem(6))
        if field == "senders":
            topology["senders"][0] = [10**400, 0.0]
        else:
            topology["rates"][0] = 10**400

        async def body(host, port, broker, server):
            status, resp, rw = await _request(
                host, port, "POST", "/v1/schedule", {"topology": topology}
            )
            rw[1].close()
            return status, resp["error"]

        status, error = _serve(body)
        assert (status, error["code"], error["param"]) == (400, "bad-topology", field)

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

    # Each answered 500 internal-error: the stdlib decoder raises
    # UnicodeDecodeError and RecursionError, not JSONDecodeError.
    @pytest.mark.parametrize("path", ["/v1/schedule", "/v1/sessions/s/delta"])
    @pytest.mark.parametrize(
        "raw",
        [b'{"topology": "\xff"}', b"\xff\xfe\xfd", b"[" * 100000],
        ids=["not-utf-8", "not-utf-16", "nested-too-deep"],
    )
    def test_malformed_body_is_bad_json(self, path, raw):
        async def body(host, port, broker, server):
            status, resp, rw = await _request(host, port, "POST", path, raw)
            rw[1].close()
            return status, resp["error"]["code"]

        assert _serve(body) == (400, "bad-json")

    # Valid JSON nested about as deep as the interpreter's recursion limit
    # answered 500: the stdlib decoder raises RecursionError on it, and
    # once orjson reads it, so does repr() of the value in the error
    # message.  Every orjson version reads 1000 levels.
    @pytest.mark.parametrize("path", ["/v1/schedule", "/v1/sessions/s/delta"])
    @pytest.mark.parametrize(
        "field, code", [("alpha", "bad-topology"), ("scheduler", "unknown-scheduler")]
    )
    def test_deeply_nested_value_is_a_typed_400(self, path, field, code):
        payload = {"topology": build_topology_payload(_problem(3))}
        if field == "alpha":
            payload["topology"]["alpha"] = "DEEP"
        else:
            payload["scheduler"] = "DEEP"
        raw = json.dumps(payload).encode().replace(b'"DEEP"', b"[" * 1000 + b"]" * 1000)
        assert raw.count(b"[") + raw.count(b"{") <= server_module.ORJSON_MAX_OPENERS

        async def body(host, port, broker, server):
            status, resp, rw = await _request(host, port, "POST", path, raw)
            rw[1].close()
            return status, resp["error"]["code"], resp["error"]["param"]

        assert _serve(body) == (400, code, field)

    # orjson before 3.9.15 recurses without a depth limit, so a closed
    # body nested 10**6 levels crashed the process.  A body with more
    # `[` and `{` bytes than the bound, which caps its depth, is read by
    # the stdlib decoder alone.
    @pytest.mark.parametrize("openers, via_orjson", [(1024, True), (1025, False)])
    def test_orjson_reads_only_bodies_within_the_opener_bound(
        self, monkeypatch, openers, via_orjson
    ):
        value = ([[], {}] * openers)[: openers - 1]
        raw = json.dumps(value).encode()
        loads, seen = server_module.orjson.loads, []
        monkeypatch.setattr(
            server_module.orjson, "loads", lambda body: seen.append(body) or loads(body)
        )
        assert ScheduleServer._json(raw) == value
        assert bool(seen) == via_orjson

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


def _body(problem, **fields) -> bytes:
    """The bytes of a ``POST /v1/schedule`` body for ``problem``."""
    return json.dumps({"topology": build_topology_payload(problem), **fields}).encode()


def _post(host, port, raw, **kwargs):
    return _request(host, port, "POST", "/v1/schedule", raw, **kwargs)


def _counting(monkeypatch, calls, owner, name):
    """Record ``name`` in ``calls`` on every call of ``owner.name``."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(counted) if owner is ScheduleServer else counted)


def _identities(stats):
    """The accounting identities of the broker's counters hold."""
    served = stats["scheduled"] + stats["errors"]
    refused = stats["rejected_429"] + stats["rejected_503"]
    assert stats["requests"] == served + stats["coalesced"] + refused, stats
    if stats["cache"] is not None:
        assert stats["cache"]["exact_hits"] + stats["cache"]["misses"] == served, stats
    assert 0 <= stats["known_body"] <= stats["requests"], stats
    assert stats["inflight"] == 0, stats


class TestKnownBodies:
    """A body byte-identical to one parsed before is answered through its
    known key: no decode, schema or key hash, the same answer."""

    def test_repeat_gets_the_parse_paths_answer_without_a_parse(self, monkeypatch):
        raw = _body(_problem())
        calls = []
        _counting(monkeypatch, calls, ScheduleServer, "_json")
        _counting(monkeypatch, calls, schemas, "parse_schedule_request")
        _counting(monkeypatch, calls, broker_module, "exact_key")

        async def body(host, port, broker, server):
            answers = []
            # a miss, then a hit on the parse path (trailing whitespace
            # makes other bytes of the same request), then the repeat
            for sent in (raw, raw + b" ", raw):
                _, answer, rw = await _post(host, port, sent)
                rw[1].close()
                answers.append(answer)
            return answers, broker.stats

        (first, parsed, repeat), stats = _serve(body)
        assert (first["tier"], parsed["tier"], repeat["tier"]) == ("miss", "cache", "cache")
        volatile = ("trace_id", "wall_seconds")
        assert {k: v for k, v in repeat.items() if k not in volatile} == {
            k: v for k, v in parsed.items() if k not in volatile
        }
        assert repeat["active"] == first["active"]
        assert calls == ["_json", "parse_schedule_request", "exact_key"] * 2
        assert stats["known_body"] == 1
        _identities(stats)

    def test_repeat_whose_entry_was_evicted_is_recomputed(self, monkeypatch):
        problem = _problem(8, 3)
        raw = _body(problem)
        direct = [int(i) for i in get_scheduler("rle")(problem).active]
        calls = []
        _counting(monkeypatch, calls, schemas, "parse_schedule_request")

        async def body(host, port, broker, server):
            _, first, rw = await _post(host, port, raw)
            # Another request evicts the body's entry; the server still
            # knows the body.
            await broker.submit(_problem(9, 4))
            _, again, rw = await _post(host, port, raw, reader_writer=rw)
            rw[1].close()
            return first, again, broker.stats

        first, again, stats = _serve(body, cache=ScheduleCache(capacity=1))
        assert first["tier"] == again["tier"] == "miss"
        assert again["active"] == first["active"] == direct
        assert again["n_links"] == 8
        # parsed once on arrival, once more to be computed
        assert calls == ["parse_schedule_request"] * 2
        assert (stats["known_body"], stats["cache"]["evictions"]) == (1, 2)
        _identities(stats)

    @pytest.mark.parametrize("capacity, extra", [(1, 1), (3, 2)])
    def test_the_map_holds_as_many_bodies_as_the_cache(self, capacity, extra):
        bodies = [_body(_problem(4, seed)) for seed in range(capacity + extra)]

        async def body(host, port, broker, server):
            for raw in bodies:
                status, _, rw = await _post(host, port, raw)
                rw[1].close()
                assert status == 200
            return list(server._known)

        known = _serve(body, cache=ScheduleCache(capacity=capacity))
        # least recently used out first
        assert known == [hashlib.sha256(raw).digest() for raw in bodies[extra:]]

    def test_no_cache_keeps_no_bodies(self):
        raw = _body(_problem(5, 1))

        async def body(host, port, broker, server):
            tiers = []
            for _ in range(2):
                _, answer, rw = await _post(host, port, raw)
                rw[1].close()
                tiers.append(answer["tier"])
            return tiers, len(server._known), broker.stats

        tiers, known, stats = _serve(body, use_cache=False)
        assert tiers == ["miss", "miss"]
        assert (known, stats["known_body"]) == (0, 0)
        _identities(stats)

    def test_identities_hold_on_every_path(self, monkeypatch):
        started, release = threading.Event(), threading.Event()

        def blocking(problem, **kwargs):
            started.set()
            release.wait(60.0)
            return get_scheduler("rle")(problem, **kwargs)

        monkeypatch.setitem(core_base._REGISTRY, "test-blocking", blocking)
        a = _body(_problem(6, 1), tenant="a")
        b = _body(_problem(7, 2), tenant="b", scheduler="test-blocking")
        c = _body(_problem(8, 3), tenant="c")
        domain = build_topology_payload(_problem(5, 4))
        domain["alpha"] = 2.0  # outside rle's domain: an error on every compute
        e = json.dumps({"topology": domain, "tenant": "e"}).encode()

        async def body(host, port, broker, server):
            async def post(raw):
                status, answer, rw = await _post(host, port, raw)
                rw[1].close()
                return status, answer.get("tier") or answer["error"]["code"]

            out = [await post(a), await post(a + b" "), await post(a)]
            leader = asyncio.ensure_future(post(b))
            while not started.is_set():
                await asyncio.sleep(0.005)
            follower = asyncio.ensure_future(post(b))  # a known body, coalesced
            while broker.stats["coalesced"] == 0:
                await asyncio.sleep(0.005)
            out.append(await post(c))  # queue_limit 1: b is in flight
            release.set()
            out += [await leader, await follower]
            # c is known but was never computed; b's entry is evicted by
            # c's insert (fewer hits than a's), so b is computed again.
            out += [await post(c), await post(b)]
            out += [await post(b), await post(b + b" ")]  # tenant b spent
            out += [await post(e), await post(e)]
            _, statz, rw = await _request(host, port, "GET", "/v1/statz")
            rw[1].close()
            return out, statz["broker"]

        out, stats = _serve(
            body,
            cache=ScheduleCache(capacity=2),
            queue_limit=1,
            tenant_rate=0.001,
            tenant_burst=3.0,
        )
        assert out == [
            (200, "miss"), (200, "cache"), (200, "cache"),
            (503, "queue-full"), (200, "miss"), (200, "miss"),
            (200, "miss"), (200, "miss"),
            (429, "tenant-rate-exceeded"), (429, "tenant-rate-exceeded"),
            (400, "bad-topology"), (400, "bad-topology"),
        ]
        _identities(stats)
        # a, the follower, c, b, b and e came from known bodies
        assert stats["known_body"] == 6
        assert (stats["scheduled"], stats["coalesced"], stats["errors"]) == (6, 1, 2)
        assert (stats["rejected_429"], stats["rejected_503"]) == (2, 1)


class TestMissesOnTheEventLoop:
    """A small rle miss is computed on the event loop; what it costs the
    other connections is one computation, not a pipeline of them."""

    def test_scheduler_error_on_the_loop_is_a_counted_400(self):
        topology = build_topology_payload(_problem(5, 4))
        topology["alpha"] = 2.0  # outside rle's domain

        async def body(host, port, broker, server):
            status, resp, rw = await _post(host, port, {"topology": topology})
            rw[1].close()
            return status, resp["error"], broker.stats

        status, error, stats = _serve(body)
        assert (status, error["code"], error["param"]) == (400, "bad-topology", "alpha")
        assert (stats["errors"], stats["batches"]) == (1, 0)
        _identities(stats)

    def test_pipelined_misses_do_not_answer_another_connection_last(self):
        hit = _body(_problem(12, 1))
        misses = [_body(_problem(24, 100 + i)) for i in range(20)]
        lines = []

        def framed(raw):
            head = f"POST /v1/schedule HTTP/1.1\r\nHost: t\r\nContent-Length: {len(raw)}\r\n\r\n"
            return head.encode() + raw

        async def read_response(reader):
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
            return json.loads(await reader.readexactly(length))

        async def runner():
            broker = ScheduleBroker()
            server = ScheduleServer(broker, port=0, access_log=lines.append)
            host, port = await server.start()
            try:
                _, _, (r_hit, w_hit) = await _post(host, port, hit)  # now cached
                r_pipe, w_pipe = await asyncio.open_connection(host, port)
                w_pipe.write(b"".join(framed(raw) for raw in misses))
                w_hit.write(framed(hit))
                await asyncio.gather(w_pipe.drain(), w_hit.drain())
                answer = await read_response(r_hit)
                pipelined = [await read_response(r_pipe) for _ in misses]
                for writer in (w_pipe, w_hit):
                    writer.close()
                return answer, pipelined, broker.stats
            finally:
                await server.close()
                await broker.close(drain=False)

        answer, pipelined, stats = asyncio.run(runner())
        assert answer["tier"] == "cache"
        assert [r["tier"] for r in pipelined] == ["miss"] * len(misses)
        assert stats["batches"] == 0
        # One log line per response, in the order they were written.
        order = [line.rsplit(" ", 1)[1] for line in lines[1:]]
        assert len(order) == len(misses) + 1
        assert order.index(answer["trace_id"]) < len(misses)


class TestLinkCaps:
    """Every request is bounded at the door: a topology past its
    scheduler's cap, or a delta past the session's, is a 400
    ``too-many-links`` before anything is queued."""

    @staticmethod
    def _links(n):
        return build_topology_payload(_problem(n, 1))

    @pytest.mark.parametrize("scheduler, cap", sorted(schemas.SCHEDULER_MAX_LINKS.items()))
    def test_schedule_request_past_its_schedulers_cap(self, scheduler, cap):
        at_cap = {"topology": self._links(cap), "scheduler": scheduler}
        problem, _, _ = schemas.parse_schedule_request(at_cap)
        assert problem.n_links == cap

        async def body(host, port, broker, server):
            past = {"topology": self._links(cap + 1), "scheduler": scheduler}
            status, resp, rw = await _post(host, port, past)
            rw[1].close()
            return status, resp["error"]["code"], broker.stats

        status, code, stats = _serve(body)
        assert (status, code) == (400, "too-many-links")
        assert stats["requests"] == 0

    def test_session_open_past_its_schedulers_cap(self):
        async def body(host, port, broker, server):
            past = {"topology": self._links(23), "scheduler": "brute_force"}
            status, resp, rw = await _request(host, port, "POST", "/v1/sessions/s/delta", past)
            rw[1].close()
            return status, resp["error"]["code"], broker.stats

        status, code, stats = _serve(body)
        assert (status, code) == (400, "too-many-links")
        assert (stats["sessions_opened"], stats["open_sessions"]) == (0, 0)

    @pytest.mark.parametrize(
        "scheduler, n, inserts",
        [
            ("rle", 10, schemas.MAX_LINKS - 9),
            ("branch_and_bound", 10, schemas.SCHEDULER_MAX_LINKS["branch_and_bound"] - 9),
        ],
        ids=["past-MAX_LINKS", "past-the-schedulers-cap"],
    )
    def test_delta_that_would_grow_the_session_past_its_cap(self, scheduler, n, inserts):
        grow = build_topology_payload(_problem(inserts, 2))
        grow = {"senders": grow["senders"], "receivers": grow["receivers"]}

        async def body(host, port, broker, server):
            path = "/v1/sessions/s/delta"
            opened, _, rw = await _request(
                host, port, "POST", path, {"topology": self._links(n), "scheduler": scheduler}
            )
            status, resp, rw = await _request(
                host, port, "POST", path, {"delta": {"inserts": grow}}, reader_writer=rw
            )
            # The session is as it was: one link fewer is a repair.
            after, repaired, rw = await _request(
                host, port, "POST", path, {"delta": {"removes": [0]}}, reader_writer=rw
            )
            rw[1].close()
            return opened, status, resp["error"]["code"], after, repaired

        opened, status, code, after, repaired = _serve(body)
        assert (opened, status, code) == (200, 400, "too-many-links")
        assert (after, repaired["seq"]) == (200, 1)


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


    def test_session_open_outside_the_schedulers_domain_is_400(self):
        topology = build_topology_payload(_problem(5, 2))

        async def body(host, port, broker, server):
            bad = dict(topology, alpha=2.0)
            status, resp, rw = await _request(
                host, port, "POST", "/v1/sessions/s/delta", {"topology": bad}
            )
            # The failed open left no session behind: the id is free.
            retry, _, rw = await _request(
                host, port, "POST", "/v1/sessions/s/delta", {"topology": topology},
                reader_writer=rw,
            )
            rw[1].close()
            return status, resp["error"], retry

        status, error, retry = _serve(body)
        assert (status, error["code"], error["param"]) == (400, "bad-topology", "alpha")
        assert retry == 200

    # An int64 cast would truncate 0.5 to link 0 and read true and "1"
    # as link 1.
    @pytest.mark.parametrize("field", ["moves", "removes"])
    @pytest.mark.parametrize("index", [0.5, True, "1"], ids=["float", "bool", "str"])
    def test_delta_index_must_be_a_json_integer(self, field, index):
        delta = {field: [index]}
        if field == "moves":
            delta.update(new_senders=[[0.0, 0.0]], new_receivers=[[1.0, 1.0]])
        with pytest.raises(ValidationError) as exc:
            schemas.parse_delta(delta)
        assert (exc.value.code, exc.value.param) == ("bad-delta", field)

    @pytest.mark.parametrize(
        "delta, param",
        [
            ({"moves": [0], "new_senders": [["0", 0.0]], "new_receivers": [[1.0, 1.0]]},
             "new_senders"),
            ({"moves": [0], "new_senders": [[0.0, 0.0]], "new_receivers": [[True, 1.0]]},
             "new_receivers"),
            # a flat list was reshaped into pairs
            ({"moves": [0], "new_senders": [0.0, 0.0], "new_receivers": [[1.0, 1.0]]},
             "new_senders"),
            ({"inserts": {"senders": [["1", 2.0]], "receivers": [[5.0, 5.0]]}},
             "inserts.senders"),
            ({"inserts": {"senders": [[1.0, 2.0]], "receivers": [[5.0, 5.0, 5.0]]}},
             "inserts.receivers"),
            ({"inserts": {"senders": [[1.0, 2.0]], "receivers": [[5.0, 5.0]], "rates": ["2"]}},
             "inserts.rates"),
            ({"inserts": {"senders": [[1.0, 2.0]], "receivers": [[5.0, 5.0]], "rates": [[2]]}},
             "inserts.rates"),
            ({"inserts": {"senders": [], "receivers": []}}, None),  # inserts nothing
        ],
    )
    def test_delta_coordinates_and_rates_must_be_json_numbers(self, delta, param):
        with pytest.raises(ValidationError) as exc:
            schemas.parse_delta(delta)
        assert (exc.value.code, exc.value.param) == ("bad-delta", param)

    def test_delta_integer_too_large_is_bad_delta(self):
        async def body(host, port, broker, server):
            status, resp, rw = await _request(
                host, port, "POST", "/v1/sessions/s/delta", {"delta": {"moves": [10**400]}}
            )
            rw[1].close()
            return status, resp["error"]["code"]

        assert _serve(body) == (400, "bad-delta")

    # Checks the session's engine makes; they answered 500 internal-error.
    @pytest.mark.parametrize(
        "delta",
        [
            {"removes": [99]},
            {"moves": [0], "new_senders": [[0.0, 0.0]], "new_receivers": [[0.0, 0.0]]},
        ],
        ids=["index-past-the-session", "zero-length-move"],
    )
    def test_delta_that_does_not_fit_the_session_is_bad_delta(self, delta):
        topology = build_topology_payload(_problem(5))

        async def body(host, port, broker, server):
            opened, _, rw = await _request(
                host, port, "POST", "/v1/sessions/s/delta", {"topology": topology}
            )
            status, resp, rw = await _request(
                host, port, "POST", "/v1/sessions/s/delta", {"delta": delta}, reader_writer=rw
            )
            rw[1].close()
            return opened, status, resp["error"]["code"]

        assert _serve(body) == (200, 400, "bad-delta")


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
            broker = ScheduleBroker()
            server = ScheduleServer(broker, port=0, access_log=lines.append)
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
    while not any(conn.busy for conn in server._connections):
        assert asyncio.get_running_loop().time() < deadline, "no busy connection"
        await asyncio.sleep(0.01)


class TestShutdown:
    def test_close_ends_idle_keep_alive_connections(self):
        """close() returns with every connection closed."""

        async def runner():
            broker = ScheduleBroker()
            server = ScheduleServer(broker, port=0)
            host, port = await server.start()
            _, _, (reader, writer) = await _request(host, port, "GET", "/v1/healthz")
            connections = set(server._connections)
            assert connections
            # well inside the default grace: idle connections close at once
            await asyncio.wait_for(server.close(), timeout=2.0)
            await broker.close(drain=False)
            eof = await reader.read(1)
            writer.close()
            return connections, server, eof

        connections, server, eof = asyncio.run(runner())
        assert all(conn._transport.is_closing() for conn in connections)
        assert not server._connections and not server._tasks
        assert eof == b""

    def test_close_answers_an_in_flight_request_first(self, monkeypatch):
        """A request waiting on a worker thread gets its response, marked
        Connection: close."""
        started, release = threading.Event(), threading.Event()

        def blocking(problem, **kwargs):
            started.set()
            release.wait(60.0)
            return get_scheduler("rle")(problem, **kwargs)

        monkeypatch.setitem(core_base._REGISTRY, "test-blocking", blocking)
        problem = _problem(6, 2)
        raw = _body(problem, scheduler="test-blocking")

        async def runner():
            broker = ScheduleBroker()
            server = ScheduleServer(broker, port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /v1/schedule HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(raw)}\r\n\r\n".encode()
                + raw
            )
            await writer.drain()
            await _busy_connection(server)
            closing = asyncio.ensure_future(server.close())
            await asyncio.sleep(0.05)
            still_open = not closing.done()
            release.set()
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
            answer = json.loads(await reader.readexactly(length))
            eof = await reader.read(1)
            await asyncio.wait_for(closing, timeout=10.0)
            await broker.close(drain=False)
            writer.close()
            return still_open, head, answer, eof, broker.stats

        still_open, head, answer, eof, stats = asyncio.run(runner())
        assert started.is_set() and still_open
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in head
        assert answer["active"] == [int(i) for i in get_scheduler("rle")(problem).active]
        assert (answer["tier"], stats["batches"]) == ("miss", 1)
        assert eof == b""

    def test_close_aborts_a_stalled_request_after_the_grace(self, monkeypatch):
        """A client that never finishes its body cannot hold close() up."""
        monkeypatch.setattr(server_module, "CLOSE_GRACE_SECONDS", 0.2)

        async def runner():
            broker = ScheduleBroker()
            server = ScheduleServer(broker, port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /v1/schedule HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100\r\n\r\n{"
            )
            await writer.drain()
            await _busy_connection(server)
            connections = set(server._connections)
            await asyncio.wait_for(server.close(), timeout=10.0)
            await broker.close(drain=False)
            eof = await reader.read(1)
            writer.close()
            return connections, server, eof

        connections, server, eof = asyncio.run(runner())
        assert all(conn._transport.is_closing() for conn in connections)
        assert not server._connections
        assert eof == b""

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


def _serve_exit(*flags: str) -> tuple:
    """``(exit status, stderr)`` of a `repro serve` that must stop at
    startup; it is killed after 30 s if it does not."""
    proc = _serve_process(*flags)
    try:
        _, stderr = proc.communicate(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, stderr


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
        assert _serve_exit(*flags) == (1, "capacity must be >= 1, got 0\n")

    def test_cache_dir_on_a_plain_file_is_a_one_line_error(self, tmp_path):
        plain = tmp_path / "cache"
        plain.write_text("not a directory")
        message = f"cannot use {plain} as a cache directory: not a directory\n"
        assert _serve_exit("--cache-dir", str(plain)) == (1, message)

    def test_closed_body_a_million_levels_deep_is_bad_json(self):
        # A valid 2 MB body that orjson before 3.9.15 parsed by recursing
        # on the C stack until the server process crashed.
        depth = 1_000_000
        raw = b"[" * depth + b"]" * depth
        proc = _serve_process()
        try:
            port = _listening_port(proc)
            with socket.create_connection(("127.0.0.1", port), timeout=30.0) as conn:
                conn.sendall(
                    b"POST /v1/schedule HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                    + f"Content-Length: {len(raw)}\r\n\r\n".encode()
                    + raw
                )
                response = b""
                while chunk := conn.recv(65536):
                    response += chunk
            alive = proc.poll() is None
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=10.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        head, _, answer = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400"), response[:200]
        assert json.loads(answer)["error"]["code"] == "bad-json"
        assert alive and proc.returncode == 0, stderr
        assert "Traceback" not in stderr, stderr

    def test_bad_tenant_rate_fails_at_startup(self):
        # Checked when the broker is built: before, the server booted and
        # every /v1/schedule answered 500.
        assert _serve_exit("--tenant-rate", "0") == (1, "tenant_rate must be > 0, got 0.0\n")


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
            # two lengths: which body is meant is ambiguous
            b"POST /x HTTP/1.1\r\nContent-Length: 1\r\ncontent-length: 2\r\n\r\n",
        ],
    )
    def test_malformed_heads(self, raw):
        assert _parse_head(raw) is None

    def test_repeated_equal_content_length(self):
        _, _, headers = _parse_head(
            b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length:  2\r\n\r\n"
        )
        assert headers["content-length"] == "2"


def _split_responses(raw: bytes) -> list:
    """``(status, lowercase headers, parsed body)`` of each response in ``raw``."""
    out = []
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, head
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        out.append((int(lines[0].split(" ")[1]), headers, json.loads(raw[:length])))
        raw = raw[length:]
    return out


async def _until_eof(host, port, data: bytes, *, half_close=False, timeout=5.0) -> list:
    """Send ``data`` on a new connection (then EOF, with ``half_close``);
    the responses read until the server closes the connection.  A server
    that closes with bytes of ours unread resets the connection."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(data)
    if half_close:
        writer.write_eof()
    raw = b""
    try:
        await writer.drain()
        while chunk := await asyncio.wait_for(reader.read(1 << 16), timeout):
            raw += chunk
    except ConnectionResetError:
        pass
    writer.close()
    return _split_responses(raw)


def _post_head(length: str, *extra: str) -> bytes:
    lines = ["POST /v1/schedule HTTP/1.1", "Host: t", f"Content-Length: {length}", *extra]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class TestFraming:
    """Request framing: Content-Length is the only body framing, read
    strictly; anything else is one 400 ``bad-request`` and a close."""

    # int() read the first two as 10, so the server framed a 10-byte
    # body; "\xb2" (a superscript two in the latin-1 head) is a digit to
    # str.isdigit() that int() refuses.
    @pytest.mark.parametrize(
        "length", ["1_0", "+10", "\xb2", "1\xb9", " 10 0", "0x0a", "10.0", "-1", ""],
        ids=["underscore", "plus", "superscript", "digit-superscript", "inner-space", "hex",
             "decimal", "negative", "empty"],
    )
    def test_content_length_is_ascii_digits_only(self, length):
        raw = _body(_problem(4))[:10]

        async def body(host, port, broker, server):
            return await _until_eof(host, port, _post_head(length) + raw)

        [(status, headers, answer)] = _serve(body)
        assert (status, answer["error"]["code"]) == (400, "bad-request")
        assert answer["error"]["message"] == "bad Content-Length"
        assert headers["connection"] == "close"

    def test_conflicting_content_lengths_are_refused(self):
        raw = _body(_problem(4))

        async def body(host, port, broker, server):
            head = _post_head(str(len(raw)), "Content-Length: 2")
            return await _until_eof(host, port, head + raw), broker.stats["requests"]

        [(status, headers, answer)], requests = _serve(body)
        assert (status, answer["error"]["code"]) == (400, "bad-request")
        assert headers["connection"] == "close"
        assert requests == 0

    def test_repeated_equal_content_lengths_frame_one_body(self):
        raw = _body(_problem(4))

        async def body(host, port, broker, server):
            head = _post_head(str(len(raw)), f"Content-Length: {len(raw)}", "Connection: close")
            return await _until_eof(host, port, head + raw)

        [(status, _, answer)] = _serve(body)
        assert (status, answer["tier"]) == (200, "miss")

    @pytest.mark.parametrize("coding", ["chunked", "gzip, chunked", "identity"])
    def test_transfer_encoding_gets_one_400_and_a_close(self, coding):
        chunks = b"5\r\nhello\r\n0\r\n\r\n"

        async def body(host, port, broker, server):
            head = (
                "POST /v1/schedule HTTP/1.1\r\nHost: t\r\n"
                f"Transfer-Encoding: {coding}\r\n\r\n"
            ).encode()
            return await _until_eof(host, port, head + chunks), broker.stats["requests"]

        responses, requests = _serve(body)
        assert [(s, a["error"]["code"]) for s, _, a in responses] == [(400, "bad-request")]
        assert responses[0][1]["connection"] == "close"
        assert requests == 0

    def test_a_head_past_the_limit_closes_the_connection(self):
        def head_of(size):
            base = b"GET /v1/healthz HTTP/1.1\r\nX-Pad: \r\n\r\n"
            return base.replace(b"X-Pad: ", b"X-Pad: " + b"a" * (size - len(base)))

        limit = server_module.MAX_HEAD_BYTES
        assert len(head_of(limit)) == limit

        async def body(host, port, broker, server):
            at = await _until_eof(host, port, head_of(limit), half_close=True)
            past = await _until_eof(host, port, head_of(limit + 1), half_close=True)
            endless = await _until_eof(host, port, b"GET /" + b"a" * (2 * limit))
            return at, past, endless

        at, past, endless = _serve(body)
        assert [status for status, _, _ in at] == [200]
        assert past == endless == []

    def test_a_truncated_body_then_eof_closes_cleanly(self):
        async def body(host, port, broker, server):
            cut = await _until_eof(host, port, _post_head("100") + b'{"topo', half_close=True)
            health, _, rw = await _request(host, port, "GET", "/v1/healthz")
            rw[1].close()
            return cut, health, broker.stats["requests"]

        assert _serve(body) == ([], 200, 0)

    def test_non_utf8_bytes_in_a_head_are_framed_as_latin1(self):
        head = b"GET /v1/\xff\xfe HTTP/1.1\r\nX-Junk: \x80\xc3(\r\n\r\n"

        async def body(host, port, broker, server):
            health = b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            return await _until_eof(host, port, head + health)

        (status, headers, answer), (health, _, _) = _serve(body)
        assert (status, answer["error"]["code"]) == (404, "unknown-route")
        assert answer["error"]["message"] == "GET /v1/\xff\xfe"
        assert headers["connection"] == "keep-alive"
        assert health == 200

    def test_requests_pipelined_behind_a_waiting_one_keep_their_order(self, monkeypatch):
        started, release = threading.Event(), threading.Event()

        def blocking(problem, **kwargs):
            started.set()
            release.wait(60.0)
            return get_scheduler("rle")(problem, **kwargs)

        monkeypatch.setitem(core_base._REGISTRY, "test-blocking", blocking)
        slow = _body(_problem(6, 2), scheduler="test-blocking")
        fast = _body(_problem(5, 1))
        stream = (
            _post_head(str(len(slow))) + slow
            + b"GET /v1/healthz HTTP/1.1\r\n\r\n"
            + _post_head(str(len(fast)), "Connection: close") + fast
        )

        async def body(host, port, broker, server):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(stream)
            await writer.drain()
            while not started.is_set():
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.05)
            early = server._connections and next(iter(server._connections)).busy
            release.set()
            raw = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            return early, _split_responses(raw)

        early, responses = _serve(body)
        assert early
        assert [(s, a.get("tier")) for s, _, a in responses] == [
            (200, "miss"), (200, None), (200, "miss"),
        ]
        assert [h["connection"] for _, h, _ in responses] == ["keep-alive"] * 2 + ["close"]


class _ServerThread:
    """A broker and server on their own event loop in a background
    thread, for tests that drive it from blocking sockets."""

    def __init__(self, **broker_kwargs):
        self._kwargs = broker_kwargs
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)

    def _run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(30.0)

    def __enter__(self):
        self._thread.start()

        async def boot():
            self.broker = ScheduleBroker(**self._kwargs)
            self.server = ScheduleServer(self.broker, port=0)
            return await self.server.start()

        self.host, self.port = self._run(boot())
        return self

    def __exit__(self, *exc):
        async def down():
            await self.server.close()
            await self.broker.close(drain=False)

        try:
            self._run(down())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(30.0)
            self._loop.close()


class _Client:
    """One blocking keep-alive connection."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def response(self):
        """``(status, Connection header, body)`` of the next response."""
        while b"\r\n\r\n" not in self.buf:
            self._recv()
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
        while len(rest) < length:
            self._recv()
            head, _, rest = self.buf.partition(b"\r\n\r\n")
        self.buf = rest[length:]
        connection = head.lower().split(b"connection: ")[1].split(b"\r\n")[0]
        return int(head.split(b" ")[1]), connection.decode(), json.loads(rest[:length])

    def _recv(self):
        chunk = self.sock.recv(1 << 16)
        assert chunk, "the server closed the connection"
        self.buf += chunk


def _masked(response):
    """A response without its per-request fields."""
    status, connection, body = response
    volatile = ("trace_id", "wall_seconds", "uptime_seconds")
    return status, connection, {k: v for k, v in body.items() if k not in volatile}


def _framed(method, path, body=b""):
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


#: Requests whose framing is valid, with their answers' kinds: a miss
#: the event loop computes, one a worker thread computes (``ldp``), and
#: the 4xx a route, a method and a body can draw.
_PIPELINE_POOL = {
    "healthz": _framed("GET", "/v1/healthz"),
    "query": _framed("GET", "/v1/healthz?verbose=1"),
    "rle": _framed("POST", "/v1/schedule", _body(_problem(3, 1))),
    "ldp": _framed("POST", "/v1/schedule", _body(_problem(3, 2), scheduler="ldp")),
    "bad-json": _framed("POST", "/v1/schedule", b"{nope"),
    "no-route": _framed("GET", "/v1/nope"),
    "no-method": _framed("GET", "/v1/schedule"),
    "empty-post": _framed("POST", "/v1/schedule"),
}

#: Streams up to this many bytes may be split one byte per write.
_BYTEWISE_MAX = 160


def test_any_split_of_a_pipelined_stream_gets_the_same_answers():
    """Framing does not depend on how the bytes arrive: any split of a
    pipelined stream of requests gets the answers those requests get
    one per write, in order."""
    with _ServerThread(use_cache=False) as served:
        client = _Client(served.host, served.port)
        expected = {}
        for name, raw in _PIPELINE_POOL.items():
            client.sock.sendall(raw)
            expected[name] = _masked(client.response())
        assert expected["ldp"][2]["tier"] == expected["rle"][2]["tier"] == "miss"

        @settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
        @given(data=st.data())
        def check(data):
            names = data.draw(
                st.lists(st.sampled_from(sorted(_PIPELINE_POOL)), min_size=1, max_size=6)
            )
            stream = b"".join(_PIPELINE_POOL[name] for name in names)
            if len(stream) <= _BYTEWISE_MAX and data.draw(st.booleans()):
                cuts = list(range(1, len(stream)))
            else:
                cuts = sorted(data.draw(st.sets(st.integers(1, len(stream) - 1), max_size=24)))
            for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
                client.sock.sendall(stream[lo:hi])
                time.sleep(0.0005)  # so that the server reads each write on its own
            assert [_masked(client.response()) for _ in names] == [
                expected[name] for name in names
            ]

        check()
        client.sock.sendall(_PIPELINE_POOL["healthz"])
        assert client.response()[:2] == (200, "keep-alive")
        client.sock.close()
