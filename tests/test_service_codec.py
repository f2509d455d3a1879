"""The service's wire codec: orjson against the stdlib ``json`` it replaced.

:mod:`repro.service.server` decodes request bodies with orjson and falls
back to :mod:`json` only for bodies orjson refuses, and encodes every
response with orjson.  These differential tests pin that the switch is
invisible above the transport:

* decode — on bodies orjson accepts, both decoders give the same Python
  objects, floats bit for bit (``exact_key`` hashes their bytes, so one
  differently rounded coordinate would turn a cache hit into a miss),
  and the schema gives the same ``exact_key`` or the same ``(code,
  param)`` error from either;
* encode — every payload the server sends, on every route and for every
  wire error code, reads back the same from ``orjson.dumps`` as from
  ``json.dumps``.
"""

from __future__ import annotations

import asyncio
import json
import struct

import orjson
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import exact_key
from repro.core.base import list_schedulers
from repro.service import schemas
from repro.service.broker import WIRE_ERROR_CODES
from repro.service.loadgen import build_topology_payload
from repro.service import server as server_module
from repro.utils.validation import ValidationError
from tests.test_service_server import _problem, _request, _serve

# -- decode ------------------------------------------------------------------

#: The integers orjson returns as ``int``; it reads any other as the
#: nearest double, where ``json`` returns the ``int``.
_INT_RANGE = range(-(2**63), 2**64)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same(fast, slow) -> bool:
    """``fast`` (orjson) equals ``slow`` (json), floats bit for bit."""
    if isinstance(slow, bool) or slow is None or isinstance(slow, str):
        return type(fast) is type(slow) and fast == slow
    if isinstance(slow, int):
        if slow in _INT_RANGE:
            return type(fast) is int and fast == slow
        return type(fast) is float and _bits(fast) == _bits(float(slow))
    if isinstance(slow, float):
        return type(fast) is float and _bits(fast) == _bits(slow)
    if isinstance(slow, list):
        return (
            type(fast) is list
            and len(fast) == len(slow)
            and all(_same(a, b) for a, b in zip(fast, slow))
        )
    return (
        type(fast) is dict
        and list(fast) == list(slow)
        and all(_same(fast[k], slow[k]) for k in slow)
    )


def _has_inf(value) -> bool:
    if isinstance(value, float):
        return value in (float("inf"), float("-inf"))
    if isinstance(value, list):
        return any(_has_inf(v) for v in value)
    if isinstance(value, dict):
        return any(_has_inf(v) for v in value.values())
    return False


@st.composite
def decimal_strings(draw) -> str:
    """A JSON number with 1-40 integer digits, 1-40 fraction digits and
    an exponent in -330...310, each part optional past the first."""
    text = draw(st.sampled_from(["", "-"])) + str(draw(st.integers(0, 10**40 - 1)))
    if draw(st.booleans()):
        text += "." + draw(st.text("0123456789", min_size=1, max_size=40))
    if draw(st.booleans()):
        exponent = draw(st.integers(-330, 310))
        text += draw(st.sampled_from(["e", "E", "e+"])) if exponent >= 0 else "e"
        text += str(exponent)
    return text


#: A JSON number: ``repr`` of an arbitrary finite double or of a
#: coordinate-sized one (what clients that serialise float64 send), a
#: random decimal string, or an integer on either side of the 64-bit
#: range.
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4, allow_nan=False).map(repr),
    decimal_strings(),
    st.integers(-(2**70), 2**70).map(str),
)


#: A range inside each channel field's domain, so that a share of the
#: bodies schedule.
_CHANNEL_FIELDS = {
    "alpha": (2.5, 6.0),
    "gamma_th": (0.1, 10.0),
    "eps": (0.001, 0.5),
    "noise": (0.0, 1.0),
    "power": (0.1, 10.0),
}


def _in(lo: float, hi: float) -> st.SearchStrategy[str]:
    return st.floats(lo, hi).map(repr)


def strings() -> st.SearchStrategy[str]:
    """A JSON string literal: any text, escaped or raw UTF-8."""
    return st.builds(
        lambda text, escape: json.dumps(text, ensure_ascii=escape),
        st.text(max_size=12),
        st.booleans(),
    )


def _array(items) -> str:
    return "[" + ", ".join(items) + "]"


def _object(members: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in members.items()) + "}"


@st.composite
def request_bodies(draw) -> bytes:
    """A ``POST /v1/schedule`` body as UTF-8 text, valid or not for the schema."""
    n = draw(st.integers(1, 5))
    # distinct points, so that most links have a positive length
    points = draw(
        st.lists(
            st.tuples(numbers, numbers).map(_array), min_size=2 * n, max_size=2 * n, unique=True
        )
    )
    topology = {"senders": _array(points[:n]), "receivers": _array(points[n:])}
    if draw(st.booleans()):
        rates = st.lists(st.one_of(_in(0.1, 10.0), numbers), min_size=n, max_size=n)
        topology["rates"] = _array(draw(rates))
    for field, (lo, hi) in _CHANNEL_FIELDS.items():
        if draw(st.booleans()):
            junk = st.sampled_from(["true", "null", '"3"'])
            topology[field] = draw(st.one_of(_in(lo, hi), numbers, junk))
    body = {"topology": _object(topology)}
    if draw(st.booleans()):
        body["scheduler"] = draw(
            st.one_of(st.sampled_from(list_schedulers()).map(json.dumps), strings())
        )
    if draw(st.booleans()):
        body["tenant"] = draw(strings())
    return _object(body).encode()


def _outcome(payload):
    """The schema's verdict on a decoded body: a key, or an error."""
    try:
        problem, scheduler, tenant = schemas.parse_schedule_request(payload)
    except ValidationError as exc:
        return "error", exc.code, exc.param
    return "ok", exact_key(problem, scheduler), tenant


@settings(max_examples=300, deadline=None)
@given(body=request_bodies())
def test_orjson_and_json_decode_request_bodies_alike(body):
    slow = json.loads(body)
    try:
        fast = orjson.loads(body)
    except orjson.JSONDecodeError:
        # The one refusal these bodies can draw: a number past a double's
        # range, which json reads as inf, so the server's fallback reads it.
        assert _has_inf(slow), body
        return
    assert _same(fast, slow), body
    assert _outcome(fast) == _outcome(slow), body


# -- encode ------------------------------------------------------------------


async def _raw_status(host, port, data: bytes) -> int:
    """Send ``data`` as it is on a new connection; returns the status."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(data)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    writer.close()
    return int(head.split(b" ")[1])


def test_every_route_payload_encodes_alike(monkeypatch):
    sent = []
    encode = server_module._encode

    def recording(status, payload, keep_alive):
        sent.append(payload)
        return encode(status, payload, keep_alive)

    monkeypatch.setattr(server_module, "_encode", recording)
    topology = build_topology_payload(_problem(6))
    points = [[0.0, 0.0]] * (schemas.MAX_LINKS + 1)
    too_many = {"senders": points, "receivers": points}
    requests = [
        ("GET", "/v1/healthz", None, 200),
        ("POST", "/v1/schedule", {"topology": topology}, 200),  # miss
        ("POST", "/v1/schedule", {"topology": topology}, 200),  # hit
        ("POST", "/v1/schedule", {"topology": topology}, 429),  # burst of 2 spent
        ("POST", "/v1/sessions/s/delta", {"topology": topology}, 200),
        ("POST", "/v1/sessions/s/delta", {"delta": {"removes": [0]}}, 200),
        ("POST", "/v1/sessions/s/delta", {"topology": topology}, 409),
        ("POST", "/v1/sessions/t/delta", {"topology": topology}, 503),  # one session max
        ("POST", "/v1/sessions/ghost/delta", {"delta": {}}, 404),
        ("POST", "/v1/sessions/s/delta", {"delta": {"moves": "zap"}}, 400),
        ("POST", "/v1/sessions/s/delta", {"topology": topology, "delta": {}}, 400),
        ("POST", "/v1/schedule", b"not json", 400),
        ("POST", "/v1/schedule", {"topology": None}, 400),
        # json.dumps escapes the lone surrogate, orjson refuses it, and
        # the json fallback hands it to the schema, which echoes it.
        ("POST", "/v1/schedule", {"topology": topology, "scheduler": "\ud800"}, 400),
        ("POST", "/v1/schedule", {"topology": too_many}, 400),
        ("GET", "/v1/schedule", None, 405),
        ("GET", "/v1/nope", None, 404),
        ("GET", "/v1/statz", None, 200),
    ]

    def boom(payload):
        raise RuntimeError("boom")

    async def traffic(host, port, broker, server):
        async def status_of(method, path, payload):
            status, _, rw = await _request(host, port, method, path, payload)
            rw[1].close()
            return status

        statuses = [await status_of(method, path, payload) for method, path, payload, _ in requests]
        head = b"POST /v1/schedule HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
        statuses.append(await _raw_status(host, port, head))
        statuses.append(await _raw_status(host, port, b"NOT HTTP\r\n\r\n"))
        monkeypatch.setattr(schemas, "parse_delta", boom)  # a failure nobody foresaw
        statuses.append(await status_of("POST", "/v1/sessions/s/delta", {"delta": {}}))
        await broker.close(drain=False)
        statuses.append(await status_of("POST", "/v1/schedule", {"topology": topology}))
        return statuses

    statuses = _serve(traffic, tenant_rate=0.001, tenant_burst=2.0, max_sessions=1)
    assert statuses == [want for *_, want in requests] + [413, 400, 500, 503]
    assert len(sent) == len(statuses)
    assert [p["tier"] for p in sent if "tier" in p] == ["miss", "cache"]
    codes = {p["error"]["code"] for p in sent if "error" in p}
    assert codes == set(WIRE_ERROR_CODES)
    for payload in sent:
        assert json.loads(orjson.dumps(payload)) == json.loads(json.dumps(payload)), payload
