"""Service benchmarks against a live server.

Each boots ``repro serve`` as a real subprocess (its own interpreter,
its own event loop — the deployment shape):

- ``smoke_service`` drives the deterministic loadgen at 1000 persistent
  connections firing synchronized bursts, asserts the acceptance
  criteria — peak in-flight >= 1000 and zero unaccounted request
  losses — and records the sustained throughput;
- ``serve_fresh_misses`` drives a closed loop over two keep-alive
  connections with fresh ``rle`` topologies of 200 links (computed on
  the event loop) and then of 300 links (computed on a worker thread),
  and records, per size, the wall time, the server's CPU time and its
  voluntary context switches per request;
- ``serve_repeat_hits`` drives the same closed loop over 16 cached
  300-link bodies, 400 passes, and records the same three numbers per
  request: the cost of a hit answered from a known body.

Both go to ``BENCH_RESULTS.json`` for ``tools/bench_gate.py`` to
regress against; ``make bench-service`` runs them.  The smoke one
carries the smoke marker so ``make bench-smoke`` / the CI deep run
leave its data point.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks import bench_export
from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology
from repro.service.broker import LOOP_MAX_LINKS
from repro.service.loadgen import (
    _HttpClient,
    _serialise_request,
    build_topology_payload,
    raise_nofile_limit,
    run_loadgen,
)

CLIENTS = 1000
TICKS = 2
SEED = 2017
N_LINKS = 12
POOL = 4
ARRIVAL = "spikes"

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fresh bodies per size in ``serve_fresh_misses``, and the sizes: one
#: the event loop computes, one past LOOP_MAX_LINKS for a worker thread.
MISS_BODIES = 400
MISS_SIZES = (200, 300)

#: ``serve_repeat_hits``: cached bodies, their link count, and passes
#: over them in the timed loop (perfbench's serve-repeat shape).
HIT_POOL = 16
HIT_LINKS = 300
HIT_PASSES = 400


def _spawn_server() -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet"],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 30.0
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on http://" in line:
            break
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early (rc={proc.returncode})")
    else:
        proc.kill()
        raise RuntimeError("server never reported its address")
    addr = line.rsplit("http://", 1)[1].strip()
    host, port = addr.rsplit(":", 1)
    return proc, host, int(port)


@pytest.mark.smoke
def test_service_sustains_1000_concurrent_clients():
    raise_nofile_limit()
    proc, host, port = _spawn_server()
    try:
        report = asyncio.run(
            run_loadgen(
                host=host,
                port=port,
                clients=CLIENTS,
                ticks=TICKS,
                arrival=ARRIVAL,
                pool=POOL,
                n_links=N_LINKS,
                seed=SEED,
                timeout=120.0,
            )
        )
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()

    summary = report.to_dict()
    bench_export.record(
        "smoke_service",
        report.wall_seconds,
        {
            "clients": CLIENTS,
            "ticks": TICKS,
            "arrival": ARRIVAL,
            "pool": POOL,
            "n_links": N_LINKS,
            "seed": SEED,
            "sent": summary["sent"],
            "ok": summary["ok"],
            "throughput_rps": summary["throughput_rps"],
            "p50_ms": summary["p50_ms"],
            "p99_ms": summary["p99_ms"],
            "peak_inflight": summary["peak_inflight"],
        },
    )
    print(
        f"\nservice: {summary['sent']} requests from {CLIENTS} clients in "
        f"{report.wall_seconds:.2f}s ({summary['throughput_rps']:.0f} rps, "
        f"p99 {summary['p99_ms']:.0f}ms, peak in-flight {summary['peak_inflight']})"
    )
    # the ISSUE-10 acceptance criteria
    assert report.peak_inflight >= CLIENTS, (
        f"expected >= {CLIENTS} concurrent in-flight requests, "
        f"got {report.peak_inflight}"
    )
    assert report.unaccounted == 0, f"{report.unaccounted} requests unaccounted for"
    assert report.transport_errors == 0, (
        f"{report.transport_errors} transport-level failures"
    )
    assert report.ok >= CLIENTS  # every client's tick-0 request served


def _process_counters(pid: int) -> tuple[float, int]:
    """``(CPU seconds, voluntary context switches)`` of process ``pid``
    so far, the switches summed over its threads."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")  # utime + stime
    switches = 0
    for status in Path(f"/proc/{pid}/task").glob("*/status"):
        try:
            text = status.read_text()
        except OSError:  # the thread exited
            continue
        for line in text.splitlines():
            if line.startswith("voluntary_ctxt_switches:"):
                switches += int(line.split()[1])
    return cpu, switches


async def _closed_loop(host: str, port: int, requests: list) -> list:
    """Send ``requests`` over two keep-alive connections, each sending
    its next one when its last answer is in; returns the statuses."""
    pending = iter(requests)
    clients = [_HttpClient(host, port, timeout=60.0) for _ in range(2)]

    async def drive(client):
        await client.connect()
        try:
            return [await client.request(raw) for raw in pending]
        finally:
            await client.aclose()

    return [status for out in await asyncio.gather(*map(drive, clients)) for status in out]


async def _broker_stats(host: str, port: int) -> dict:
    """The server's ``/v1/statz`` broker counters."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET /v1/statz HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode())
    raw = await reader.read()
    writer.close()
    return json.loads(raw.split(b"\r\n\r\n", 1)[1])["broker"]


async def _batches(host: str, port: int) -> int:
    """The server's ``/v1/statz`` ``batches`` count."""
    return (await _broker_stats(host, port))["batches"]


def test_serve_fresh_misses_per_compute_path():
    assert MISS_SIZES[0] <= LOOP_MAX_LINKS < MISS_SIZES[1]
    seeds = iter(range(1, 1 + MISS_BODIES * len(MISS_SIZES)))
    bodies = {
        n: [
            _serialise_request(
                "bench",
                {"topology": build_topology_payload(FadingRLS(links=paper_topology(n, seed=s)))},
            )
            for s in itertools.islice(seeds, MISS_BODIES)
        ]
        for n in MISS_SIZES
    }
    proc, host, port = _spawn_server()
    config = {"bodies_per_size": MISS_BODIES, "connections": 2, "scheduler": "rle"}
    total = 0.0
    try:
        for n in MISS_SIZES:
            batches = asyncio.run(_batches(host, port))
            cpu, switches = _process_counters(proc.pid)
            t0 = time.perf_counter()
            statuses = asyncio.run(_closed_loop(host, port, bodies[n]))
            wall = time.perf_counter() - t0
            cpu_after, switches_after = _process_counters(proc.pid)
            moved = asyncio.run(_batches(host, port)) - batches
            assert statuses == [200] * MISS_BODIES
            # Every miss at or under LOOP_MAX_LINKS stays on the loop.
            assert moved == (0 if n <= LOOP_MAX_LINKS else MISS_BODIES)
            total += wall
            config[f"n{n}_wall_ms_per_request"] = round(wall / MISS_BODIES * 1e3, 4)
            config[f"n{n}_server_cpu_ms_per_request"] = round(
                (cpu_after - cpu) / MISS_BODIES * 1e3, 4
            )
            config[f"n{n}_voluntary_switches_per_request"] = round(
                (switches_after - switches) / MISS_BODIES, 3
            )
            config[f"n{n}_worker_computations"] = moved
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    bench_export.record("serve_fresh_misses", total, config)
    print("\nfresh misses: " + ", ".join(f"{k}={v}" for k, v in config.items()))



def test_serve_repeat_hits():
    problems = [FadingRLS(links=paper_topology(HIT_LINKS, seed=s)) for s in range(1, 1 + HIT_POOL)]
    bodies = [
        _serialise_request("bench", {"topology": build_topology_payload(p)}) for p in problems
    ]
    timed = bodies * HIT_PASSES
    proc, host, port = _spawn_server()
    try:
        # one pass fills the cache, the next answers from known bodies
        assert asyncio.run(_closed_loop(host, port, bodies * 2)) == [200] * (2 * HIT_POOL)
        before = asyncio.run(_broker_stats(host, port))
        cpu, switches = _process_counters(proc.pid)
        t0 = time.perf_counter()
        statuses = asyncio.run(_closed_loop(host, port, timed))
        wall = time.perf_counter() - t0
        cpu_after, switches_after = _process_counters(proc.pid)
        after = asyncio.run(_broker_stats(host, port))
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    assert statuses == [200] * len(timed)
    # every timed request was a hit on a known body
    assert after["cache"]["exact_hits"] - before["cache"]["exact_hits"] == len(timed)
    assert after["known_body"] - before["known_body"] == len(timed)
    config = {
        "pool": HIT_POOL,
        "n_links": HIT_LINKS,
        "passes": HIT_PASSES,
        "connections": 2,
        "wall_ms_per_request": round(wall / len(timed) * 1e3, 4),
        "server_cpu_ms_per_request": round((cpu_after - cpu) / len(timed) * 1e3, 4),
        "voluntary_switches_per_request": round((switches_after - switches) / len(timed), 4),
    }
    bench_export.record("serve_repeat_hits", wall, config)
    print("\nrepeat hits: " + ", ".join(f"{k}={v}" for k, v in config.items()))
