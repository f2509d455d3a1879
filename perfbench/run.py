#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the repro experiment and serving paths.

Run from the repository root::

    python3 perfbench/run.py --workload serve-fresh --seed 7 --seconds 20 --trace 0

Workloads (``NOTES.md`` gives the rationale and the layer table):

``fig5-sweep``
    One op is one repetition of the paper's Fig. 5(a) N=500 point (four
    schedulers, 500-trial Rayleigh replay, ``n_jobs=1``, numpy backend);
    ops run back to back in one program process.
``serve-fresh``
    ``repro serve --port 0 --quiet``; two keep-alive connections run a
    closed loop, each request a never-seen 200-link topology (cache miss).
``serve-repeat``
    Same server; set-up caches 16 distinct 300-link topologies, then two
    connections cycle through them (every timed request an exact hit).

A run sends a fixed op sequence: ``--seconds`` times the workload's
nominal rate (at least ``MIN_OPS``), derived from ``--seed`` alone and
built before the program process starts.  Warm-up happens during
set-up; outputs are checked after the timed window.  The timed ops run
in blocks of about a second; between blocks, with nothing in flight,
:func:`calib.measure` reads the CPU's speed, and every timing is scaled
to the reference machine state (see :mod:`calib`).

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
over ``SETUP_BOOTS`` boots of the program, each scaled as a wall
duration by readings taken around its set-up.  ``--trace 1`` runs the
same sequence once untraced and once with the :mod:`layers` wrappers and
reports per-op layer metrics.  ``src/`` is byte-compiled (compileall)
before the first boot so every boot imports from bytecode.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give each metric with its sample
count, and the program's counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib
import layers

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("fig5-sweep", "serve-fresh", "serve-repeat")
#: Ops per second each workload sustains on a 2-vCPU x86 machine; a run
#: sends ``--seconds`` times this many ops, so it measures for about
#: ``--seconds`` there and for less once the program gets faster.  A
#: block of timed ops between two speed readings is one second's worth.
NOMINAL_OPS_PER_S = {"fig5-sweep": 10, "serve-fresh": 40, "serve-repeat": 600}
#: p95 needs at least ten samples beyond it, in a run and in each slice.
MIN_OPS = 200
MAX_SLICES = 10
SETUP_BOOTS = 5
DEADLINE_S = 170.0

FIG5_WARMUP_OPS = 2
FRESH_LINKS = 200
FRESH_WARMUP = 8
#: serve-fresh checks every 16th timed response against a direct run.
FRESH_CHECK_EVERY = 16
POOL_SIZE = 16
POOL_LINKS = 300


class BenchError(RuntimeError):
    """The benchmark could not produce a result (no JSON is printed)."""


def derive(seed: int, *parts) -> int:
    """A 32-bit input seed that depends only on the run seed and ``parts``."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def die_with_parent() -> None:
    """Child-side: get SIGKILL if the benchmark dies, so no server outlives it."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Deadline and child processes of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.n_ops = max(MIN_OPS, round(NOMINAL_OPS_PER_S[workload] * seconds))
        self.block_ops = NOMINAL_OPS_PER_S[workload]
        self.deadline = time.monotonic() + DEADLINE_S
        self.children = []

    def left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def stop_all(self) -> None:
        for child in self.children:
            if child.proc.poll() is None:
                child.proc.kill()
            child.proc.wait()


class Child:
    """A program process: stdout read line by line, stderr kept in a file."""

    def __init__(self, run: Run, cmd, tag: str, stdin: bytes | None = None) -> None:
        self.run = run
        self.tag = tag
        self.stderr_path = WORK / f"{tag}.stderr"
        self._buf = b""
        self.t0 = time.monotonic()
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd,
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                preexec_fn=die_with_parent,
            )
        run.children.append(self)
        if stdin is not None:
            self.proc.stdin.write(stdin)
            self.proc.stdin.close()

    def readline(self) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            ready, _, _ = select.select([fd], [], [], min(self.run.left(), 5.0))
            if not ready:
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise BenchError(f"{self.tag} exited early:\n{self.stderr()[-2000:]}")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode()

    def wait(self) -> int:
        try:
            return self.proc.wait(timeout=self.run.left())
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"{self.tag} did not exit") from None

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace")


# -- /proc readings ----------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU of a process (all threads), from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, all vCPUs (/proc/stat)."""
    return calib.ticks()[1] / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"VmHWM missing for pid {pid}")


# -- metrics -----------------------------------------------------------------


def timing_metrics(times_ns, blocks, good, cpu_s, hwm_mb):
    """End-to-end metrics of one timed window: ``{name: (value, unit, samples)}``.

    ``times_ns[i]`` is op i's ``(start, end)``; ``blocks`` holds ``(lo, hi,
    start_ns, end_ns, cal_before_ms, cal_after_ms, unstolen)`` per block
    of ops ``lo..hi-1``; ``good`` holds the ops that passed their checks.
    A block's CPU factor is :func:`calib.cpu_speed` of the mean of its
    two readings; its wall durations are scaled by that factor times its
    unstolen share, and CPU time by the factor alone.  ``ops_per_s`` is
    the median over blocks of the block's OK ops per scaled second.  The
    latency percentiles are medians over equal slices of at least
    ``MIN_OPS`` ops (at most ``MAX_SLICES``), so p95 has ten samples
    beyond it in every slice.
    """
    n = len(times_ns)
    lat_ms = [None] * n
    rates, wall_factors, busy_ns, cpu_scaled_ns = [], [], 0, 0.0
    for lo, hi, t0, t1, c0, c1, share in blocks:
        cpu_factor = calib.cpu_speed((c0 + c1) / 2)
        wall_factor = cpu_factor * share
        ok = [i for i in range(lo, hi) if i in good]
        for i in ok:
            lat_ms[i] = (times_ns[i][1] - times_ns[i][0]) / 1e6 * wall_factor
        rates.append(len(ok) / ((t1 - t0) / 1e9 * wall_factor))
        wall_factors.append(wall_factor)
        busy_ns += t1 - t0
        cpu_scaled_ns += (t1 - t0) * cpu_factor
    n_slices = max(1, min(MAX_SLICES, n // MIN_OPS))
    p50s, p95s = [], []
    for k in range(n_slices):
        lat = [lat_ms[i] for i in range(k * n // n_slices, (k + 1) * n // n_slices)
               if lat_ms[i] is not None]
        if len(lat) >= 2:
            p50s.append(statistics.median(lat))
            p95s.append(percentile(lat, 95))
    ok = len(good)
    cpu_factor = cpu_scaled_ns / busy_ns
    print(f"counter calib.cpu_factor = {cpu_factor}")
    print(f"counter calib.unstolen = {statistics.median(b[6] for b in blocks)} (median of "
          f"{len(blocks)} blocks, min {min(b[6] for b in blocks)})")
    print(f"counter calib.wall_factor = {statistics.median(wall_factors)} (median; "
          f"min {min(wall_factors)}, max {max(wall_factors)})")
    print(f"counter unscaled.ops_per_s = {ok / (busy_ns / 1e9)}")
    print(f"counter unscaled.cpu_ms_per_op = {cpu_s * 1000.0 / ok}")
    return {
        "ops_per_s": (statistics.median(rates), "1/s", ok),
        "latency_p50_ms": (statistics.median(p50s), "ms", ok),
        "latency_p95_ms": (statistics.median(p95s), "ms", ok),
        "cpu_ms_per_op": (cpu_s * 1000.0 * cpu_factor / ok, "ms", ok),
        "peak_rss_mb": (hwm_mb, "MB", 1),
    }


def layer_metrics(spans, *, n_ops, op_ms, ops_per_s, untraced_ops_per_s, **kwargs):
    """Per-layer metrics plus ``unaccounted_ms`` and ``trace_overhead_ratio``."""
    metrics, self_ms = layers.summarize(spans, n_ops=n_ops, **kwargs)
    metrics["unaccounted_ms"] = (op_ms - sum(self_ms.values()), "ms/op")
    metrics["trace_overhead_ratio"] = (ops_per_s / untraced_ops_per_s, "ratio")
    top = max(self_ms, key=self_ms.get)
    print(f"top self-time layer: {top} ({self_ms[top]:.3f} ms/op of {op_ms:.3f} ms/op)")
    return {k: (v, unit, n_ops) for k, (v, unit) in metrics.items()}


# -- fig5-sweep ----------------------------------------------------------------


def fig5_boot(run: Run, plan: bytes, tag: str, *, probe=False, spans=None):
    """Boot the fig5 worker; returns ``(setup_s, unscaled setup_s, ready, final)``.

    ``setup_s`` is scaled by the unstolen share of the set-up and by
    the CPU factor of the mean of the readings just before the boot and
    just after set-up: the worker's first one, or for a probe boot one
    taken once it has exited.
    """
    cmd = [sys.executable, str(HERE / "fig5_worker.py"), "--block", str(run.block_ops)]
    if probe:
        cmd.append("--probe")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    before = calib.measure()
    ticks0 = calib.ticks()
    child = Child(run, cmd, tag, stdin=plan)
    ready = json.loads(child.readline())
    setup_s = time.monotonic() - child.t0
    share = calib.unstolen(ticks0, calib.ticks())
    steal0 = steal_s()
    final = None if probe else json.loads(child.readline())
    if final is not None:
        final["steal_s"] = steal_s() - steal0
    rc = child.wait()
    if rc != 0:
        raise BenchError(f"{tag} exited with {rc}:\n{child.stderr()[-2000:]}")
    after = calib.measure() if final is None else final["blocks"][0][4]
    return setup_s * calib.cpu_speed((before + after) / 2) * share, setup_s, ready, final


def certify_fig5(root_seeds, ops):
    """Indices of ops whose LDP and RLE schedules all pass Corollary 3.1.

    Each op's topology is rebuilt from its root seed the way
    ``failed_vs_links`` derives it (point seed, then repetition 0).
    """
    import numpy as np

    from repro.core.certify import certify
    from repro.core.problem import FadingRLS
    from repro.experiments.config import ExperimentConfig
    from repro.utils.rng import stable_seed

    good = set()
    for i, (root_seed, op) in enumerate(zip(root_seeds, ops)):
        if op is None:
            continue
        cfg = ExperimentConfig(root_seed=root_seed)
        point_seed = stable_seed("fig5a", 500, root=root_seed)
        links = cfg.workload(500)(stable_seed("workload", 0, root=point_seed))
        problem = FadingRLS(links=links, alpha=cfg.alpha_default,
                            gamma_th=cfg.gamma_th, eps=cfg.eps)
        try:
            ok = all(certify(problem, np.asarray(active, dtype=np.int64)).feasible
                     for name in ("ldp", "rle") for active in op[name])
        except (IndexError, ValueError):
            ok = False
        if ok:
            good.add(i)
    return good


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ledger_check(run: Run, digests):
    """Indices whose digest matches an earlier run of this seed and source.

    The first run of a (seed, op count, source) key records its digests
    in ``.bench_build``; later runs must reproduce them exactly.
    """
    path = WORK / "fig5-digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    key = f"{run.seed}:{run.n_ops}:{source_hash()}"
    if key not in ledger:
        ledger[key] = digests
        path.write_text(json.dumps(ledger))
        return set(range(len(digests)))
    return {i for i, (a, b) in enumerate(zip(digests, ledger[key])) if a == b}


def run_fig5(run: Run, trace: bool):
    warmup = [derive(run.seed, "fig5-warmup", k) for k in range(FIG5_WARMUP_OPS)]
    timed = [derive(run.seed, "fig5", i) for i in range(run.n_ops)]
    plan = json.dumps({"warmup": warmup, "timed": timed}).encode()

    setups, unscaled, warm_digests = [], [], set()
    boots = 1 if trace else SETUP_BOOTS
    for b in range(boots):
        setup_s, raw_s, ready, final = fig5_boot(run, plan, f"fig5-{b}", probe=b < boots - 1)
        setups.append(setup_s)
        unscaled.append(raw_s)
        warm_digests.add(tuple(ready["warmup_digests"]))
    for err in final["errors"]:
        print(f"op failed: {err}", file=sys.stderr)

    ops = final["ops"]
    digests = [None if op is None else op["digest"] for op in ops]
    good = certify_fig5(timed, ops) & ledger_check(run, digests)
    correct = len(warm_digests) == 1
    print(f"check: warm-up digests identical across {boots} boot(s): {correct}")
    print(f"check: {len(good)}/{run.n_ops} ops certified (LDP+RLE) and digest-stable")
    print(f"counter run_digest = {hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:16]}")
    print(f"counter machine.steal_s = {final['steal_s']}")

    attempted = run.n_ops
    if not good:
        raise BenchError("no fig5-sweep op passed its checks")
    metrics = timing_metrics(final["times_ns"], final["blocks"], good, final["cpu_s"],
                             final["peak_rss_kb"] / 1024.0)
    if not trace:
        print(f"counter unscaled.setup_s = {statistics.median(unscaled)}")
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
        return correct, attempted, attempted - len(good), metrics

    spans_path = WORK / "fig5-spans.json"
    _, _, _, traced = fig5_boot(run, plan, "fig5-traced", spans=spans_path)
    traced_good = {i for i, op in enumerate(traced["ops"])
                   if i in good and op is not None and op["digest"] == digests[i]}
    print(f"check: {len(traced_good)}/{run.n_ops} traced ops match the untraced digests")
    traced_metrics = timing_metrics(traced["times_ns"], traced["blocks"], traced_good,
                                    traced["cpu_s"], traced["peak_rss_kb"] / 1024.0)
    spans = json.loads(spans_path.read_text())
    metrics = layer_metrics(
        spans,
        n_ops=run.n_ops,
        op_ms=sum(b[3] - b[2] for b in traced["blocks"]) / 1e6 / run.n_ops,
        ops_per_s=traced_metrics["ops_per_s"][0],
        untraced_ops_per_s=metrics["ops_per_s"][0],
    )
    failed = 2 * attempted - len(good) - len(traced_good)
    return correct, 2 * attempted, failed, metrics


# -- serve-fresh / serve-repeat ------------------------------------------------


def http(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    if body:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


class Conn:
    """One keep-alive client connection with minimal HTTP/1.1 framing."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def request(self, raw: bytes):
        """Send ``raw``; returns ``(status, body)``."""
        self.sock.sendall(raw)
        buf = self.buf
        while (end := buf.find(b"\r\n\r\n")) < 0:
            self._recv()
        head = bytes(buf[:end]).lower()
        at = head.index(b"content-length:") + 15
        stop = head.find(b"\r\n", at)
        total = end + 4 + int(head[at:stop if stop >= 0 else None])
        while len(buf) < total:
            self._recv()
        status = int(buf[9:12])
        body = bytes(buf[end + 4:total])
        del buf[:total]
        return status, body

    def _recv(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def close(self) -> None:
        """Half-close, wait for the server to close its side, then close."""
        try:
            self.sock.shutdown(socket.SHUT_WR)
            while self.sock.recv(1 << 16):
                pass
        except OSError:
            pass
        finally:
            self.sock.close()


def closed_loop(conns, raws, block_ops=None):
    """Send ``raws`` over both connections, each sending its next request
    when the previous reply arrives; connection ``c`` sends ``raws[c::2]``.

    With ``block_ops`` the ops run in blocks of that many: at the end of
    each block both connections wait, with nothing in flight, while
    :func:`calib.measure` reads the CPU's speed.

    Returns ``(results, blocks)``: ``results[i] = (sent_ns, done_ns,
    status, body)`` (status 0 for a transport error) and ``blocks`` as
    :func:`timing_metrics` takes them (speed readings 0.0 without
    ``block_ops``).
    """
    n = len(raws)
    step = block_ops or n
    results = [None] * n
    blocks = []
    cal = [calib.measure() if block_ops else 0.0]
    gate = threading.Barrier(2)

    def drive(c: int) -> None:
        conn, dead = conns[c], None
        try:
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                gate.wait()
                t0 = time.monotonic_ns()
                if c == 0:
                    ticks0 = calib.ticks()
                for i in range(lo + c, hi, 2):
                    t = time.monotonic_ns()
                    if dead is not None:
                        results[i] = (t, t, 0, dead)
                        continue
                    try:
                        status, body = conn.request(raws[i])
                    except (OSError, ValueError) as exc:
                        dead = repr(exc).encode()
                        results[i] = (t, time.monotonic_ns(), 0, dead)
                        continue
                    results[i] = (t, time.monotonic_ns(), status, body)
                gate.wait()
                if c == 0:
                    t1 = time.monotonic_ns()
                    share = calib.unstolen(ticks0, calib.ticks())
                    cal.append(calib.measure() if block_ops else 0.0)
                    blocks.append((lo, hi, t0, t1, cal[-2], cal[-1], share))
        except BaseException:
            gate.abort()  # the other connection must not wait for this one
            raise

    helper = threading.Thread(target=drive, args=(1,))
    helper.start()
    try:
        drive(0)
    finally:
        helper.join()
    return results, blocks


def statz(conn: Conn) -> dict:
    status, body = conn.request(http("GET", "/v1/statz"))
    if status != 200:
        raise BenchError(f"/v1/statz answered {status}")
    return json.loads(body)["broker"]


def statz_counters(before: dict, after: dict) -> dict:
    """Window deltas of the service and cache counters."""
    def d(key):
        return after[key] - before[key]

    def cache_d(key):
        return after["cache"][key] - before["cache"][key]

    hits = sum(cache_d(k) for k in ("exact_hits", "canonical_hits", "warm_hits"))
    lookups = hits + cache_d("misses")
    return {
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.misses": cache_d("misses"),
        "cache.evictions": cache_d("evictions"),
        "service.coalesced_ratio": d("coalesced") / max(1, d("requests")),
        "service.batch_size_mean": (d("scheduled") + d("errors")) / max(1, d("batches")),
        "service.errors": d("errors"),
    }


def serve_boot(run: Run, warmup, timed, tag: str, spans=None):
    """Boot ``repro serve``, warm up, optionally run the timed window, shut down.

    Returns a dict with ``setup_s`` (scaled by its unstolen share and by
    the CPU factor of the mean of the readings just before the boot and
    just after warm-up, with the server idle), ``warm`` (warm-up results) and,
    when ``timed`` is given, the window's results and blocks, CPU, VmHWM
    and statz.
    """
    if spans is None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet"]
    else:
        cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans),
               "serve", "--port", "0", "--quiet"]
    cal_before = calib.measure()
    ticks0 = calib.ticks()
    child = Child(run, cmd, tag)
    conns = []
    out = {}
    try:
        line = child.readline()
        if "listening on http://" not in line:
            raise BenchError(f"unexpected server banner: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        conns = [Conn(port), Conn(port)]
        for _ in range(100):
            if conns[0].request(http("GET", "/v1/healthz"))[0] == 200:
                break
            time.sleep(0.01)
        else:
            raise BenchError("/v1/healthz never answered 200")
        out["warm"], _ = closed_loop(conns, warmup)
        out["unscaled_setup_s"] = time.monotonic() - child.t0
        share = calib.unstolen(ticks0, calib.ticks())
        cal_after = calib.measure()
        out["setup_s"] = (out["unscaled_setup_s"] * share
                          * calib.cpu_speed((cal_before + cal_after) / 2))
        if timed is not None:
            pid = child.proc.pid
            before = statz(conns[0])
            cpu0, steal0 = proc_cpu_s(pid), steal_s()
            out["results"], out["blocks"] = closed_loop(conns, timed, run.block_ops)
            out["cpu_s"] = proc_cpu_s(pid) - cpu0
            out["steal_s"] = steal_s() - steal0
            out["hwm_mb"] = proc_hwm_mb(pid)
            out["counters"] = statz_counters(before, statz(conns[0]))
    finally:
        for conn in conns:
            conn.close()
        if child.proc.poll() is None:
            child.proc.send_signal(signal.SIGTERM)
        rc = child.wait()
    err = child.stderr()
    out["clean_exit"] = rc == 0 and "Traceback" not in err
    if not out["clean_exit"]:
        print(f"{tag}: exit code {rc}; stderr:\n{err[-2000:]}", file=sys.stderr)
    return out


def topology_body(n_links: int, seed: int) -> bytes:
    from repro.network.topology import paper_topology

    links = paper_topology(n_links, seed=seed)
    return json.dumps({
        "topology": {"senders": links.senders.tolist(),
                     "receivers": links.receivers.tolist()},
        "scheduler": "rle",
    }).encode()


def direct_rle(body: bytes):
    """The schedule ``get_scheduler("rle")`` returns for a request body."""
    import numpy as np

    from repro.core.base import get_scheduler
    from repro.core.problem import FadingRLS
    from repro.network.links import LinkSet

    topo = json.loads(body)["topology"]
    links = LinkSet(senders=np.asarray(topo["senders"], dtype=float),
                    receivers=np.asarray(topo["receivers"], dtype=float))
    return [int(i) for i in get_scheduler("rle")(FadingRLS(links=links)).active]


def check_responses(results, bodies, expected, n_links):
    """Indices of results that are 200s with a sane (and, where expected
    is known, exact) schedule."""
    good = set()
    for i, (_, _, status, payload) in enumerate(results):
        if status != 200:
            continue
        try:
            answer = json.loads(payload)
        except ValueError:
            continue
        active = answer.get("active")
        if answer.get("n_links") != n_links or not isinstance(active, list):
            continue
        if active != sorted(set(active)) or (active and not 0 <= active[0] <= active[-1] < n_links):
            continue
        want = expected.get(bodies[i])
        if want is None or active == want:
            good.add(i)
    return good


def run_serve(run: Run, trace: bool):
    fresh = run.workload == "serve-fresh"
    if fresh:
        n_links = FRESH_LINKS
        warm_bodies = [topology_body(n_links, derive(run.seed, "fresh-warmup", k))
                       for k in range(FRESH_WARMUP)]
        bodies = [topology_body(n_links, derive(run.seed, "fresh", i))
                  for i in range(run.n_ops)]
        checked = bodies[::FRESH_CHECK_EVERY]
    else:
        n_links = POOL_LINKS
        pool = [topology_body(n_links, derive(run.seed, "pool", p)) for p in range(POOL_SIZE)]
        warm_bodies = pool + pool  # fill the cache once, then one pass of hits
        bodies = [pool[i % POOL_SIZE] for i in range(run.n_ops)]
        checked = pool
    post = {b: http("POST", "/v1/schedule", b) for b in set(warm_bodies) | set(bodies)}
    warmup = [post[b] for b in warm_bodies]
    timed = [post[b] for b in bodies]

    def boot(tag, with_window, spans=None):
        return serve_boot(run, warmup, timed if with_window else None, tag, spans)

    boots = [boot(f"{run.workload}-{b}", False) for b in range(0 if trace else SETUP_BOOTS - 1)]
    final = boot(f"{run.workload}-{len(boots)}", True)
    boots.append(final)
    traced = None
    if trace:
        spans_path = WORK / f"{run.workload}-spans.json"
        traced = boot(f"{run.workload}-traced", True, spans=spans_path)

    expected = {b: direct_rle(b) for b in checked}
    every_boot = boots + ([traced] if traced else [])
    correct = all(b["clean_exit"] for b in every_boot)
    warm_good = [check_responses(b["warm"], warm_bodies, expected, n_links) for b in every_boot]
    if any(len(g) != len(warm_bodies) for g in warm_good):
        print("check: a warm-up response failed its check", file=sys.stderr)
        correct = False

    def window(out):
        good = check_responses(out["results"], bodies, expected, n_links)
        counters = out["counters"]
        for name, value in counters.items():
            print(f"counter {name} = {value}")
        latency_ns = sum(r[1] - r[0] for r in out["results"])
        busy_ns = sum(b[3] - b[2] for b in out["blocks"])
        print(f"counter requests_in_flight_mean = {latency_ns / busy_ns}")
        print(f"counter proc.cpu_s = {out['cpu_s']}")
        print(f"counter proc.vmhwm_mb = {out['hwm_mb']}")
        print(f"counter machine.steal_s = {out['steal_s']}")
        print(f"check: {len(good)}/{run.n_ops} responses are 200s with a valid schedule "
              f"({len(checked)} compared with a direct rle run)")
        if counters["service.errors"] or (not fresh and counters["cache.misses"]):
            print("check: errors or timed-window cache misses", file=sys.stderr)
            return set()
        return good

    def metrics_of(out, good):
        return timing_metrics([r[:2] for r in out["results"]], out["blocks"], good,
                              out["cpu_s"], out["hwm_mb"])

    good = window(final)
    if not good:
        raise BenchError(f"no {run.workload} request passed its checks")
    metrics = metrics_of(final, good)
    if not trace:
        print(f"counter unscaled.setup_s = {statistics.median(b['unscaled_setup_s'] for b in boots)}")
        setups = [b["setup_s"] for b in boots]
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
        return correct, run.n_ops, run.n_ops - len(good), metrics

    traced_good = window(traced)
    spans = json.loads(spans_path.read_text())
    metrics = layer_metrics(
        spans,
        n_ops=run.n_ops,
        # two connections, so each op's cycle is two windows' share
        op_ms=2 * sum(b[3] - b[2] for b in traced["blocks"]) / 1e6 / run.n_ops,
        ops_per_s=metrics_of(traced, traced_good)["ops_per_s"][0],
        untraced_ops_per_s=metrics["ops_per_s"][0],
        window=(traced["blocks"][0][2], traced["blocks"][-1][3]),
        client_latency_ns=sum(r[1] - r[0] for r in traced["results"]),
    )
    failed = 2 * run.n_ops - len(good) - len(traced_good)
    return correct, 2 * run.n_ops, failed, metrics


# -- main ------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds through the finally below, which stops every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds)
    print(f"# workload {run.workload} seed {run.seed} ops {run.n_ops} trace {args.trace}")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    print("# bytecode: src/ byte-compiled before the first boot")
    try:
        if run.workload == "fig5-sweep":
            correct, attempted, failed, metrics = run_fig5(run, bool(args.trace))
        else:
            correct, attempted, failed, metrics = run_serve(run, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.stop_all()
    for name, (value, unit, samples) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
