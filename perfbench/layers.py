"""Per-layer spans recorded from outside the program.

A traced run calls :func:`install`, which wraps public functions of
``repro`` (module attributes, class attributes and the scheduler
registry) so that each call records one span: ``(id, layer, start_ns,
end_ns, parent_id, op_id, quantity)``.  Spans stay in memory and are
written out when the run ends; :func:`summarize` turns them into
per-op self times.  Nothing inside ``src/`` is edited and ``repro.obs``
stays off.

Parents follow a :class:`contextvars.ContextVar`, so each asyncio task
and each executor thread keeps its own span stack.  The one hop that
loses context, ``ScheduleBroker.submit`` handing a problem to an
executor thread, is bridged by keying the pending submit span on the
problem object.

Clock: ``time.monotonic_ns`` (CLOCK_MONOTONIC on Linux), which is
system-wide, so a client process can filter server spans by its own
timed window.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict

clock = time.monotonic_ns


class Recorder:
    """In-memory span store plus the context that links parents."""

    def __init__(self) -> None:
        self.spans = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._op = contextvars.ContextVar("perfbench_op", default=None)
        # id(problem) -> (op, submit span id) for the executor hop.
        self._pending = {}

    def span(self, layer, *, parent=None, op=None):
        return _Span(self, layer, parent, op)

    def new_op(self, op=None):
        """Start a new op (``op`` or the next id) in the current context."""
        self._op.set(next(self._ops) if op is None else op)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _Span:
    __slots__ = ("rec", "layer", "parent", "op", "id", "start", "qty", "_tokens")

    def __init__(self, rec, layer, parent, op):
        self.rec = rec
        self.layer = layer
        self.parent = parent
        self.op = op
        self.qty = 0

    def __enter__(self):
        rec = self.rec
        self.id = next(rec._ids)
        if self.parent is None:
            self.parent = rec._current.get()
        if self.op is None:
            self.op = rec._op.get()
        self._tokens = (rec._current.set(self.id), rec._op.set(self.op))
        self.start = clock()
        return self

    def __exit__(self, *exc):
        end = clock()
        rec = self.rec
        rec._current.reset(self._tokens[0])
        rec._op.reset(self._tokens[1])
        rec.spans.append(
            (self.id, self.layer, self.start, end, self.parent, self.op, self.qty)
        )
        return False


def _wrap(rec, layer, fn, qty=None):
    """Span every call of ``fn``; ``qty(args, result)`` fills the quantity."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        with rec.span(layer) as s:
            result = fn(*args, **kwargs)
            if qty is not None:
                s.qty = qty(args, result)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every layer of the benchmark's table (see NOTES.md)."""
    import repro.cache.store as store
    import repro.channel.sampling as sampling
    import repro.sim.montecarlo as montecarlo
    import repro.sim.parallel as parallel
    from repro.backend import base as backend_base
    from repro.core import base as core_base
    from repro.core.problem import FadingRLS
    from repro.experiments.config import TopologyWorkload
    from repro.network.links import LinkSet
    from repro.service import schemas
    from repro.service.broker import ScheduleBroker

    TopologyWorkload.__call__ = _wrap(rec, "network.topology", TopologyWorkload.__call__)
    LinkSet.sender_receiver_distances = _wrap(
        rec,
        "geometry.distance",
        LinkSet.sender_receiver_distances,
        qty=lambda args, result: int(result.size),
    )

    build_f = FadingRLS.interference_matrix

    @functools.wraps(build_f)
    def interference_matrix(self):
        # Only builds get a span; a cached return is part of its caller.
        if not rec.enabled or "F" in getattr(self, "_cache", ()):
            return build_f(self)
        with rec.span("core.problem") as s:
            s.qty = 1
            return build_f(self)

    FadingRLS.interference_matrix = interference_matrix

    core_base.list_schedulers()  # imports every built-in scheduler module
    registry = core_base._REGISTRY
    for name, fn in list(registry.items()):
        layer = fn.__module__.removeprefix("repro.")
        registry[name] = _wrap(rec, layer, fn, qty=lambda args, result: int(result.size))

    replay = _wrap(
        rec,
        "sim.montecarlo",
        montecarlo.simulate_schedule,
        qty=lambda args, result: int(result.n_trials) * int(result.n_scheduled),
    )
    montecarlo.simulate_schedule = replay
    parallel.simulate_schedule = replay

    draw = sampling.iter_fading_trials

    @functools.wraps(draw)
    def iter_fading_trials(*args, **kwargs):
        chunks = draw(*args, **kwargs)
        while True:
            if rec.enabled:
                with rec.span("channel.sampling") as s:
                    try:
                        z = next(chunks)
                    except StopIteration:
                        return
                    s.qty = 1
            else:
                try:
                    z = next(chunks)
                except StopIteration:
                    return
            yield z
            # Hold no chunk while the next one is drawn (peak memory).
            del z

    montecarlo.iter_fading_trials = iter_fading_trials
    sampling.iter_fading_trials = iter_fading_trials

    active = backend_base.get_active()
    active.mc_success_chunk = _wrap(rec, "backend.kernels", active.mc_success_chunk)

    parse = schemas.parse_schedule_request

    @functools.wraps(parse)
    def parse_schedule_request(payload):
        if not rec.enabled:
            return parse(payload)
        # One op per request; it stays set in the connection task's
        # context for the submit and payload spans that follow.
        rec.new_op()
        with rec.span("service.schemas"):
            return parse(payload)

    schemas.parse_schedule_request = parse_schedule_request
    schemas.schedule_payload = _wrap(rec, "service.schemas", schemas.schedule_payload)

    submit = ScheduleBroker.submit

    @functools.wraps(submit)
    async def broker_submit(self, problem, **kwargs):
        if not rec.enabled:
            return await submit(self, problem, **kwargs)
        with rec.span("service.broker") as s:
            rec._pending[id(problem)] = (s.op, s.id)
            try:
                return await submit(self, problem, **kwargs)
            finally:
                rec._pending.pop(id(problem), None)

    ScheduleBroker.submit = broker_submit

    lookup = store.ScheduleCache.schedule

    @functools.wraps(lookup)
    def cache_schedule(self, problem, *args, **kwargs):
        if not rec.enabled:
            return lookup(self, problem, *args, **kwargs)
        op, parent = rec._pending.get(id(problem), (None, None))
        with rec.span("cache.store", parent=parent, op=op):
            return lookup(self, problem, *args, **kwargs)

    store.ScheduleCache.schedule = cache_schedule
    store.exact_key = _wrap(rec, "cache.fingerprint", store.exact_key)
    store.fingerprint_with_order = _wrap(
        rec, "cache.fingerprint", store.fingerprint_with_order
    )


#: Per-layer quantities besides ``<layer>.self_ms``: metric -> (layer, kind)
#: where kind ``calls`` counts spans and ``qty`` sums span quantities.
QUANTITIES = {
    "geometry.distance.calls": ("geometry.distance", "calls"),
    "geometry.distance.cells": ("geometry.distance", "qty"),
    "core.problem.fmatrix_builds": ("core.problem", "qty"),
    "sim.montecarlo.trial_links": ("sim.montecarlo", "qty"),
    "channel.sampling.chunks": ("channel.sampling", "qty"),
    "cache.fingerprint.calls": ("cache.fingerprint", "calls"),
}

SCHEDULER_LAYERS = (
    "core.ldp",
    "core.rle",
    "core.baselines.approx_logn",
    "core.baselines.approx_diversity",
)

#: Layer -> the metric of its self time (for the broker: the wait it adds).
TIME_METRICS = {
    **{
        layer: f"{layer}.self_ms"
        for layer in (
            "network.topology",
            "geometry.distance",
            "core.problem",
            *SCHEDULER_LAYERS,
            "sim.montecarlo",
            "channel.sampling",
            "backend.kernels",
            "sim.runner",
            "service.server",
            "service.schemas",
            "cache.store",
            "cache.fingerprint",
        )
    },
    "service.broker": "service.broker.wait_ms",
}


def summarize(spans, *, n_ops, window=None, client_latency_ns=None):
    """Per-op layer metrics from raw spans.

    ``window=(start_ns, end_ns)`` keeps only spans inside it.  For the
    serve workloads ``client_latency_ns`` is the sum of client-side
    latencies; ``service.server`` is that minus the top-level server
    spans.  Returns ``(metrics, self_ms_by_layer)``.
    """
    if window is not None:
        lo, hi = window
        spans = [s for s in spans if s[2] >= lo and s[3] <= hi]
    child_ns = defaultdict(int)
    for sid, layer, start, end, parent, op, qty in spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    qtys = defaultdict(int)
    top_ns = 0
    admitted = 0
    for sid, layer, start, end, parent, op, qty in spans:
        self_ns[layer] += (end - start) - child_ns.get(sid, 0)
        calls[layer] += 1
        qtys[layer] += qty
        if parent is None:
            top_ns += end - start
        if layer in SCHEDULER_LAYERS:
            admitted += qty
    if client_latency_ns is not None:
        self_ns["service.server"] = client_latency_ns - top_ns
    per_op = 1e6 * n_ops  # ns -> ms per op
    self_ms = {layer: self_ns.get(layer, 0) / per_op for layer in TIME_METRICS}
    metrics = {TIME_METRICS[layer]: (v, "ms/op") for layer, v in self_ms.items()}
    for name, (layer, kind) in QUANTITIES.items():
        value = calls[layer] if kind == "calls" else qtys[layer]
        metrics[name] = (value / n_ops, "count/op")
    metrics["core.links_admitted"] = (admitted / n_ops, "count/op")
    return metrics, self_ms
