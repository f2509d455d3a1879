"""Load-generator tests: deterministic traces, closed accounting.

Small client counts keep tier-1 fast; the 1000-client proof lives in
``benchmarks/test_service_smoke.py`` and the CI ``service`` leg.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.service.broker import ScheduleBroker
from repro.service.loadgen import (
    LoadReport,
    build_topology_payload,
    request_trace,
    run_loadgen,
    topology_pool,
)
from repro.service.server import ScheduleServer
from repro.utils.validation import ValidationError


class TestRequestTrace:
    def test_trace_is_seed_deterministic(self):
        a = request_trace(20, 3, "spikes", seed=5)
        b = request_trace(20, 3, "spikes", seed=5)
        c = request_trace(20, 3, "spikes", seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_first_tick_guarantees_full_concurrency(self):
        for family in ("poisson", "onoff", "diurnal", "spikes"):
            counts = request_trace(15, 2, family, seed=0)
            assert counts.shape == (2, 15)
            assert (counts[0] >= 1).all()

    def test_pool_is_deterministic_and_distinct(self):
        pool_a = topology_pool(3, 8, seed=4)
        pool_b = topology_pool(3, 8, seed=4)
        for pa, pb in zip(pool_a, pool_b):
            assert np.array_equal(pa.links.senders, pb.links.senders)
        fingerprints = {tuple(p.links.senders.ravel()) for p in pool_a}
        assert len(fingerprints) == 3


class TestDirectMode:
    """``run_loadgen(broker=...)`` serves the broker in process over HTTP."""

    def _run(self, **kwargs):
        async def drive():
            broker = ScheduleBroker(**kwargs.pop("broker_kwargs", {}))
            try:
                return await run_loadgen(broker=broker, **kwargs)
            finally:
                await broker.close()

        return asyncio.run(drive())

    @pytest.mark.parametrize("value", [-1, 0, 1, 2])
    @pytest.mark.parametrize("field", ["clients", "ticks", "pool", "tenants", "n_links"])
    def test_counts_are_checked_before_any_client_starts(self, field, value):
        minimum = 0 if field in ("clients", "n_links") else 1
        kwargs = {"clients": 1, "ticks": 1, "pool": 1, "n_links": 3, field: value}
        try:
            report = self._run(**kwargs)
        except ValidationError as exc:
            assert value < minimum and exc.param == field
        else:
            assert value >= minimum and report.unaccounted == 0

    def test_all_requests_accounted(self):
        report = self._run(clients=25, ticks=2, seed=1, n_links=8)
        assert report.sent == request_trace(25, 2, "spikes", 1).sum()
        assert report.ok == report.sent
        assert report.unaccounted == 0
        assert report.peak_inflight >= 25
        assert len(report.latencies) == report.ok

    def test_backpressure_is_counted_not_lost(self, worker_path):
        report = self._run(
            clients=30,
            ticks=1,
            seed=2,
            n_links=6,
            pool=30,  # all-distinct topologies: no coalescing relief
            broker_kwargs={"queue_limit": 4},
        )
        assert report.rejected_503 > 0
        assert report.ok + report.rejected_503 == report.sent
        assert report.unaccounted == 0

    def test_tenant_rate_limits_surface_as_429(self):
        report = self._run(
            clients=10,
            ticks=1,
            seed=3,
            n_links=6,
            tenants=2,
            broker_kwargs={"tenant_rate": 0.001, "tenant_burst": 2.0},
        )
        # two tenants x burst 2 = 4 admitted, the rest rate-limited
        assert report.ok == 4
        assert report.rejected_429 == report.sent - 4
        assert report.unaccounted == 0

    def test_outcome_counts_are_deterministic(self):
        kwargs = dict(clients=12, ticks=2, seed=9, n_links=6)
        a = self._run(**kwargs)
        b = self._run(**kwargs)
        assert (a.sent, a.ok, a.rejected_429, a.rejected_503) == (
            b.sent,
            b.ok,
            b.rejected_429,
            b.rejected_503,
        )


class TestHttpMode:
    def test_against_live_server(self):
        async def drive():
            broker = ScheduleBroker()
            server = ScheduleServer(broker, port=0)
            host, port = await server.start()
            try:
                return await run_loadgen(
                    host=host, port=port, clients=20, ticks=2, seed=7, n_links=8
                )
            finally:
                await server.close()
                await broker.close(drain=False)

        report = asyncio.run(drive())
        assert report.ok == report.sent
        assert report.transport_errors == 0
        assert report.unaccounted == 0
        assert report.peak_inflight >= 20
        assert report.percentile_ms(0.99) >= report.percentile_ms(0.50) >= 0

    def test_connect_failure_counts_as_transport_errors(self):
        async def drive():
            # nothing listens on this port: every request becomes a
            # transport error, none unaccounted
            return await run_loadgen(
                host="127.0.0.1", port=9, clients=5, ticks=1, seed=0, timeout=2.0
            )

        report = asyncio.run(drive())
        assert report.ok == 0
        assert report.transport_errors == report.sent
        assert report.unaccounted == 0

    def test_mode_arguments_are_exclusive(self):
        with pytest.raises(ValueError):
            asyncio.run(run_loadgen(clients=1))
        with pytest.raises(ValueError):
            asyncio.run(
                run_loadgen(
                    host="h", port=1, broker=ScheduleBroker(), clients=1
                )
            )


class TestReport:
    def test_percentiles_and_dict(self):
        report = LoadReport(clients=2, ticks=1, arrival="poisson", seed=0)
        report.sent = 4
        report.ok = 3
        report.rejected_429 = 1
        report.latencies = [0.001, 0.002, 0.003]
        report.wall_seconds = 1.5
        assert report.unaccounted == 0
        assert report.percentile_ms(0.0) == pytest.approx(1.0)
        assert report.percentile_ms(1.0) == pytest.approx(3.0)
        d = report.to_dict()
        assert d["throughput_rps"] == pytest.approx(2.0)
        assert d["unaccounted"] == 0
        assert set(d) >= {"p50_ms", "p90_ms", "p99_ms", "peak_inflight"}

    def test_empty_report_percentiles(self):
        report = LoadReport(clients=0, ticks=0, arrival="spikes", seed=0)
        assert report.percentile_ms(0.99) == 0.0
        assert report.throughput_rps == 0.0
