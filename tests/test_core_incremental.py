"""Tests for the incremental scheduling engine.

The central contract: after any sequence of deltas, the engine's
maintained distance/interference matrices are **bit-identical** to a
fresh :class:`FadingRLS` built on the replayed link set (pinned by a
Hypothesis property over arbitrary delta sequences), and every repaired
schedule passes the fresh instance's Corollary 3.1 feasibility check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalScheduler
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.network.delta import LinkDelta, apply_delta
from repro.network.links import LinkSet
from repro.network.mobility import random_waypoint_delta_trace
from repro.network.topology import paper_topology

# -- helpers ---------------------------------------------------------


def _links(n: int, seed: int = 0) -> LinkSet:
    return paper_topology(n, seed=seed)


def _rigid_move(links: LinkSet, idx, offset) -> LinkDelta:
    idx = np.asarray(idx, dtype=np.int64)
    offset = np.asarray(offset, dtype=float)
    return LinkDelta.move(
        idx, links.senders[idx] + offset, links.receivers[idx] + offset
    )


def _assert_state_matches_fresh(engine: IncrementalScheduler, links: LinkSet):
    fresh = FadingRLS(
        links=links,
        alpha=engine.alpha,
        gamma_th=engine.gamma_th,
        eps=engine.eps,
        noise=engine.noise,
        power=engine.power,
    )
    np.testing.assert_array_equal(
        engine.problem.distances(), fresh.distances()
    )
    np.testing.assert_array_equal(
        engine.problem.interference_matrix(), fresh.interference_matrix()
    )


# -- delta application ----------------------------------------------


class TestFMatrixMaintenance:
    def test_moves_keep_f_bit_identical(self):
        links = _links(20)
        engine = IncrementalScheduler(links)
        delta = _rigid_move(links, [3, 7, 11], [[5.0, -2.0]] * 3)
        engine.apply(delta)
        _assert_state_matches_fresh(engine, apply_delta(links, delta))

    def test_removes_keep_f_bit_identical(self):
        links = _links(15)
        engine = IncrementalScheduler(links)
        delta = LinkDelta(removes=np.array([0, 6, 14]))
        engine.apply(delta)
        assert engine.n_links == 12
        _assert_state_matches_fresh(engine, apply_delta(links, delta))

    def test_inserts_keep_f_bit_identical(self):
        links = _links(12)
        extra = _links(4, seed=99)
        engine = IncrementalScheduler(links)
        delta = LinkDelta(inserts=extra)
        engine.apply(delta)
        assert engine.n_links == 16
        _assert_state_matches_fresh(engine, apply_delta(links, delta))

    def test_mixed_delta(self):
        links = _links(18)
        delta = LinkDelta(
            moves=np.array([1, 5]),
            new_senders=links.senders[[1, 5]] + 3.0,
            new_receivers=links.receivers[[1, 5]] + 3.0,
            removes=np.array([0, 17]),
            inserts=_links(3, seed=7),
        )
        engine = IncrementalScheduler(links)
        engine.apply(delta)
        _assert_state_matches_fresh(engine, apply_delta(links, delta))

    def test_stretching_moves_under_noise_refresh_their_budgets(self):
        links = _links(20)
        engine = IncrementalScheduler(links, noise=1e-7)
        idx = np.array([3, 7])
        delta = LinkDelta.move(idx, links.senders[idx], links.receivers[idx] + [4.0, 3.0])
        engine.apply(delta)
        fresh = FadingRLS(links=apply_delta(links, delta), noise=1e-7)
        before = FadingRLS(links=links, noise=1e-7).effective_budgets()
        assert not np.allclose(fresh.effective_budgets()[idx], before[idx])
        np.testing.assert_allclose(engine._budgets(), fresh.effective_budgets(), rtol=1e-12)

    def test_zero_length_move_rejected(self):
        links = _links(5)
        engine = IncrementalScheduler(links)
        with pytest.raises(ValueError):
            engine.apply(
                LinkDelta(
                    moves=np.array([0]),
                    new_senders=np.array([[10.0, 10.0]]),
                    new_receivers=np.array([[10.0, 10.0]]),
                )
            )

    def test_out_of_range_delta_rejected(self):
        engine = IncrementalScheduler(_links(5))
        with pytest.raises(IndexError):
            engine.apply(LinkDelta(removes=np.array([9])))
        with pytest.raises(IndexError):
            engine.apply(
                LinkDelta(
                    moves=np.array([9]),
                    new_senders=np.zeros((1, 2)),
                    new_receivers=np.ones((1, 2)),
                )
            )


@st.composite
def delta_sequences(draw):
    """(initial size, [abstract delta specs]) for the property below."""
    n0 = draw(st.integers(6, 14))
    n_deltas = draw(st.integers(1, 4))
    specs = []
    for _ in range(n_deltas):
        specs.append(
            {
                "move_frac": draw(st.floats(0.0, 1.0)),
                "offset": (
                    draw(st.floats(-40.0, 40.0)),
                    draw(st.floats(-40.0, 40.0)),
                ),
                "remove": draw(st.booleans()),
                "insert": draw(st.integers(0, 2)),
                "pick": draw(st.integers(0, 10**6)),
            }
        )
    return n0, specs


def _materialise(links: LinkSet, spec: dict) -> LinkDelta:
    """Turn an abstract spec into a valid delta for the current set."""
    n = len(links)
    rng = np.random.default_rng(spec["pick"])
    k = int(round(spec["move_frac"] * (n - 1)))
    moves = np.sort(rng.choice(n, size=k, replace=False)) if k else None
    removes = None
    if spec["remove"] and n > 4:
        pool = np.setdiff1d(np.arange(n), moves if moves is not None else [])
        if pool.size:
            removes = pool[[int(rng.integers(pool.size))]]
    inserts = _links(spec["insert"], seed=spec["pick"]) if spec["insert"] else None
    offset = np.asarray(spec["offset"], dtype=float)
    return LinkDelta(
        moves=moves,
        new_senders=None if moves is None else links.senders[moves] + offset,
        new_receivers=None if moves is None else links.receivers[moves] + offset,
        removes=removes,
        inserts=inserts,
    )


class TestIncrementalProperty:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(delta_sequences())
    def test_any_delta_sequence_keeps_f_bit_identical(self, case):
        """Property: incremental F == fresh F, bit for bit, always."""
        n0, specs = case
        links = _links(n0, seed=n0)
        engine = IncrementalScheduler(links)
        engine.schedule()
        for spec in specs:
            delta = _materialise(links, spec)
            links = apply_delta(links, delta)
            schedule = engine.step(delta)
            fresh = FadingRLS(links=links)
            np.testing.assert_array_equal(
                engine.problem.interference_matrix(), fresh.interference_matrix()
            )
            assert fresh.is_feasible(schedule.active)


# -- warm-start repair ----------------------------------------------


class TestWarmStartRepair:
    def test_first_schedule_is_full_run(self):
        engine = IncrementalScheduler(_links(20), scheduler="rle")
        s = engine.schedule()
        assert s.diagnostics["mode"] == "full"
        assert s.diagnostics["reason"] == "initial"
        assert s.algorithm == "incremental:rle"
        reference = rle_schedule(FadingRLS(links=_links(20)))
        np.testing.assert_array_equal(np.sort(s.active), np.sort(reference.active))

    def test_empty_delta_repair_keeps_schedule(self):
        engine = IncrementalScheduler(_links(20))
        first = engine.schedule()
        second = engine.step(LinkDelta.empty())
        assert second.diagnostics["mode"] == "repair"
        np.testing.assert_array_equal(np.sort(first.active), np.sort(second.active))

    def test_repair_evicts_newly_infeasible_links(self):
        links = _links(30, seed=3)
        engine = IncrementalScheduler(links)
        first = engine.schedule()
        assert first.active.size >= 2
        # Crowd every scheduled link around the first one: their mutual
        # interference explodes and the repair must evict some of them.
        idx = first.active
        anchor = links.senders[idx[0]]
        offsets = np.linspace(0.0, 2.0, idx.size)[:, None] * np.ones(2)
        delta = LinkDelta.move(
            idx,
            anchor + offsets,
            anchor + offsets + (links.receivers[idx] - links.senders[idx]),
        )
        repaired = engine.step(delta)
        assert repaired.diagnostics["mode"] in ("repair", "full")
        fresh = FadingRLS(links=apply_delta(links, delta))
        assert fresh.is_feasible(repaired.active)
        assert engine.stats["evictions"] > 0

    def test_repair_readmits_links_that_moved_apart(self):
        links = _links(40, seed=5)
        engine = IncrementalScheduler(links)
        engine.schedule()
        inactive = np.flatnonzero(~engine.active_mask)
        assert inactive.size > 0
        # Exile an unscheduled link to empty space: it no longer
        # interferes with anyone and greedy re-admission must take it.
        far = np.array([[5000.0, 5000.0]])
        delta = LinkDelta.move(
            inactive[:1], far, far + (links.receivers[inactive[:1]] - links.senders[inactive[:1]])
        )
        repaired = engine.step(delta)
        assert bool(engine.active_mask[inactive[0]])
        assert repaired.diagnostics["admitted"] >= 1

    def test_quality_fallback_triggers_full_run(self):
        links = _links(25, seed=8)
        # quality_bound=1.0: any repair strictly worse than the
        # reference rate falls back to a from-scratch run.
        engine = IncrementalScheduler(links, quality_bound=1.0)
        engine.schedule()
        idx = np.flatnonzero(engine.active_mask)
        assert idx.size >= 3
        anchor = links.senders[idx[0]]
        offsets = np.linspace(0.0, 1.0, idx.size)[:, None] * np.ones(2)
        delta = LinkDelta.move(
            idx,
            anchor + offsets,
            anchor + offsets + (links.receivers[idx] - links.senders[idx]),
        )
        repaired = engine.step(delta)
        fresh = FadingRLS(links=apply_delta(links, delta))
        assert fresh.is_feasible(repaired.active)
        if repaired.diagnostics["mode"] == "full":
            assert repaired.diagnostics["reason"] == "quality"
            assert engine.stats["fallbacks"] == 1

    def test_ledger_matches_exact_interference(self):
        links = _links(30, seed=2)
        engine = IncrementalScheduler(links)
        engine.schedule()
        for step in range(4):
            rng = np.random.default_rng(step)
            idx = np.sort(rng.choice(engine.n_links, size=6, replace=False))
            offset = rng.uniform(-10.0, 10.0, size=(6, 2))
            delta = LinkDelta.move(
                idx,
                engine.problem.links.senders[idx] + offset,
                engine.problem.links.receivers[idx] + offset,
            )
            engine.step(delta)
            exact = engine.problem.interference_on(engine.active_mask)
            np.testing.assert_allclose(engine.ledger, exact, rtol=0.0, atol=1e-9)

    def test_scheduler_callable_and_kwargs(self):
        calls = []

        def probe(problem, **kwargs):
            calls.append(kwargs)
            return rle_schedule(problem)

        engine = IncrementalScheduler(
            _links(10), scheduler=probe, scheduler_kwargs={"tag": 1}
        )
        s = engine.schedule()
        assert s.algorithm == "incremental:probe"
        assert calls == [{"tag": 1}]

    def test_validation(self):
        with pytest.raises(ValueError):
            IncrementalScheduler(_links(5), quality_bound=0.0)
        with pytest.raises(ValueError):
            IncrementalScheduler(_links(5), quality_bound=1.5)
        with pytest.raises(ValueError):
            IncrementalScheduler(_links(5), admit_margin=-1e-3)
        with pytest.raises(ValueError):
            IncrementalScheduler(_links(5), alpha=0.0)


# -- golden: warm-start repair over a mobility trace ------------------


class TestMobilityGolden:
    """Pinned end-to-end numbers on one mobility trace.

    These are golden values: they change only if the engine's repair
    policy, the delta trace's RNG stream, or the schedulers change —
    all of which deserve a deliberate diff.
    """

    def _run(self):
        trace = random_waypoint_delta_trace(
            40, 8, speed_range=(2.0, 6.0), move_threshold=12.0, seed=2017
        )
        engine = IncrementalScheduler(trace.initial, scheduler="rle")
        schedules = [engine.schedule()]
        for delta in trace.deltas:
            schedules.append(engine.step(delta))
        return trace, engine, schedules

    def test_golden_trace_stats(self):
        _, engine, schedules = self._run()
        assert engine.stats["applies"] == 7
        assert engine.stats["full_runs"] == 1
        assert engine.stats["repairs"] == 7
        assert engine.stats["fallbacks"] == 0
        assert engine.stats["evictions"] == 1
        assert engine.stats["admissions"] == 11
        sizes = [int(s.active.size) for s in schedules]
        assert sizes == [6, 6, 6, 15, 16, 16, 16, 16]

    def test_golden_schedules_feasible_against_replay(self):
        trace, _, schedules = self._run()
        for links, schedule in zip(trace.linksets(), schedules):
            assert FadingRLS(links=links).is_feasible(schedule.active)

    def test_golden_rates_nondegrading(self):
        trace, engine, schedules = self._run()
        final = FadingRLS(links=engine.problem.links)
        scratch = rle_schedule(final)
        # Warm-start repair must not fall below the engine's own bound
        # relative to a from-scratch run on the final geometry.
        assert final.scheduled_rate(schedules[-1].active) >= (
            engine.quality_bound * final.scheduled_rate(scratch.active)
        )
