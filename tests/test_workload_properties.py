"""Property-based tests (Hypothesis) for the workload queue dynamics.

The invariants the slotted queue simulator must hold for *every*
instance, arrival process, service policy and seed:

- **packet conservation** — arrived = served + dropped + still queued,
  in total and per link, with non-negative queues throughout;
- **service accounting** — per-slot deliveries never exceed per-slot
  transmission attempts, and nothing is served before it arrives;
- **FIFO ordering** — packets leave a queue in birth order;
- **load monotonicity** — pointwise-larger arrival traces cannot shrink
  the time-summed backlog (probed with deterministic spike trains,
  where scaling is an exact pointwise ordering);
- **execution invariance** — the full queue trajectory is bit-identical
  across ``n_jobs`` 1/2/4 sweep fan-outs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology
from repro.workload.analyzers import sweep_rates
from repro.workload.generators import (
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    SpikeArrivals,
)
from repro.workload.queues import POLICIES, simulate_workload

# -- strategies ------------------------------------------------------


@st.composite
def problems(draw, min_links=2, max_links=8):
    """Small paper-style instances (zero noise: everything serviceable)."""
    n = draw(st.integers(min_links, max_links))
    seed = draw(st.integers(0, 2_000))
    return FadingRLS(
        links=paper_topology(n, seed=seed), alpha=3.0, gamma_th=1.0, eps=0.05
    )


arrival_generators = st.one_of(
    st.builds(
        PoissonArrivals,
        rate=st.floats(0.01, 0.5, allow_nan=False),
    ),
    st.builds(
        OnOffArrivals,
        rate_on=st.floats(0.1, 0.8, allow_nan=False),
        rate_off=st.floats(0.0, 0.05, allow_nan=False),
        p_on=st.floats(0.05, 0.5, allow_nan=False),
        p_off=st.floats(0.05, 0.5, allow_nan=False),
    ),
    st.builds(
        DiurnalArrivals,
        base_rate=st.floats(0.0, 0.1, allow_nan=False),
        peak_rate=st.floats(0.1, 0.5, allow_nan=False),
        period=st.integers(5, 40),
    ),
    st.builds(
        SpikeArrivals,
        base_rate=st.floats(0.0, 0.05, allow_nan=False),
        spike_size=st.floats(0.5, 3.0, allow_nan=False),
        spike_every=st.integers(2, 20),
    ),
)


# -- conservation and accounting -------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    problem=problems(),
    arrivals=arrival_generators,
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 10_000),
    max_queue=st.one_of(st.none(), st.integers(1, 3)),
)
def test_packet_conservation(problem, arrivals, policy, seed, max_queue):
    """arrived = served + dropped + queued, per link; queues never negative."""
    result = simulate_workload(
        problem,
        arrivals,
        "rle",
        n_slots=40,
        seed=seed,
        policy=policy,
        max_queue=max_queue,
    )
    assert np.all(result.queue_trajectory >= 0)
    final = result.queue_trajectory[-1] if result.n_slots else 0
    np.testing.assert_array_equal(
        result.per_link_arrived,
        result.per_link_served + result.per_link_dropped + final,
    )
    assert result.arrived == result.served + result.dropped + result.final_backlog
    assert result.arrived == int(result.per_link_arrived.sum())
    if max_queue is None:
        assert result.dropped == 0
    else:
        assert np.all(result.queue_trajectory <= max_queue)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    problem=problems(),
    arrivals=arrival_generators,
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 10_000),
)
def test_service_accounting(problem, arrivals, policy, seed):
    """Deliveries per slot never exceed attempts; totals line up."""
    result = simulate_workload(
        problem, arrivals, "rle", n_slots=40, seed=seed, policy=policy
    )
    assert np.all(result.served_per_slot <= result.scheduled_per_slot)
    assert int(result.served_per_slot.sum()) == result.served
    assert result.served + result.failed == int(result.scheduled_per_slot.sum())
    assert result.delays.size == result.served
    if result.delays.size:
        assert int(result.delays.min()) >= 1  # a packet needs >= 1 slot in system


# -- FIFO ordering ---------------------------------------------------


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rate=st.floats(0.2, 2.0, allow_nan=False),
    seed=st.integers(0, 10_000),
    topo_seed=st.integers(0, 2_000),
)
def test_fifo_ordering_single_link(rate, seed, topo_seed):
    """On one link, served packets' birth slots are non-decreasing.

    ``delays`` records deliveries in service order; on a single-link
    instance the reconstruction ``born = served_at - delay + 1`` must be
    monotone — FIFO means no packet overtakes an earlier arrival.
    """
    problem = FadingRLS(
        links=paper_topology(1, seed=topo_seed), alpha=3.0, gamma_th=1.0, eps=0.05
    )
    result = simulate_workload(
        problem, PoissonArrivals(rate), "rle", n_slots=50, seed=seed
    )
    births = []
    k = 0
    for t in range(result.n_slots):
        for _ in range(int(result.served_per_slot[t])):
            births.append(t - int(result.delays[k]) + 1)
            k += 1
    assert births == sorted(births)


# -- load monotonicity -----------------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    problem=problems(max_links=6),
    spike=st.integers(1, 2),
    factor=st.integers(2, 4),
    every=st.integers(3, 10),
    seed=st.integers(0, 10_000),
)
def test_backlog_monotone_in_offered_load(problem, spike, factor, every, seed):
    """A pointwise-larger arrival trace cannot shrink the summed backlog.

    Deterministic integer spike trains make ``scaled(factor)`` an exact
    pointwise ordering of the traces (every slot of every link gets
    ``factor`` times the packets), so the cumulative-backlog comparison
    is deterministic — no stochastic coupling caveats.
    """
    base = SpikeArrivals(base_rate=0.0, spike_size=float(spike), spike_every=every)
    low = simulate_workload(problem, base, "rle", n_slots=40, seed=seed)
    high = simulate_workload(
        problem, base.scaled(float(factor)), "rle", n_slots=40, seed=seed
    )
    assert high.arrived == factor * low.arrived
    assert int(high.total_backlog.sum()) >= int(low.total_backlog.sum())


# -- execution invariance --------------------------------------------


@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arrivals=arrival_generators,
    seed=st.integers(0, 10_000),
    topo_seed=st.integers(0, 2_000),
)
def test_njobs_invariance_sweep(arrivals, seed, topo_seed):
    """sweep_rates trajectories are bit-identical for n_jobs 1/2/4."""
    problem = FadingRLS(
        links=paper_topology(5, seed=topo_seed), alpha=3.0, gamma_th=1.0, eps=0.05
    )
    factors = [0.5, 1.0, 2.0, 4.0]
    per_jobs = {}
    for jobs in (1, 2, 4):
        results = sweep_rates(
            problem, arrivals, "rle", factors, n_slots=30, seed=seed, n_jobs=jobs
        )
        per_jobs[jobs] = [r.trajectory_bytes() for r in results]
    assert per_jobs[1] == per_jobs[2] == per_jobs[4]


def test_njobs_invariance_pinned_scenario():
    """One pinned scenario at ``n_jobs`` 1/2/4, byte-identical.

    The Hypothesis test above samples the invariance; this pins one
    deterministic scenario in full.
    """
    problem = FadingRLS(
        links=paper_topology(6, seed=11), alpha=3.0, gamma_th=1.0, eps=0.05
    )
    arrivals = OnOffArrivals(rate_on=0.5, p_on=0.2, p_off=0.3)
    blobs = {}
    for jobs in (1, 2, 4):
        results = sweep_rates(
            problem, arrivals, "rle", [0.5, 1.5, 3.0], n_slots=40, seed=13, n_jobs=jobs
        )
        blobs[jobs] = b"".join(r.trajectory_bytes() for r in results)
    assert blobs[1] == blobs[2] == blobs[4]
