"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import FadingRLS
from repro.network.links import LinkSet
from repro.network.topology import paper_topology


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def obs_enabled():
    """Observability switched on for one test, fully cleared afterwards."""
    from repro import obs

    obs.enable()
    obs.reset()
    yield obs
    obs.disable()
    obs.reset()


@pytest.fixture
def tiny_links() -> LinkSet:
    """Three well-separated short links: feasible all together."""
    senders = np.array([[0.0, 0.0], [1000.0, 0.0], [0.0, 1000.0]])
    receivers = senders + np.array([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]])
    return LinkSet(senders=senders, receivers=receivers)


@pytest.fixture
def tight_links() -> LinkSet:
    """Three links crammed together: heavy mutual interference."""
    senders = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    receivers = senders + np.array([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]])
    return LinkSet(senders=senders, receivers=receivers)


@pytest.fixture
def tiny_problem(tiny_links) -> FadingRLS:
    return FadingRLS(links=tiny_links, alpha=3.0, gamma_th=1.0, eps=0.01)


@pytest.fixture
def tight_problem(tight_links) -> FadingRLS:
    return FadingRLS(links=tight_links, alpha=3.0, gamma_th=1.0, eps=0.01)


@pytest.fixture
def paper_problem() -> FadingRLS:
    """A mid-size paper-style instance (deterministic seed)."""
    return FadingRLS(links=paper_topology(120, seed=7), alpha=3.0)


@pytest.fixture
def small_problem() -> FadingRLS:
    """A small, geographically tight instance exact solvers can handle."""
    return FadingRLS(links=paper_topology(10, region_side=120, seed=3), alpha=3.0)


@pytest.fixture
def worker_path(monkeypatch):
    """The service broker computes every miss on a worker thread: no
    ``rle`` miss is small enough for the event loop.  Coalescing,
    ``queue_limit`` backpressure and ``close(drain=False)`` act on that
    path only."""
    from repro.service import broker

    monkeypatch.setattr(broker, "LOOP_MAX_LINKS", 0)


@pytest.fixture(params=["loop", "worker"])
def compute_path(request):
    """Each path a small ``rle`` miss can take through the service
    broker: the event loop (as shipped) or a worker thread."""
    if request.param == "worker":
        request.getfixturevalue("worker_path")
    return request.param
