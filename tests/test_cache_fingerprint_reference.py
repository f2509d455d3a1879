"""The vectorised canonical order against its tuple-sort definition.

:func:`repro.cache.fingerprint.fingerprint_with_order` orders links by
``np.lexsort`` on ``(own length, rate)`` and falls back to a full-key
``np.lexsort`` only on ties.  The canonical order is *defined* as a
stable Python sort of one ``(own, rate, sorted row, sorted column)``
tuple per link; :func:`_loop_fingerprint_with_order` below is that
definition, written as a loop, and every case here must agree with it
bit for bit — fingerprint and order.  Cached fingerprints, ghost
records and the golden event log depend on it.

The cases lean on ties: lattices of identical links and duplicated
links, where the primary key cannot decide and the full key (or input
order) must.  The last test pins that a cache miss builds the
distance matrix once, shared by the fingerprint and the scheduler.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import QUANTUM, fingerprint_with_order
from repro.cache.store import ScheduleCache
from repro.core.problem import FadingRLS
from repro.geometry.distance import cross_distances
from repro.network.links import LinkSet
from repro.network.topology import paper_topology
from repro.verify.fuzz import FAMILIES, make_scenario


def _loop_fingerprint_with_order(problem):
    """The canonical fingerprint as a per-link tuple sort (the oracle)."""
    senders = np.ascontiguousarray(problem.links.senders, dtype=np.float64)
    receivers = np.ascontiguousarray(problem.links.receivers, dtype=np.float64)
    rates = np.ascontiguousarray(problem.links.rates, dtype=np.float64)
    n = rates.shape[0]
    dist = cross_distances(senders, receivers)
    own = np.diag(dist)
    scale = float(own.mean()) if n else 1.0
    quanta = np.rint(dist / (scale * QUANTUM)).astype(np.int64)
    rate_q = np.rint(rates / QUANTUM).astype(np.int64)

    keys = []
    for i in range(n):
        keys.append(
            (
                int(quanta[i, i]),
                int(rate_q[i]),
                tuple(sorted(quanta[i, :].tolist())),
                tuple(sorted(quanta[:, i].tolist())),
            )
        )
    order = np.asarray(sorted(range(n), key=keys.__getitem__), dtype=np.int64)

    h = hashlib.sha256()
    h.update(b"repro.cache.fingerprint:1\n")
    h.update(repr((problem.alpha, problem.gamma_th, problem.eps, problem.noise)).encode())
    if problem.noise != 0.0:
        h.update(repr((problem.power, int(round(scale / QUANTUM)))).encode())
    canonical = quanta[np.ix_(order, order)]
    h.update(np.ascontiguousarray(canonical).tobytes())
    h.update(np.ascontiguousarray(rate_q[order]).tobytes())
    if problem.powers is not None:
        powers_q = np.rint(np.asarray(problem.powers, dtype=np.float64) / QUANTUM)
        h.update(np.ascontiguousarray(powers_q.astype(np.int64)[order]).tobytes())
    return h.hexdigest()[:24], order


def _assert_matches_loop(problem):
    fp, order = fingerprint_with_order(problem)
    ref_fp, ref_order = _loop_fingerprint_with_order(problem)
    assert fp == ref_fp
    assert order.dtype == ref_order.dtype
    assert np.array_equal(order, ref_order)


def _primary_key_ties(problem) -> bool:
    """Do two links tie on (quantized own length, quantized rate)?"""
    lengths = np.asarray(problem.links.lengths)
    scale = float(lengths.mean())
    own_q = np.rint(lengths / (scale * QUANTUM)).astype(np.int64)
    rate_q = np.rint(np.asarray(problem.links.rates) / QUANTUM).astype(np.int64)
    return len(set(zip(own_q.tolist(), rate_q.tolist()))) < len(lengths)


def _lattice(side, *, rates=None, spacing=40.0, vector=(7.0, 3.0), perm=None):
    """``side x side`` grid of identical links (sender + fixed vector)."""
    gx, gy = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    senders = spacing * np.column_stack([gx.ravel(), gy.ravel()]).astype(float)
    receivers = senders + np.asarray(vector, dtype=float)
    rates = np.ones(side * side) if rates is None else np.asarray(rates, dtype=float)
    if perm is not None:
        senders, receivers, rates = senders[perm], receivers[perm], rates[perm]
    return LinkSet(senders=senders, receivers=receivers, rates=rates)


# -- fixed cases -----------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("index", range(8))
def test_fuzzer_families_match_loop(family, index):
    _assert_matches_loop(make_scenario(family, index).problem)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_instances_match_loop(n):
    links = paper_topology(n, seed=11) if n else LinkSet(
        senders=np.zeros((0, 2)), receivers=np.zeros((0, 2))
    )
    _assert_matches_loop(FadingRLS(links=links))


@pytest.mark.parametrize("rates", ["uniform", "alternating"])
def test_lattice_of_identical_links_matches_loop(rates):
    r = None if rates == "uniform" else np.tile([1.0, 2.0], 18)
    problem = FadingRLS(links=_lattice(6, rates=r))
    assert _primary_key_ties(problem)
    _assert_matches_loop(problem)


@pytest.mark.parametrize("layout", ["tile", "repeat"])
def test_links_duplicated_three_times_match_loop(layout):
    base = paper_topology(10, seed=4)
    if layout == "tile":  # copies at i, i + 10, i + 20
        idx = np.tile(np.arange(10), 3)
    else:  # copies adjacent: i, i, i
        idx = np.repeat(np.arange(10), 3)
    links = LinkSet(
        senders=base.senders[idx], receivers=base.receivers[idx], rates=base.rates[idx]
    )
    problem = FadingRLS(links=links)
    assert _primary_key_ties(problem)
    _assert_matches_loop(problem)


def test_noise_and_per_link_powers_match_loop():
    links = paper_topology(16, seed=8)
    powers = np.linspace(0.5, 2.0, 16)
    _assert_matches_loop(FadingRLS(links=links, noise=1e-3))
    _assert_matches_loop(FadingRLS(links=links, powers=powers))
    _assert_matches_loop(FadingRLS(links=links, noise=1e-3, powers=powers))
    _assert_matches_loop(FadingRLS(links=_lattice(4), noise=1e-3, powers=np.ones(16)))


# -- property: relabelled tie-heavy lattices -------------------------


@st.composite
def tie_heavy_lattices(draw):
    """Relabelled lattices of identical links, some rates tied."""
    side = draw(st.integers(2, 6))
    n = side * side
    rates = draw(st.sampled_from(["uniform", "alternating", "random"]))
    if rates == "uniform":
        r = np.ones(n)
    elif rates == "alternating":
        r = np.tile([1.0, 2.0], n)[:n]
    else:
        r = np.asarray(draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n)))
    perm = np.asarray(draw(st.permutations(range(n))))
    vector = draw(st.sampled_from([(7.0, 3.0), (5.0, 0.0), (4.0, 4.0)]))
    noise = draw(st.sampled_from([0.0, 1e-3]))
    links = _lattice(side, rates=r, vector=vector, perm=perm)
    return FadingRLS(links=links, noise=noise)


@given(problem=tie_heavy_lattices())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_relabelled_tie_heavy_lattices_match_loop(problem):
    assert _primary_key_ties(problem)
    _assert_matches_loop(problem)


# -- the miss path shares one distance matrix -------------------------


@pytest.mark.parametrize("warm_start", [False, True])
def test_cache_miss_builds_the_distance_matrix_once(monkeypatch, warm_start):
    calls = []
    original = LinkSet.sender_receiver_distances

    def counting(self):
        calls.append(len(self))
        return original(self)

    monkeypatch.setattr(LinkSet, "sender_receiver_distances", counting)
    cache = ScheduleCache(warm_start=warm_start)
    problem = FadingRLS(links=paper_topology(30, seed=5))
    cache.schedule(problem, "rle")
    assert cache.stats["misses"] == 1
    assert calls == [30]
