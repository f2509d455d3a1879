"""Tests for multi-slot covering (the future-work extension)."""

import numpy as np
import pytest

from repro.core.base import get_scheduler, list_schedulers, takes_seed
from repro.core.ldp import ldp_schedule
from repro.core.multislot import (
    MultiSlotSchedule,
    exact_min_slots,
    first_fit_multislot,
    multislot_lower_bound,
    multislot_schedule,
)
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.core.schedule import Schedule
from repro.network.links import LinkSet
from repro.network.topology import paper_topology


class TestMultiSlot:
    @pytest.mark.parametrize("scheduler", [ldp_schedule, rle_schedule])
    def test_covers_all_links(self, scheduler):
        p = FadingRLS(links=paper_topology(80, seed=0))
        ms = multislot_schedule(p, scheduler)
        assignment = ms.slot_of(p.n_links)
        assert (assignment >= 0).all()

    @pytest.mark.parametrize("scheduler", [ldp_schedule, rle_schedule])
    def test_each_slot_feasible(self, scheduler):
        p = FadingRLS(links=paper_topology(80, seed=1))
        ms = multislot_schedule(p, scheduler)
        for slot in ms.slots:
            assert p.is_feasible(slot.active)

    def test_slots_disjoint(self):
        p = FadingRLS(links=paper_topology(60, seed=2))
        ms = multislot_schedule(p, rle_schedule)
        seen = np.concatenate([s.active for s in ms.slots])
        assert len(seen) == len(set(seen.tolist())) == p.n_links

    def test_empty_instance(self):
        p = FadingRLS(links=LinkSet.empty())
        ms = multislot_schedule(p, rle_schedule)
        assert ms.n_slots == 0

    def test_rle_needs_fewer_slots_than_ldp(self):
        """RLE packs slots denser, so it covers in fewer slots."""
        wins = 0
        for seed in range(3):
            p = FadingRLS(links=paper_topology(100, seed=seed))
            n_rle = multislot_schedule(p, rle_schedule).n_slots
            n_ldp = multislot_schedule(p, ldp_schedule).n_slots
            if n_rle <= n_ldp:
                wins += 1
        assert wins == 3

    def test_no_progress_raises(self):
        def lazy(problem):
            return Schedule.empty("lazy")

        p = FadingRLS(links=paper_topology(5, seed=0))
        with pytest.raises(RuntimeError, match="empty schedule"):
            multislot_schedule(p, lazy)

    def test_max_slots_guard(self):
        def one_at_a_time(problem):
            return Schedule(active=np.array([0]), algorithm="one")

        p = FadingRLS(links=paper_topology(10, seed=0))
        with pytest.raises(RuntimeError, match="slots"):
            multislot_schedule(p, one_at_a_time, max_slots=3)

    def test_scheduler_kwargs_forwarded(self):
        p = FadingRLS(links=paper_topology(40, seed=3))
        ms = multislot_schedule(p, rle_schedule, c2=0.3)
        assert ms.slots[0].diagnostics["c2"] == 0.3


class TestCoverInvariant:
    """Every registered one-shot scheduler must produce a valid cover."""

    @pytest.mark.parametrize("name", list_schedulers())
    def test_cover_invariant(self, name):
        p = FadingRLS(links=paper_topology(10, seed=4))
        fn = get_scheduler(name)
        kwargs = {"seed": 0} if takes_seed(fn) else {}
        ms = multislot_schedule(p, fn, **kwargs)
        assignment = ms.slot_of(p.n_links)
        # slot_of validates disjointness + coverage; also pin the
        # assignment against the slots themselves.
        for t, slot in enumerate(ms.slots):
            assert np.all(assignment[slot.active] == t)
        assert 1 <= ms.n_slots <= p.n_links

    @pytest.mark.parametrize("name", ["ldp", "rle", "greedy", "local_search"])
    def test_feasible_scheduler_gives_feasible_cover(self, name):
        """Feasibility-preserving schedulers yield all-feasible slots."""
        p = FadingRLS(links=paper_topology(30, seed=5))
        ms = multislot_schedule(p, get_scheduler(name))
        for slot in ms.slots:
            assert p.is_feasible(slot.active)

    def test_single_link_instance(self):
        p = FadingRLS(links=paper_topology(1, seed=0))
        ms = multislot_schedule(p, rle_schedule)
        assert ms.n_slots == 1
        np.testing.assert_array_equal(ms.slots[0].active, [0])
        np.testing.assert_array_equal(ms.slot_of(1), [0])

    def test_first_fit_single_link_and_empty(self):
        single = FadingRLS(links=paper_topology(1, seed=0))
        assert first_fit_multislot(single).n_slots == 1
        empty = FadingRLS(links=LinkSet.empty())
        assert first_fit_multislot(empty).n_slots == 0

    def test_exact_min_slots_single_link_and_empty(self):
        single = FadingRLS(links=paper_topology(1, seed=0))
        assert exact_min_slots(single).n_slots == 1
        empty = FadingRLS(links=LinkSet.empty())
        assert exact_min_slots(empty).n_slots == 0


class TestSlotOf:
    def test_duplicate_assignment_detected(self):
        ms = MultiSlotSchedule(
            slots=[Schedule(active=np.array([0, 1])), Schedule(active=np.array([1]))],
            algorithm="x",
        )
        with pytest.raises(ValueError, match="two slots"):
            ms.slot_of(2)

    def test_missing_link_detected(self):
        ms = MultiSlotSchedule(slots=[Schedule(active=np.array([0]))], algorithm="x")
        with pytest.raises(ValueError, match="unassigned"):
            ms.slot_of(2)

    def test_empty_frame_all_unassigned(self):
        ms = MultiSlotSchedule(slots=[], algorithm="x")
        with pytest.raises(ValueError, match="unassigned"):
            ms.slot_of(1)

    def test_zero_links_empty_frame_is_valid(self):
        ms = MultiSlotSchedule(slots=[], algorithm="x")
        assert ms.slot_of(0).size == 0

    def test_valid_assignment_roundtrip(self):
        ms = MultiSlotSchedule(
            slots=[
                Schedule(active=np.array([2, 0])),
                Schedule(active=np.array([1])),
            ],
            algorithm="x",
        )
        np.testing.assert_array_equal(ms.slot_of(3), [0, 1, 0])


class TestSlotCycle:
    def test_cycles_through_frame(self):
        slots = [
            Schedule(active=np.array([0])),
            Schedule(active=np.array([1])),
            Schedule(active=np.array([2])),
        ]
        ms = MultiSlotSchedule(slots=slots, algorithm="x")
        for t in range(9):
            assert ms.slot_cycle(t) is slots[t % 3]

    def test_empty_frame_raises(self):
        ms = MultiSlotSchedule(slots=[], algorithm="x")
        with pytest.raises(ValueError, match="empty"):
            ms.slot_cycle(0)


class TestLowerBound:
    def test_zero_for_empty(self):
        p = FadingRLS(links=LinkSet.empty())
        assert multislot_lower_bound(p) == 0

    def test_at_least_one(self, paper_problem):
        assert multislot_lower_bound(paper_problem) >= 1

    def test_sound_against_actual_slots(self):
        """The bound never exceeds what a real covering uses."""
        for seed in range(3):
            p = FadingRLS(links=paper_topology(60, seed=seed))
            lb = multislot_lower_bound(p)
            used = multislot_schedule(p, rle_schedule).n_slots
            assert lb <= used

    def test_detects_conflicting_cluster(self):
        """Links stacked on one spot mutually conflict -> bound grows."""
        n = 5
        senders = np.array([[0.0, float(i)] for i in range(n)])
        receivers = senders + np.array([10.0, 0.0])
        p = FadingRLS(links=LinkSet(senders=senders, receivers=receivers))
        assert multislot_lower_bound(p) >= n - 1
