"""Tests for repro.core.schedule."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.schedule import Schedule


class TestConstruction:
    def test_sorted_unique(self):
        s = Schedule(active=np.array([3, 1, 3, 2]))
        np.testing.assert_array_equal(s.active, [1, 2, 3])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Schedule(active=np.array([-1, 2]))

    def test_empty(self):
        s = Schedule.empty("x")
        assert s.size == 0 and s.algorithm == "x"

    @given(st.lists(st.integers(-3, 2**40), max_size=40))
    def test_active_is_np_unique_of_the_indices(self, indices):
        # Sorted with adjacent duplicates dropped in place of np.unique,
        # whose first call imports numpy.ma: the same array, the same error.
        if any(i < 0 for i in indices):
            with pytest.raises(ValueError, match="non-negative"):
                Schedule(active=np.array(indices, dtype=np.int64))
            return
        active = Schedule(active=np.array(indices, dtype=np.int64)).active
        expected = np.unique(np.array(indices, dtype=np.int64))
        assert active.dtype == np.int64 and not active.flags.writeable
        np.testing.assert_array_equal(active, expected)

    def test_immutable_active(self):
        s = Schedule(active=np.array([1, 2]))
        with pytest.raises(ValueError):
            s.active[0] = 9


class TestAccessors:
    def test_len_and_size(self):
        s = Schedule(active=np.array([0, 5]))
        assert len(s) == s.size == 2

    def test_contains(self):
        s = Schedule(active=np.array([0, 5]))
        assert 5 in s and 3 not in s

    def test_mask(self):
        s = Schedule(active=np.array([1, 3]))
        np.testing.assert_array_equal(s.mask(5), [False, True, False, True, False])

    def test_mask_out_of_range(self):
        s = Schedule(active=np.array([10]))
        with pytest.raises(ValueError):
            s.mask(5)

    def test_with_diagnostics_merges(self):
        s = Schedule(active=np.array([0]), diagnostics={"a": 1})
        s2 = s.with_diagnostics(b=2)
        assert s2.diagnostics == {"a": 1, "b": 2}
        assert s.diagnostics == {"a": 1}  # original untouched
