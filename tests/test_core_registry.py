"""Tests for the scheduler registry (repro.core.base)."""

import pytest

from repro.core.base import (
    SchedulerError,
    get_scheduler,
    list_schedulers,
    register_scheduler,
)
from repro.core.schedule import Schedule


EXPECTED_BUILTINS = {
    "ldp",
    "rle",
    "dls",
    "approx_logn",
    "approx_diversity",
    "greedy",
    "longest_first",
    "random",
    "all_active",
    "brute_force",
    "branch_and_bound",
    "milp",
    "protocol",
    "protocol_mis",
    "local_search",
}


class TestRegistry:
    def test_builtins_registered(self):
        assert EXPECTED_BUILTINS <= set(list_schedulers())

    def test_get_known(self):
        assert callable(get_scheduler("ldp"))

    def test_get_unknown_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            get_scheduler("definitely_not_a_scheduler")

    def test_reregistration_same_name_rejected(self):
        def fake(problem):
            return Schedule.empty("fake")

        register_scheduler("_test_fake", fake)
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("_test_fake", lambda p: Schedule.empty("other"))
        # Registering the identical function again is idempotent.
        register_scheduler("_test_fake", fake)

    def test_decorator_form(self):
        @register_scheduler("_test_decorated")
        def decorated(problem):
            return Schedule.empty("decorated")

        assert get_scheduler("_test_decorated") is decorated

    def test_run_scheduler(self, tiny_problem):
        s = get_scheduler("rle")(tiny_problem)
        assert isinstance(s, Schedule)
        assert s.algorithm == "rle"

    def test_scheduler_error_is_runtime_error(self):
        assert issubclass(SchedulerError, RuntimeError)


class TestAllSchedulersContract:
    """Every registered scheduler obeys the basic contract."""

    @pytest.mark.parametrize("name", sorted(EXPECTED_BUILTINS - {"brute_force", "milp", "branch_and_bound"}))
    def test_returns_schedule_on_paper_instance(self, name, paper_problem):
        s = get_scheduler(name)(paper_problem)
        assert isinstance(s, Schedule)
        if s.size:
            assert s.active.max() < paper_problem.n_links

    @pytest.mark.parametrize("name", sorted(EXPECTED_BUILTINS))
    def test_empty_instance(self, name):
        from repro.core.problem import FadingRLS
        from repro.network.links import LinkSet

        p = FadingRLS(links=LinkSet.empty())
        s = get_scheduler(name)(p)
        assert s.size == 0

    @pytest.mark.parametrize(
        "name",
        sorted(
            EXPECTED_BUILTINS
            - {"all_active", "approx_logn", "approx_diversity", "protocol", "protocol_mis"}
        ),
    )
    def test_output_feasible_under_fading(self, name, small_problem):
        s = get_scheduler(name)(small_problem)
        assert small_problem.is_feasible(s.active), name
