"""Tests for the fault activation/injection machinery (`repro.faults.inject`).

The contract under test: plans arm via an environment variable (so
worker processes inherit them), `maybe_inject` fires exactly the fault
armed for `(key, attempt)`, and process-killing faults downgrade to
exceptions inside the activating process.
"""

import os

import pytest

from repro.faults import (
    ENV_PARENT,
    ENV_PLAN,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    PoisonResult,
    activate,
    active_plan,
    deactivate,
    injected,
    maybe_inject,
)

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _clean_env():
    deactivate()
    yield
    deactivate()


PLAN = FaultPlan({"u/crash": FaultSpec("crash"), "u/poison": FaultSpec("poison")})


class TestActivation:
    def test_activate_sets_env_and_parent_pid(self):
        activate(PLAN)
        assert os.environ[ENV_PLAN] == PLAN.to_json()
        assert os.environ[ENV_PARENT] == str(os.getpid())

    def test_deactivate_clears_env(self):
        activate(PLAN)
        deactivate()
        assert ENV_PLAN not in os.environ
        assert ENV_PARENT not in os.environ
        deactivate()  # idempotent

    def test_active_plan_none_when_disarmed(self):
        assert active_plan() is None

    def test_active_plan_parses_armed_plan(self):
        activate(PLAN)
        assert active_plan() == PLAN

    def test_active_plan_tracks_env_changes(self):
        activate(PLAN)
        assert active_plan() == PLAN
        other = FaultPlan({"x": FaultSpec("oom")})
        activate(other)
        assert active_plan() == other

    def test_injected_context_restores_previous_state(self):
        outer = FaultPlan({"outer": FaultSpec("crash")})
        with injected(outer):
            with injected(PLAN):
                assert active_plan() == PLAN
            assert active_plan() == outer
        assert active_plan() is None

    def test_injected_restores_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with injected(PLAN):
                raise RuntimeError("boom")
        assert active_plan() is None


class TestMaybeInject:
    def test_noop_without_plan(self):
        assert maybe_inject("u/crash", 0) is None

    def test_noop_for_unlisted_key(self):
        with injected(PLAN):
            assert maybe_inject("someone/else", 0) is None

    def test_crash_raises_injected_fault(self):
        with injected(PLAN):
            with pytest.raises(InjectedFault, match="crash fault for unit 'u/crash'"):
                maybe_inject("u/crash", 0)

    def test_fault_carries_key_and_kind(self):
        with injected(PLAN):
            with pytest.raises(InjectedFault) as err:
                maybe_inject("u/crash", 0)
        assert err.value.key == "u/crash"
        assert err.value.kind == "crash"

    def test_fault_survives_pickling(self):
        # A fault raised in a pool worker crosses back to the parent.
        import pickle

        fault = pickle.loads(pickle.dumps(InjectedFault("u/crash", "crash")))
        assert (fault.key, fault.kind) == ("u/crash", "crash")
        assert str(fault) == "injected crash fault for unit 'u/crash'"

    def test_poison_returns_poison_result(self):
        with injected(PLAN):
            value = maybe_inject("u/poison", 0)
        assert isinstance(value, PoisonResult)
        assert value.key == "u/poison" and value.attempt == 0

    def test_oom_raises_memory_error(self):
        with injected(FaultPlan({"u": FaultSpec("oom")})):
            with pytest.raises(MemoryError, match="injected memory blowout"):
                maybe_inject("u", 0)

    def test_hang_sleeps_then_raises(self):
        import time

        with injected(FaultPlan({"u": FaultSpec("hang", seconds=0.05)})):
            t0 = time.monotonic()
            with pytest.raises(InjectedFault, match="hang"):
                maybe_inject("u", 0)
            assert time.monotonic() - t0 >= 0.05

    def test_die_downgrades_to_crash_in_activating_process(self):
        # A real `die` would os._exit this very process; the downgrade is
        # what makes serial chaos tests (and the parent's serial fallback)
        # survivable.
        with injected(FaultPlan({"u": FaultSpec("die")})):
            with pytest.raises(InjectedFault, match="die"):
                maybe_inject("u", 0)

    def test_attempt_window_gates_injection(self):
        with injected(FaultPlan({"u": FaultSpec("crash", attempts=2)})):
            with pytest.raises(InjectedFault):
                maybe_inject("u", 0)
            with pytest.raises(InjectedFault):
                maybe_inject("u", 1)
            assert maybe_inject("u", 2) is None
