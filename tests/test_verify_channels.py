"""Channel-law oracles (`repro.verify.channels`).

Three layers: the relations/differential hold on real fuzz scenarios,
fault injection proves each reason code actually fires, and Hypothesis
property tests widen the spec-round-trip and stream-contract claims
beyond the pinned cases in ``tests/test_channel_laws.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.channel.laws import NakagamiLaw, ShadowingLaw, get_channel_law
from repro.channel.sampling import iter_fading_trials, sample_fading_trials
from repro.network.topology import paper_topology
from repro.verify import channels
from repro.verify.channels import (
    CODE_CHANNEL_CHUNK,
    CODE_CHANNEL_RAYLEIGH,
    CODE_DETERMINISTIC_CLOSED_FORM,
    CODE_NAKAGAMI_CLOSED_FORM,
    CODE_NAKAGAMI_MONOTONICITY,
    CODE_SHADOWING_LIMIT,
    check_channel_vs_rayleigh,
    relation_nakagami_monotonicity,
    relation_nakagami_unit,
    relation_shadowing_zero,
)
from repro.verify.fuzz import FAMILIES, make_scenario

ALPHA = 3.0
_LINKS = paper_topology(6, seed=17)
_DISTANCES = None  # filled lazily below


def _geometry():
    global _DISTANCES
    if _DISTANCES is None:
        from repro.core.problem import FadingRLS

        _DISTANCES = FadingRLS(links=_LINKS, alpha=ALPHA).distances()
    return _DISTANCES, np.array([0, 2, 4, 5])


class TestChecksHoldOnFuzzScenarios:
    """The oracles are theorems about correct code: no mismatches."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_relations_pass(self, family):
        scenario = make_scenario(family, 0, root_seed=0)
        assert relation_shadowing_zero(scenario) == []
        assert relation_nakagami_unit(scenario) == []
        assert relation_nakagami_monotonicity(scenario) == []

    @pytest.mark.parametrize("family", FAMILIES)
    def test_differential_passes(self, family):
        scenario = make_scenario(family, 0, root_seed=0)
        assert check_channel_vs_rayleigh(scenario) == []


def _patched_simulate(monkeypatch, corrupt_channel):
    """Wrap ``channels.simulate_trials`` to flip successes for one spec."""
    real = channels.simulate_trials

    def fake(p, active, n_trials, seed=None, channel=None, **kwargs):
        out = real(p, active, n_trials, seed=seed, channel=channel, **kwargs)
        if channel == corrupt_channel:
            out = np.logical_not(out)
        return out

    monkeypatch.setattr(channels, "simulate_trials", fake)


class TestFaultInjection:
    """Each reason code fires when its invariant is deliberately broken."""

    def test_shadowing_limit_divergence(self, monkeypatch):
        scenario = make_scenario("paper", 0, root_seed=0)
        _patched_simulate(monkeypatch, "shadowing:sigma_db=0")
        mismatches = relation_shadowing_zero(scenario)
        assert mismatches and all(m.code == CODE_SHADOWING_LIMIT for m in mismatches)

    def test_nakagami_closed_form_divergence(self, monkeypatch):
        scenario = make_scenario("paper", 0, root_seed=0)
        _patched_simulate(monkeypatch, "nakagami:m=1")
        mismatches = relation_nakagami_unit(scenario)
        assert mismatches
        assert all(m.code == CODE_NAKAGAMI_CLOSED_FORM for m in mismatches)
        assert all(m.check == "nakagami-unit-closed-form" for m in mismatches)

    def test_nakagami_monotonicity_violation(self, monkeypatch):
        scenario = make_scenario("paper", 0, root_seed=0)
        real = channels.simulate_trials

        def fake(p, active, n_trials, seed=None, channel=None, **kwargs):
            out = real(p, active, n_trials, seed=seed, channel=channel, **kwargs)
            if channel == "nakagami:m=8":
                out = np.zeros_like(out)  # higher m suddenly always fails
            return out

        monkeypatch.setattr(channels, "simulate_trials", fake)
        mismatches = relation_nakagami_monotonicity(scenario)
        assert mismatches
        assert all(m.code == CODE_NAKAGAMI_MONOTONICITY for m in mismatches)

    def test_channel_rayleigh_divergence(self, monkeypatch):
        scenario = make_scenario("paper", 0, root_seed=0)
        _patched_simulate(monkeypatch, "rayleigh")
        codes = {m.code for m in check_channel_vs_rayleigh(scenario)}
        assert CODE_CHANNEL_RAYLEIGH in codes

    def test_channel_chunk_divergence(self, monkeypatch):
        scenario = make_scenario("paper", 0, root_seed=0)
        real = channels.iter_fading_trials

        def fake(*args, **kwargs):
            for chunk in real(*args, **kwargs):
                yield chunk * 1.0000001  # stream drifts from the batch

        monkeypatch.setattr(channels, "iter_fading_trials", fake)
        mismatches = check_channel_vs_rayleigh(scenario)
        assert mismatches and all(m.code == CODE_CHANNEL_CHUNK for m in mismatches)

    def test_deterministic_closed_form_divergence(self, monkeypatch):
        scenario = make_scenario("paper", 0, root_seed=0)
        _patched_simulate(monkeypatch, "deterministic")
        codes = {m.code for m in check_channel_vs_rayleigh(scenario)}
        assert CODE_DETERMINISTIC_CLOSED_FORM in codes

    def test_mismatches_name_scenario(self, monkeypatch):
        scenario = make_scenario("paper", 0, root_seed=0)
        _patched_simulate(monkeypatch, "shadowing:sigma_db=0")
        (m,) = relation_shadowing_zero(scenario)
        assert m.scenario == scenario.name


def _rejected_or_round_trips(make):
    """A law built from any value either raises ``ValueError`` or has a
    spec that parses back to an equal law with the same spec."""
    try:
        law = make()
    except ValueError:
        return
    again = get_channel_law(law.spec)
    assert again == law
    assert again.spec == law.spec


_ANY_VALUE = st.one_of(st.floats(), st.booleans())


class TestSpecRoundTripProperties:
    @given(m=_ANY_VALUE)
    @example(m=float("inf"))
    @example(m=float("nan"))
    @example(m=True)
    @example(m=np.float64(2.5))
    @settings(max_examples=100, deadline=None)
    def test_nakagami_spec_round_trips(self, m):
        _rejected_or_round_trips(lambda: NakagamiLaw(m=m))

    @given(sigma=_ANY_VALUE, static=_ANY_VALUE)
    @example(sigma=float("inf"), static=False)
    @example(sigma=float("nan"), static=False)
    @example(sigma=True, static=False)
    @example(sigma=6.0, static=1.0)
    @example(sigma=np.float64(4.5), static=True)
    @settings(max_examples=100, deadline=None)
    def test_shadowing_spec_round_trips(self, sigma, static):
        _rejected_or_round_trips(lambda: ShadowingLaw(sigma_db=sigma, static=static))


class TestStreamContractProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        chunk=st.integers(min_value=1, max_value=25),
        spec=st.sampled_from(
            ("nakagami:m=2", "nakagami:m=0.5", "shadowing:sigma_db=5", "rayleigh")
        ),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_chunk_invariance(self, seed, chunk, spec):
        d, active = _geometry()
        law = get_channel_law(spec)
        batched = sample_fading_trials(d, active, ALPHA, 21, seed=seed, law=law)
        streamed = np.concatenate(
            list(
                iter_fading_trials(
                    d, active, ALPHA, 21, seed=seed, chunk_trials=chunk, law=law
                )
            )
        )
        np.testing.assert_array_equal(batched, streamed)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sigma_zero_recovers_rayleigh_bits(self, seed):
        d, active = _geometry()
        rayleigh = sample_fading_trials(d, active, ALPHA, 12, seed=seed)
        shadow0 = sample_fading_trials(
            d, active, ALPHA, 12, seed=seed, law="shadowing:sigma_db=0"
        )
        np.testing.assert_array_equal(rayleigh, shadow0)
