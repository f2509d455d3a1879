"""The pluggable channel-law interface (`repro.channel.laws`).

Registry/spec contracts, the chunked RNG-stream contract for every
registered law, the exact Rayleigh limits, and the import surface of
``repro.channel`` (docs/CHANNELS.md).
"""

import numpy as np
import pytest

import repro.channel as channel_pkg
from repro.channel.laws import (
    CHANNEL_LAWS,
    ChannelLaw,
    DeterministicLaw,
    NakagamiLaw,
    RayleighLaw,
    ShadowingLaw,
    channel_law_names,
    get_channel_law,
    register_channel_law,
)
from repro.channel.sampling import (
    fading_means,
    iter_fading_trials,
    sample_fading_trials,
)
from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology
from repro.sim.montecarlo import simulate_schedule

ALPHA = 3.0


@pytest.fixture
def problem():
    return FadingRLS(links=paper_topology(8, seed=11), alpha=ALPHA)


@pytest.fixture
def geometry(problem):
    d = problem.distances()
    active = np.array([0, 2, 3, 5])
    return d, active


ALL_SPECS = (
    "rayleigh",
    "nakagami",
    "nakagami:m=2",
    "nakagami:m=0.5",
    "shadowing",
    "shadowing:sigma_db=4",
    "shadowing:sigma_db=4,static=true",
    "shadowing:sigma_db=0",
    "deterministic",
)


class TestRegistry:
    def test_registered_names(self):
        assert channel_law_names() == (
            "deterministic",
            "nakagami",
            "rayleigh",
            "shadowing",
        )
        assert set(CHANNEL_LAWS) == set(channel_law_names())

    def test_none_is_rayleigh(self):
        law = get_channel_law(None)
        assert isinstance(law, RayleighLaw)
        assert law.spec == "rayleigh"

    def test_instance_passthrough(self):
        law = NakagamiLaw(m=3.0)
        assert get_channel_law(law) is law

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown channel law 'bogus'"):
            get_channel_law("bogus")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="bad parameters for channel law"):
            get_channel_law("nakagami:k=2")

    def test_bad_param_value_rejected(self):
        # Out of range, non-finite, wrong type, or a repeated key: each
        # would build a law whose spec string fails to render or names a
        # different law.
        for spec in (
            "nakagami:m=-1",
            "nakagami:m=0",
            "nakagami:m=inf",
            "nakagami:m=nan",
            "nakagami:m=true",
            "nakagami:m=2,m=3",
            "shadowing:sigma_db=-3",
            "shadowing:sigma_db=inf",
            "shadowing:sigma_db=nan",
            "shadowing:sigma_db=true",
            "shadowing:static=1",
            "shadowing:sigma_db=4,sigma_db=6",
        ):
            with pytest.raises(ValueError):
                get_channel_law(spec)

    def test_duplicate_registration_rejected(self):
        class ImpostorLaw(RayleighLaw):
            name = "rayleigh"

        with pytest.raises(ValueError, match="already registered"):
            register_channel_law(ImpostorLaw)
        # Re-registering the *same* class is an idempotent no-op.
        assert register_channel_law(RayleighLaw) is RayleighLaw

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_spec_round_trips(self, spec):
        law = get_channel_law(spec)
        again = get_channel_law(law.spec)
        assert again == law
        assert again.spec == law.spec

    def test_canonical_forms(self):
        assert get_channel_law("nakagami").spec == "nakagami:m=1"
        assert get_channel_law("nakagami:m=2.0").spec == "nakagami:m=2"
        assert (
            get_channel_law("shadowing:sigma_db=6").spec
            == "shadowing:sigma_db=6,static=false"
        )
        assert (
            get_channel_law("shadowing:sigma_db=4,static=yes").spec
            == "shadowing:sigma_db=4,static=true"
        )
        assert get_channel_law("deterministic").spec == "deterministic"

    def test_closed_form_flags(self):
        assert get_channel_law("rayleigh").has_closed_form
        assert get_channel_law("nakagami:m=1").has_closed_form
        assert not get_channel_law("nakagami:m=2").has_closed_form
        assert get_channel_law("shadowing:sigma_db=0").has_closed_form
        assert not get_channel_law("shadowing:sigma_db=6").has_closed_form
        assert get_channel_law("deterministic").has_closed_form


class TestClosedForms:
    def test_rayleigh_matches_problem(self, problem):
        active = np.array([0, 1, 4])
        law = get_channel_law("rayleigh")
        got = law.success_probability(problem, active)
        want = problem.success_probabilities(active)[np.sort(active)]
        np.testing.assert_array_equal(got, want)

    def test_mc_only_laws_return_none(self, problem):
        active = np.array([0, 1])
        assert get_channel_law("nakagami:m=2").success_probability(problem, active) is None
        assert (
            get_channel_law("shadowing:sigma_db=6").success_probability(problem, active)
            is None
        )

    def test_deterministic_is_zero_one(self, problem):
        active = np.array([0, 1, 2, 3])
        got = DeterministicLaw().success_probability(problem, active)
        assert set(np.unique(got)) <= {0.0, 1.0}

    def test_nakagami_large_m_approaches_deterministic(self):
        """m -> inf concentrates the power at its mean, so the Monte-Carlo
        success estimate nears the deterministic 0/1 indicator."""
        p = FadingRLS(links=paper_topology(12, region_side=80, seed=0), alpha=ALPHA)
        active = np.arange(p.n_links)
        want = DeterministicLaw().success_probability(p, active)
        assert 0 < want.sum() < want.size  # both outcomes present
        got = simulate_schedule(
            p, active, n_trials=20_000, seed=6, channel="nakagami:m=200"
        ).per_link_success
        np.testing.assert_allclose(got, want, atol=0.05)


class TestStreamContract:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_chunk_invariance(self, geometry, spec):
        d, active = geometry
        law = get_channel_law(spec)
        batched = sample_fading_trials(d, active, ALPHA, 23, seed=5, law=law)
        streamed = np.concatenate(
            list(
                iter_fading_trials(
                    d, active, ALPHA, 23, seed=5, chunk_trials=7, law=law
                )
            )
        )
        np.testing.assert_array_equal(batched, streamed)

    def test_rayleigh_law_matches_default_path(self, geometry):
        d, active = geometry
        default = sample_fading_trials(d, active, ALPHA, 16, seed=9)
        explicit = sample_fading_trials(
            d, active, ALPHA, 16, seed=9, law="rayleigh"
        )
        np.testing.assert_array_equal(default, explicit)

    def test_shadowing_zero_recovers_rayleigh_bits(self, geometry):
        d, active = geometry
        rayleigh = sample_fading_trials(d, active, ALPHA, 16, seed=13)
        shadow0 = sample_fading_trials(
            d, active, ALPHA, 16, seed=13, law="shadowing:sigma_db=0"
        )
        np.testing.assert_array_equal(rayleigh, shadow0)

    def test_deterministic_consumes_no_rng(self, geometry):
        d, active = geometry
        a = sample_fading_trials(d, active, ALPHA, 4, seed=1, law="deterministic")
        b = sample_fading_trials(d, active, ALPHA, 4, seed=999, law="deterministic")
        np.testing.assert_array_equal(a, b)
        _, means = fading_means(d, active, ALPHA)
        np.testing.assert_array_equal(a[0], means)

    def test_static_shadowing_freezes_shadow_draw(self, geometry):
        d, active = geometry
        z = sample_fading_trials(
            d, active, ALPHA, 50, seed=3, law="shadowing:sigma_db=8,static=true"
        )
        _, means = fading_means(d, active, ALPHA)
        mask = means > 0
        # Dividing out Rayleigh randomness per trial: the trial-averaged
        # log-factor has one shared shadowing component; with a fresh
        # shadow per trial the per-pair spread across trials would be
        # much larger.  Just check samples stay positive and finite with
        # the frozen draw, and that two seeds give different factors.
        assert np.isfinite(z[:, mask]).all() and (z[:, mask] > 0).all()
        z2 = sample_fading_trials(
            d, active, ALPHA, 50, seed=4, law="shadowing:sigma_db=8,static=true"
        )
        assert not np.array_equal(z, z2)

    @pytest.mark.parametrize("spec", ("nakagami:m=4", "nakagami:m=0.5", "shadowing:sigma_db=5"))
    def test_mean_preserved(self, geometry, spec):
        d, active = geometry
        law = get_channel_law(spec)
        z = sample_fading_trials(d, active, ALPHA, 4000, seed=7, law=law)
        _, means = fading_means(d, active, ALPHA)
        mask = means > 0
        ratio = z[:, mask].mean(axis=0) / means[mask]
        assert np.all(np.abs(ratio - 1.0) < 0.25)

    def test_rayleigh_cdf_at_mean(self, geometry):
        """Eq. 5: an exponential power falls below its mean w.p. 1 - 1/e."""
        d, active = geometry
        z = sample_fading_trials(d, active, ALPHA, 20_000, seed=2)
        _, means = fading_means(d, active, ALPHA)
        below = (z <= means).mean(axis=0)
        np.testing.assert_allclose(below, 1 - np.exp(-1), atol=0.015)

    def test_shadowing_raises_variance(self, geometry):
        """Log-normal shadowing widens every pair's power spread."""
        d, active = geometry
        _, means = fading_means(d, active, ALPHA)
        var = []
        for sigma in (0, 8):
            law = f"shadowing:sigma_db={sigma}"
            z = sample_fading_trials(d, active, ALPHA, 20_000, seed=3, law=law)
            var.append((z / means).var(axis=0))
        assert np.all(var[1] > var[0])


class TestImportSurface:
    """Satellite: the laws are exported from ``repro.channel``."""

    def test_all_names_resolve(self):
        for name in channel_pkg.__all__:
            assert hasattr(channel_pkg, name), name

    def test_law_symbols_exported(self):
        for name in (
            "ChannelLaw",
            "RayleighLaw",
            "NakagamiLaw",
            "ShadowingLaw",
            "DeterministicLaw",
            "CHANNEL_LAWS",
            "get_channel_law",
            "register_channel_law",
            "channel_law_names",
        ):
            assert name in channel_pkg.__all__
            assert hasattr(channel_pkg, name)

    def test_package_import_matches_module(self):
        assert channel_pkg.NakagamiLaw is NakagamiLaw
        assert channel_pkg.ShadowingLaw is ShadowingLaw
        assert issubclass(channel_pkg.NakagamiLaw, ChannelLaw)
