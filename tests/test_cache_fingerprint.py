"""Content-hash canonicalisation and exact-key tests.

The first class pins the *byte values* of the shared content-hash keys
across the dedupe into :mod:`repro.cache.fingerprint`: existing
checkpoint/result directories must keep resuming, so these hex strings
are a compatibility contract, not an implementation detail.  If one of
these assertions fails, the fix is to restore the key derivation — not
to update the expected string.
"""

import functools

import numpy as np
import pytest

from repro.cache.fingerprint import (
    canonical_channel,
    config_key,
    describe_callable,
    exact_key,
    scheduler_identity,
)
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.experiments.config import TopologyWorkload
from repro.network.links import LinkSet
from repro.sim.parallel import WorkUnit, checkpoint_key
from repro.verify.fuzz import make_scenario


class TestKeyCompatibility:
    """Old checkpoint keys are unchanged (resume compatibility)."""

    def test_config_key_plain_params_pinned(self):
        assert config_key("exp", {"alpha": 3.0, "grid": (1, 2, 3)}) == (
            "e37a0c1b880cee8ba70520d2"
        )

    def test_config_key_numpy_params_pinned(self):
        key = config_key(
            "exp", {"n": np.int64(5), "x": np.float64(0.25), "arr": np.arange(3)}
        )
        assert key == "6efcdd177e57b27b9ca9b609"

    def test_checkpoint_key_default_unit_pinned(self):
        unit = WorkUnit(
            tag=0,
            rep=1,
            name="rle",
            scheduler=rle_schedule,
            workload=TopologyWorkload(n_links=30),
            n_trials=100,
            alpha=3.0,
            gamma_th=1.0,
            eps=0.01,
            root_seed=2017,
            scheduler_kwargs={"c2": 0.5},
        )
        assert checkpoint_key(unit) == "497fb7cb7e67530b8fbc33c0"

    def test_checkpoint_key_channel_unit_pinned(self):
        unit = WorkUnit(
            tag="fig5a",
            rep=0,
            name="ldp",
            scheduler=functools.partial(rle_schedule),
            workload=TopologyWorkload(n_links=12, region_side=100.0),
            n_trials=16,
            alpha=4.0,
            gamma_th=2.0,
            eps=0.05,
            root_seed=7,
            noise=0.1,
            channel="shadowing:sigma_db=6",
            power_policy="distance_proportional",
        )
        assert checkpoint_key(unit) == "8a0445a0a585b64d577fb103"

    def test_parallel_reexports_are_the_shared_function(self):
        from repro.sim import parallel

        assert parallel.describe_callable is describe_callable
        assert parallel.canonical_channel is canonical_channel


class TestCanonicalisers:
    def test_describe_callable_is_address_free(self):
        a = describe_callable(rle_schedule)
        assert a == describe_callable(rle_schedule)
        assert "0x" not in a

    def test_describe_callable_partial_recurses(self):
        desc = describe_callable(functools.partial(rle_schedule, c2=0.5))
        assert "rle_schedule" in desc and "c2" in desc

    def test_config_key_rejects_unserialisable(self):
        with pytest.raises(TypeError):
            config_key("exp", {"bad": object()})

    def test_config_key_ignores_param_order(self):
        assert config_key("x", {"a": 1, "b": 2}) == config_key("x", {"b": 2, "a": 1})

    def test_config_key_depends_on_name_and_params(self):
        assert config_key("x", {"a": 1}) != config_key("y", {"a": 1})
        assert config_key("x", {"a": 1}) != config_key("x", {"a": 2})

    def test_config_key_coerces_tuples_and_numpy(self):
        k1 = config_key("x", {"sweep": (1, 2), "n": np.int64(5)})
        assert k1 == config_key("x", {"sweep": [1, 2], "n": 5})

    def test_scheduler_identity_orders_kwargs(self):
        a = scheduler_identity(rle_schedule, {"b": 1, "a": 2})
        b = scheduler_identity(rle_schedule, {"a": 2, "b": 1})
        assert a == b
        assert a != scheduler_identity(rle_schedule, {"a": 2})


def _problem(**overrides):
    return make_scenario("paper", 0, n_links=12, **overrides).problem


def _shifted(problem, shift=(0.0, 0.0)):
    return FadingRLS(
        links=LinkSet(
            senders=np.asarray(problem.links.senders) + np.asarray(shift),
            receivers=np.asarray(problem.links.receivers) + np.asarray(shift),
            rates=np.asarray(problem.links.rates),
        ),
        alpha=problem.alpha,
        gamma_th=problem.gamma_th,
        eps=problem.eps,
        noise=problem.noise,
        power=problem.power,
    )


class TestExactKey:
    def test_identical_problems_share_the_key(self):
        p = _problem()
        sid = scheduler_identity(rle_schedule, None)
        assert exact_key(p, sid) == exact_key(_shifted(p), sid)

    def test_any_perturbation_changes_the_key(self):
        p = _problem()
        sid = scheduler_identity(rle_schedule, None)
        base = exact_key(p, sid)
        assert exact_key(_shifted(p, shift=(1e-9, 0.0)), sid) != base
        assert exact_key(p, scheduler_identity(rle_schedule, {"c2": 0.5})) != base

    def test_channel_parameters_are_part_of_the_key(self):
        p = _problem()
        q = FadingRLS(links=p.links, alpha=p.alpha + 0.5, gamma_th=p.gamma_th, eps=p.eps)
        sid = scheduler_identity(rle_schedule, None)
        assert exact_key(p, sid) != exact_key(q, sid)
