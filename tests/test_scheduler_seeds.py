"""Every scheduler that takes a ``seed`` gets one from the seeded drivers.

A scheduler with a ``seed`` keyword draws fresh OS entropy when it gets
none, so ``repro schedule --seed S`` and :func:`power_sweep` must pass
one to each of them, or their output changes from run to run.  The
spies below record the keyword arguments each registered seeded
scheduler receives.
"""

import functools

import pytest

from repro.cli import main
from repro.core import base
from repro.core.base import get_scheduler, list_schedulers, takes_seed
from repro.experiments.config import ExperimentConfig
from repro.experiments.power_sweep import power_sweep
from repro.utils.rng import stable_seed

#: The registered schedulers whose signature has a ``seed`` parameter.
SEEDED = ("dls", "local_search", "protocol_mis", "random")


@pytest.fixture
def spy(monkeypatch):
    """Wrap one registered scheduler; return the list of kwargs it got."""

    def install(name):
        fn = get_scheduler(name)
        calls = []

        @functools.wraps(fn)
        def recording(problem, **kwargs):
            calls.append(kwargs)
            return fn(problem, **kwargs)

        monkeypatch.setitem(base._REGISTRY, name, recording)
        return calls

    return install


def test_seeded_schedulers_are_those_taking_a_seed():
    assert tuple(n for n in list_schedulers() if takes_seed(get_scheduler(n))) == SEEDED


@pytest.mark.parametrize("name", SEEDED)
def test_schedule_command_passes_its_seed(spy, capsys, name):
    calls = spy(name)
    assert main(["schedule", "--algorithm", name, "--n-links", "8", "--seed", "5"]) == 0
    assert calls == [{"seed": 5}]


@pytest.mark.parametrize("name", SEEDED)
def test_power_sweep_passes_a_seed(spy, name):
    calls = spy(name)
    cfg = ExperimentConfig().with_execution(n_jobs=1)
    power_sweep(
        cfg,
        channels=("rayleigh",),
        policies=("uniform",),
        schedulers=[name],
        n_links=6,
        n_repetitions=1,
        n_trials=1,
    )
    want = stable_seed("powersweep", name, root=cfg.root_seed)
    assert calls and all(kwargs == {"seed": want} for kwargs in calls)
