"""The CLI front door: every flag value ends in exit 0, 1 or 2.

``repro.cli.main`` runs in process.  A value outside a flag's domain
must end in exit status 1 with one message line naming the flag or
parameter (a :class:`~repro.utils.validation.ValidationError` that
``main`` re-raises as ``SystemExit``), a value argparse cannot parse in
exit status 2 with its usage text, and never in a traceback.

Every size is tiny and ``--jobs`` never exceeds 2, so no example starts
more than two worker processes.  ``serve`` and ``loadtest`` stop where
the server would bind, after the broker and server are constructed:
nothing binds a port and no worker thread starts.  The broker, cache
and load-generator checks are tested directly in their own test files.
"""

from __future__ import annotations

import io
import threading
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main

#: One boundary value per numeric flag, plus a non-number.  ``5e-324``
#: is the smallest subnormal: products and quotients built from it
#: underflow to 0 or overflow to inf.
BOUNDARY = ("-1", "0", "1", "nan", "inf", "-inf", "1e308", "5e-324", "x")
#: ``--jobs 0`` means one worker per CPU; it is left out so that no
#: example starts more than two worker processes.
JOBS = ("-1", "1", "2", "nan", "inf", "-inf", "1e308", "x")
#: Values for a flag that names a directory: a plain file in the way, a
#: directory that does not exist yet, and one that does.
DIRECTORY = ("{plain}", "{tmp}/new-dir", "{tmp}")

_FIGURE_FLAGS = {
    "--jobs": JOBS,
    "--unit-timeout": BOUNDARY,
    "--max-retries": BOUNDARY,
    "--resume": DIRECTORY,
}

#: subcommand -> (argv that runs it small and valid, {flag: values}).
COMMANDS = {
    "generate": (
        ["generate", "{tmp}/links.csv", "--n-links", "4"],
        {"--n-links": BOUNDARY, "--seed": BOUNDARY},
    ),
    "schedule": (
        ["schedule", "--n-links", "6", "--trials", "4"],
        {
            flag: BOUNDARY
            for flag in (
                "--n-links", "--alpha", "--gamma-th", "--eps", "--noise", "--trials", "--seed"
            )
        },
    ),
    "figures": (["figures", "--panel", "fig5a", "--jobs", "1"], _FIGURE_FLAGS),
    "fig6": (["fig6", "--jobs", "1"], _FIGURE_FLAGS),
    "report": (["report", "--jobs", "1", "--output", "{tmp}/report.md"], _FIGURE_FLAGS),
    "list": (["list"], {}),
    "constants": (
        ["constants", "--alpha", "3"],
        {"--alpha": BOUNDARY, "--gamma-th": BOUNDARY, "--eps": BOUNDARY},
    ),
    "traffic": (
        ["traffic", "--n-links", "3", "--slots", "5", "--no-stability", "--cache", "memory"],
        {
            **{
                flag: BOUNDARY
                for flag in (
                    "--n-links", "--rate", "--slots", "--alpha", "--eps", "--noise",
                    "--seed", "--max-queue", "--cache-capacity",
                )
            },
            "--jobs": JOBS,
            "--cache": DIRECTORY,
        },
    ),
    "verify": (
        ["verify", "--budget", "2"],
        {"--budget": BOUNDARY, "--seed": BOUNDARY, "--time-budget": BOUNDARY},
    ),
    "mobility": (
        [
            "mobility", "--incremental", "--n-links", "4", "--steps", "2", "--reps", "1",
            "--speed", "2", "--algorithm", "rle",
        ],
        {
            flag: BOUNDARY
            for flag in (
                "--speed", "--n-links", "--steps", "--reps", "--alpha", "--seed",
                "--move-threshold", "--quality-bound",
            )
        },
    ),
    "power-sweep": (
        [
            "power-sweep", "--n-links", "3", "--reps", "1", "--trials", "4",
            "--channel", "rayleigh", "--policy", "uniform", "--algorithm", "rle",
        ],
        {"--n-links": BOUNDARY, "--reps": BOUNDARY, "--trials": BOUNDARY, "--jobs": JOBS},
    ),
    "trace": (["trace", "summarize", "{trace}"], {"--top": BOUNDARY}),
    "cache": (["cache", "stats", "{tmp}"], {}),
    "serve": (
        ["serve", "--port", "0", "--quiet", "--workers", "1"],
        {
            **{
                flag: BOUNDARY
                for flag in (
                    "--port", "--workers", "--queue-limit", "--tenant-rate",
                    "--tenant-burst", "--cache-capacity", "--max-sessions",
                )
            },
            "--cache-dir": DIRECTORY,
        },
    ),
    "loadtest": (
        ["loadtest", "--clients", "1", "--ticks", "1", "--pool", "1", "--n-links", "3"],
        {"--clients": BOUNDARY, "--pool": BOUNDARY, "--n-links": BOUNDARY},
    ),
}

#: Every (subcommand, flag, value) triple.
CASES = [
    (name, flag, value)
    for name, (_argv, flags) in sorted(COMMANDS.items())
    for flag, values in sorted(flags.items())
    for value in values
]

#: Seconds any one example may take; the valid small runs take well
#: under one.
TIME_LIMIT = 30.0


class _Booted(Exception):
    """Raised in place of ``ScheduleServer.start``: construction succeeded."""


@pytest.fixture
def front_door(tmp_path, monkeypatch):
    """``run(name, (flag, value), ...)``: one CLI call, checked against
    the exit contract; returns ``(exit status, stdout, stderr)``."""
    from repro.experiments.config import ExperimentConfig
    from repro.service.server import ScheduleServer

    tiny = ExperimentConfig(
        n_links_sweep=(5,),
        alpha_sweep=(3.0,),
        n_links_fixed=5,
        n_repetitions=1,
        n_trials=5,
    )
    monkeypatch.setattr(ExperimentConfig, "small", lambda self: tiny)

    async def _stop_at_start(self):
        raise _Booted

    monkeypatch.setattr(ScheduleServer, "start", _stop_at_start)
    plain = tmp_path / "plain"
    plain.write_text("not a directory")
    trace = tmp_path / "run.jsonl"
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["--trace", str(trace), "list"]) == 0
    paths = {"tmp": str(tmp_path), "plain": str(plain), "trace": str(trace)}

    def run(name, *flag_values):
        argv = list(COMMANDS[name][0])
        for flag, value in flag_values:
            argv += [flag, value]
        argv = [arg.format(**paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        threads = set(threading.enumerate())
        start = time.monotonic()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except _Booted:
                code = 0
        elapsed = time.monotonic() - start
        if name in ("serve", "loadtest"):
            assert set(threading.enumerate()) <= threads, argv
        if isinstance(code, str):  # SystemExit(message): exit status 1
            assert "\n" not in code and code.strip(), argv
            code = 1
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        assert elapsed < TIME_LIMIT, (argv, elapsed)
        return code, out.getvalue(), err.getvalue()

    return run


@st.composite
def invocations(draw):
    """A subcommand with up to three of its flags set to boundary values."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[name][1]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3)) if flags else []
    return name, [(flag, draw(st.sampled_from(flags[flag]))) for flag in chosen]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(invocation=invocations())
def test_flag_value_combinations_end_in_an_exit_status(front_door, invocation):
    name, flag_values = invocation
    front_door(name, *flag_values)


def test_every_single_flag_value_ends_in_an_exit_status(front_door):
    for name, flag, value in CASES:
        front_door(name, (flag, value))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_subcommand_runs_small_and_valid(front_door, name):
    code, _out, _err = front_door(name)
    assert code == 0


@pytest.mark.parametrize("value", ["x", "1e308"])
def test_a_value_argparse_cannot_parse_exits_2_with_usage(front_door, value):
    code, _out, err = front_door("schedule", ("--trials", value))
    assert code == 2 and err.startswith("usage: repro schedule")


# Each case ended in a traceback, was accepted silently, or printed a
# line that named neither the flag nor the parameter.
TENTPOLE_CASES = [
    pytest.param(argv, message, id="-".join(argv[:1] + argv[-2:]))
    for argv, message in [
        (["constants", "--alpha", "1.5"],
         "the paper's constants require alpha > 2 (zeta convergence), got 1.5"),
        (["constants", "--eps", "2"], "eps must be in (0, 1), got 2.0"),
        (["constants", "--gamma-th", "-1"], "gamma_th must be > 0, got -1.0"),
        *[
            (["traffic", "--n-links", "3", "--slots", "5", "--no-stability", flag, value],
             message)
            for flag, value, message in [
                ("--alpha", "nan", "alpha must be > 0, got nan"),
                ("--eps", "1.5", "eps must be in (0, 1), got 1.5"),
                ("--noise", "-1", "noise must be >= 0, got -1.0"),
                ("--seed", "-2", "seed must be >= 0, got -2"),
            ]
        ],
        *[
            (["mobility", "--n-links", "4", "--steps", "2", "--reps", "1", flag, value],
             message)
            for flag, value, message in [
                ("--speed", "-1",
                 "speed_range must be finite with 0 < min <= max, got (-0.5, -1.0)"),
                ("--speed", "nan",
                 "speed_range must be finite with 0 < min <= max, got (nan, nan)"),
                ("--alpha", "nan", "alpha must be > 0, got nan"),
                ("--move-threshold", "nan", "--move-threshold must be >= 0, got nan"),
            ]
        ],
        (["verify", "--budget", "-1"], "budget must be >= 0, got -1"),
        (["verify", "--budget", "1", "--time-budget", "nan"],
         "time_budget must be >= 0, got nan"),
        (["figures", "--panel", "fig5a", "--unit-timeout", "nan"],
         "--unit-timeout must be > 0, got nan"),
        (["serve", "--workers", "0"], "n_workers must be >= 1, got 0"),
        (["serve", "--queue-limit", "0"], "queue_limit must be >= 1, got 0"),
        (["schedule", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["generate", "{tmp}/F.csv", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["power-sweep", "--n-links", "4", "--reps", "1", "--trials", "-1"],
         "n_trials must be >= 0, got -1"),
    ]
]


@pytest.mark.parametrize("argv, message", TENTPOLE_CASES)
def test_bad_value_is_one_line_naming_it(tmp_path, capsys, argv, message):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert str(exc.value) == message
    assert capsys.readouterr().err == ""


def test_loadtest_checks_its_counts_before_it_boots(monkeypatch, capsys):
    from repro.service.server import ScheduleServer

    def _must_not_bind(self):
        raise AssertionError("a server booted before the counts were checked")

    monkeypatch.setattr(ScheduleServer, "start", _must_not_bind)
    with pytest.raises(SystemExit) as exc:
        main(["loadtest", "--clients", "-1"])
    assert str(exc.value) == "clients must be >= 0, got -1"
    assert capsys.readouterr().err == ""
