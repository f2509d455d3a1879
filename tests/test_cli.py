"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


def _run_cli(argv):
    """Run ``python -m repro *argv`` in a child process."""
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _one_line_error(argv):
    """Run ``python -m repro *argv``; it must exit 1 with one stderr line
    and no traceback.  Returns that line."""
    proc = _run_cli(argv)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    return lines[0]


class TestList:
    def test_lists_schedulers(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("ldp", "rle", "approx_logn", "protocol"):
            assert name in out


class TestGenerate:
    @pytest.mark.parametrize("ext", ["csv", "json"])
    def test_generate_roundtrip(self, tmp_path, capsys, ext):
        path = tmp_path / f"links.{ext}"
        assert main(["generate", str(path), "--n-links", "40", "--seed", "1"]) == 0
        from repro.io.linksets import linkset_from_csv, linkset_from_json

        loader = linkset_from_csv if ext == "csv" else linkset_from_json
        assert len(loader(path)) == 40

    @pytest.mark.parametrize("topology", ["paper", "clustered", "chain", "exponential"])
    def test_topologies(self, tmp_path, topology):
        path = tmp_path / "links.csv"
        assert main(["generate", str(path), "--topology", topology, "--n-links", "20"]) == 0

    def test_grid_topology_rounds(self, tmp_path):
        path = tmp_path / "links.csv"
        assert main(["generate", str(path), "--topology", "grid", "--n-links", "9"]) == 0
        from repro.io.linksets import linkset_from_csv

        assert len(linkset_from_csv(path)) == 9

    def test_bad_extension(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", str(tmp_path / "links.txt")])

    @pytest.mark.parametrize("topology", ["grid", "clustered"])
    def test_negative_n_links_is_a_one_line_error(self, tmp_path, topology):
        path = tmp_path / "links.csv"
        argv = ["generate", str(path), "--topology", topology, "--n-links", "-4"]
        assert _one_line_error(argv) == "n_links must be >= 0, got -4"
        assert not path.exists()


class TestSchedule:
    def test_random_workload(self, capsys):
        assert main(["schedule", "--algorithm", "rle", "--n-links", "60"]) == 0
        out = capsys.readouterr().out
        assert "feasible=True" in out

    def test_from_file_with_output(self, tmp_path, capsys):
        links = tmp_path / "links.csv"
        main(["generate", str(links), "--n-links", "50", "--seed", "2"])
        result = tmp_path / "result.json"
        assert (
            main(
                [
                    "schedule",
                    "--input",
                    str(links),
                    "--algorithm",
                    "greedy",
                    "--trials",
                    "100",
                    "--output",
                    str(result),
                ]
            )
            == 0
        )
        payload = json.loads(result.read_text())
        assert payload["algorithm"] == "greedy"
        assert payload["feasible"] is True
        assert payload["simulation"]["n_trials"] == 100

    def test_noise_flag(self, capsys):
        assert (
            main(["schedule", "--n-links", "40", "--algorithm", "greedy", "--noise", "1e-7"])
            == 0
        )

    def test_unknown_algorithm(self, capsys):
        # argparse refuses the name (exit 2) on every command that takes one.
        for command in ("schedule", "traffic", "mobility", "power-sweep"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--algorithm", "nope"])
            assert exc.value.code == 2
            assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_negative_n_links_is_a_one_line_error(self):
        assert _one_line_error(["schedule", "--n-links", "-2"]) == "n_links must be >= 0, got -2"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--eps", "1.5", "eps must be in (0, 1), got 1.5"),
            ("--eps", "0", "eps must be in (0, 1), got 0.0"),
            ("--alpha", "nan", "alpha must be > 0, got nan"),
            ("--gamma-th", "-1", "gamma_th must be > 0, got -1.0"),
            ("--noise", "-1", "noise must be >= 0, got -1.0"),
            ("--trials", "-5", "--trials must be >= 0 (0 = skip), got -5"),
            ("--alpha", "inf", "alpha must be finite, got inf"),
            ("--gamma-th", "inf", "gamma_th must be finite, got inf"),
            ("--noise", "inf", "noise must be finite, got inf"),
        ],
    )
    def test_bad_flag_value_is_a_one_line_error(self, flag, value, message):
        assert _one_line_error(["schedule", "--n-links", "10", flag, value]) == message

    def test_alpha_outside_the_schedulers_domain_is_a_one_line_error(self):
        line = _one_line_error(["schedule", "--n-links", "10", "--alpha", "2"])
        assert line.startswith("rle: ") and "alpha > 2" in line

    @pytest.mark.parametrize(
        "name, content, message",
        [
            pytest.param(name, content, message, id=name)
            for name, content, message in [
                ("missing.csv", None, "cannot read {path}: No such file or directory"),
                ("missing.json", None, "cannot read {path}: No such file or directory"),
                ("dir.csv", "dir", "cannot read {path}: Is a directory"),
                ("bad.csv", "a,b\n1,2\n", "{path}: bad header ['a', 'b']"),
                ("nolinks.json", '{"x": 1}', "{path}: expected an object with a 'links' key"),
                ("broken.json", "{not json", "{path}: Expecting property name"),
            ]
        ],
    )
    def test_unreadable_input_is_a_one_line_error(self, tmp_path, name, content, message):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        line = _one_line_error(["schedule", "--input", str(path)])
        assert line.startswith(message.format(path=path))


class TestOutputPaths:
    # Each ended in a FileNotFoundError or IsADirectoryError traceback.
    @pytest.mark.parametrize(
        "argv, target, reason",
        [
            pytest.param(
                ["generate", "{out}"],
                "missing/links.csv",
                "No such file or directory",
                id="generate-into-a-missing-directory",
            ),
            pytest.param(
                ["schedule", "--n-links", "6", "--trials", "0", "--output", "{out}"],
                "",
                "Is a directory",
                id="schedule-output-a-directory",
            ),
            pytest.param(
                ["--trace", "{out}", "list"], "", "Is a directory", id="trace-a-directory"
            ),
        ],
    )
    def test_unwritable_output_is_a_one_line_error(self, tmp_path, argv, target, reason):
        out = tmp_path / target
        line = _one_line_error([arg.format(out=out) for arg in argv])
        assert line == f"cannot write {out}: {reason}"


class TestTraffic:
    @pytest.mark.parametrize("flag", ["--n-links", "--max-queue"])
    def test_negative_count_is_a_one_line_error(self, flag):
        argv = ["traffic", "--n-links", "4", "--slots", "5", "--no-stability", flag, "-1"]
        field = flag.removeprefix("--").replace("-", "_")
        assert _one_line_error(argv) == f"{field} must be >= 0, got -1"

    # Rates are rejected before anything runs; a large accepted rate
    # would queue one Python int per packet, so none is run here.
    @pytest.mark.parametrize(
        "rate, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"), ("1e308", "1e+308")]
    )
    def test_bad_rate_is_a_one_line_error_naming_the_flag(self, rate, shown):
        argv = ["traffic", "--n-links", "4", "--slots", "5", "--no-stability", "--rate", rate]
        assert _one_line_error(argv) == f"--rate must be in [0, 1e+06], got {shown}"


class TestCacheCommands:
    def test_traffic_with_a_cache_dir_then_cache_stats(self, tmp_path, capsys):
        cache_dir, payload_path = tmp_path / "cache", tmp_path / "traffic.json"
        argv = ["traffic", "--n-links", "8", "--slots", "60", "--cache", str(cache_dir)]
        assert main([*argv, "--output", str(payload_path)]) == 0
        cache = json.loads(payload_path.read_text())["cache"]
        counts = f"{cache['exact_hits']} exact hits, {cache['misses']} misses"
        assert f"{counts} ({100 * cache['hit_rate']:.1f}% hit rate), " in capsys.readouterr().out
        assert cache["exact_hits"] > 0
        assert main(["cache", "stats", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert f"{cache['entries']} cached schedules (0 damaged)" in out
        assert "stale temp files: 0" in out
        assert f"[{cache['policy']}]: {counts}, {cache['evictions']} evictions" in out

    def test_traffic_cache_on_a_plain_file_is_a_one_line_error(self, tmp_path):
        plain = tmp_path / "cache"
        plain.write_text("not a directory")
        argv = ["traffic", "--n-links", "4", "--slots", "10", "--cache", str(plain)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == f"cannot use {plain} as a cache directory: not a directory"

    def test_cache_stats_on_a_plain_file_is_not_a_directory(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("not a directory")
        assert main(["cache", "stats", str(plain)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot use {plain} as a cache directory: not a directory\n"

    def test_cache_stats_counts_stale_temp_files(self, tmp_path, capsys):
        (tmp_path / ".0123abcd.x1y2z3.tmp").write_text("{")
        assert main(["cache", "stats", str(tmp_path)]) == 0
        assert "stale temp files: 1" in capsys.readouterr().out

    def test_cache_stats_reads_counters_with_the_old_tiers(self, tmp_path, capsys):
        # ``_stats.json`` as written while the cache had canonical and
        # warm tiers: its counters carry both.
        counters = {"exact_hits": 5, "canonical_hits": 2, "warm_hits": 1, "misses": 4}
        stats = {"schema": 1, "policy": "lru", "counters": {**counters, "evictions": 3}}
        (tmp_path / "_stats.json").write_text(json.dumps({**stats, "hits": {}}))
        assert main(["cache", "stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "last session [lru]: 5 exact hits, 4 misses, 3 evictions" in out


class TestConstants:
    def test_prints_table(self, capsys):
        assert main(["constants", "--alpha", "3.0", "4.0"]) == 0
        out = capsys.readouterr().out
        assert "gamma_eps" in out and "c1" in out
        assert len(out.strip().splitlines()) == 4  # header + rule + 2 rows

    # NumPy's divide-by-zero and invalid-value warnings from the ring sum
    # came before the error line.
    @pytest.mark.parametrize(
        "flag, shown",
        [("--alpha", "alpha=1e+308, gamma_th=1.0"), ("--gamma-th", "alpha=2.5, gamma_th=1e+308")],
        ids=["alpha", "gamma-th"],
    )
    def test_overflow_is_one_stderr_line(self, flag, shown):
        line = _one_line_error(["constants", flag, "1e308"])
        assert line == f"the LDP square capacity (Eq. 49) overflows at {shown}"


# Noise alone swamps every link: its noise factor overflows to inf, and
# NumPy's overflow warning used to reach stderr.
@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--n-links", "6", "--noise", "1e308"],
        ["traffic", "--n-links", "3", "--slots", "5", "--no-stability", "--noise", "1e308"],
        # A lone link's SINR, signal / 5e-324, overflows to inf.
        ["traffic", "--n-links", "3", "--slots", "5", "--no-stability", "--noise", "5e-324"],
    ],
    ids=["schedule", "traffic", "traffic-subnormal"],
)
def test_overflowing_noise_runs_with_a_clean_stderr(argv):
    proc = _run_cli(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


class TestChannelFlag:
    def test_unusable_spec_exits_without_traceback(self):
        """A spec the law rejects ends in a one-line ``--channel:`` error."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        args = ["figures", "--panel", "fig5a", "--channel", "shadowing:sigma_db=inf"]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "--channel: sigma_db must be a finite number" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestVerify:
    def test_small_budget_passes(self, capsys):
        assert main(["verify", "--budget", "8", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out and "zero mismatches" in out

    def test_list_checks(self, capsys):
        assert main(["verify", "--list-checks"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "cached-vs-certificate" in lines
        assert "eps-monotonicity" in lines
        assert lines == sorted(lines)

    def test_check_subset(self, capsys):
        assert (
            main(
                [
                    "verify",
                    "--budget",
                    "4",
                    "--check",
                    "subset-feasibility",
                    "--check",
                    "cached-vs-certificate",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 cells" in out

    def test_output_json(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        assert main(["verify", "--budget", "6", "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["passed"] is True
        assert payload["budget"] == 6
        assert payload["n_cells"] == 6
        assert payload["mismatches"] == []

    def test_unknown_check_rejected(self):
        # one line through main's ValidationError handler, no traceback
        with pytest.raises(SystemExit, match="unknown check 'nope'") as exc:
            main(["verify", "--budget", "2", "--check", "nope"])
        assert "\n" not in str(exc.value.code)


class TestFigures:
    def test_single_panel_with_json(self, tmp_path, capsys, monkeypatch):
        # Patch the quick config to something tiny for test speed.
        from repro.experiments.config import ExperimentConfig

        tiny = ExperimentConfig(
            n_links_sweep=(20,),
            alpha_sweep=(3.0,),
            n_links_fixed=20,
            n_repetitions=1,
            n_trials=20,
        )
        monkeypatch.setattr(ExperimentConfig, "small", lambda self: tiny)
        out_path = tmp_path / "series.json"
        assert main(["figures", "--panel", "fig6a", "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6(a)" in out
        payload = json.loads(out_path.read_text())
        assert "fig6a" in payload


class TestResilienceFlags:
    @pytest.fixture
    def tiny_cfg(self, monkeypatch):
        from repro.experiments.config import ExperimentConfig

        tiny = ExperimentConfig(
            n_links_sweep=(20,),
            alpha_sweep=(3.0,),
            n_links_fixed=20,
            n_repetitions=1,
            n_trials=20,
        )
        monkeypatch.setattr(ExperimentConfig, "small", lambda self: tiny)
        return tiny

    def test_bad_unit_timeout_rejected(self):
        with pytest.raises(SystemExit, match="--unit-timeout"):
            main(["figures", "--panel", "fig5a", "--unit-timeout", "0"])

    def test_bad_max_retries_rejected(self):
        with pytest.raises(SystemExit, match="--max-retries"):
            main(["figures", "--panel", "fig5a", "--max-retries", "-1"])

    def test_resume_on_a_plain_file_is_a_one_line_error(self, tmp_path):
        plain = tmp_path / "ck"
        plain.write_text("not a directory")
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--panel", "fig5a", "--resume", str(plain)])
        assert str(exc.value) == f"cannot use {plain} as a checkpoint directory: not a directory"

    def test_resilient_run_matches_plain_run(self, tiny_cfg, tmp_path, capsys):
        out_a = tmp_path / "plain.json"
        out_b = tmp_path / "resilient.json"
        assert main(["figures", "--panel", "fig5a", "--output", str(out_a)]) == 0
        assert (
            main(
                [
                    "figures",
                    "--panel",
                    "fig5a",
                    "--unit-timeout",
                    "30",
                    "--max-retries",
                    "1",
                    "--output",
                    str(out_b),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert json.loads(out_a.read_text()) == json.loads(out_b.read_text())

    def test_resume_checkpoints_units(self, tiny_cfg, tmp_path, capsys):
        ck_dir = tmp_path / "ck"
        args = ["figures", "--panel", "fig5a", "--resume", str(ck_dir)]
        assert main(args) == 0
        files = sorted(ck_dir.glob("*.json"))
        assert files  # one checkpoint file per work unit
        mtimes = [f.stat().st_mtime_ns for f in files]
        # second run resumes: same panel output, no checkpoint rewritten
        assert main(args) == 0
        capsys.readouterr()
        assert [f.stat().st_mtime_ns for f in sorted(ck_dir.glob("*.json"))] == mtimes

    def test_report_accepts_resilience_flags(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert (
            main(
                [
                    "report",
                    "--max-retries",
                    "1",
                    "--resume",
                    str(tmp_path / "ck"),
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert out.read_text().strip()


class TestMobility:
    ARGS = ["mobility", "--n-links", "25", "--steps", "3", "--reps", "1",
            "--speed", "4", "--algorithm", "rle"]

    def test_from_scratch_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "from-scratch" in out
        assert "rle" in out

    def test_incremental_with_output(self, tmp_path, capsys):
        import json

        path = tmp_path / "mobility.json"
        assert main(self.ARGS + ["--incremental", "--move-threshold", "8",
                                 "--output", str(path)]) == 0
        out = capsys.readouterr().out
        assert "incremental" in out
        payload = json.loads(path.read_text())
        assert payload["mode"] == "incremental"
        assert payload["points"][0]["algorithm"] == "rle"
        assert payload["points"][0]["all_feasible"] is True

    def test_default_algorithms(self, capsys):
        assert main(["mobility", "--n-links", "20", "--steps", "2",
                     "--reps", "1", "--speed", "3"]) == 0
        out = capsys.readouterr().out
        assert "ldp" in out and "rle" in out

    @pytest.mark.parametrize(
        "flag, value, bound",
        [("--steps", "0", ">= 1"), ("--reps", "0", ">= 1"), ("--n-links", "-4", ">= 0")],
        ids=["steps", "reps", "n-links"],
    )
    def test_bad_counts_rejected(self, flag, value, bound):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + [flag, value])
        assert str(exc.value) == f"{flag} must be {bound}, got {value}"

    def test_bad_move_threshold_rejected(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--move-threshold", "-2"])

    @pytest.mark.parametrize(
        "flags",
        [["--incremental", "--quality-bound", "0"], ["--quality-bound", "1.5"]],
        ids=["zero", "above-one"],
    )
    def test_bad_quality_bound_rejected(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + flags)
        assert str(exc.value) == f"--quality-bound must be in (0, 1], got {float(flags[-1])}"
