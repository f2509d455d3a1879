"""Smoke tests: every example script must run end-to-end.

Each example is executed in-process (import + ``main`` with small
arguments) so failures surface with real tracebacks and the suite stays
fast.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart").main(n_links=60, seed=0)
        out = capsys.readouterr().out
        assert "scheduler" in out and "rle" in out

    def test_fading_vs_deterministic(self, capsys):
        load_example("fading_vs_deterministic").main(n_links=60, seed=0)
        out = capsys.readouterr().out
        assert "Verified" in out

    def test_knapsack_hardness(self, capsys):
        load_example("knapsack_hardness").main(n_items=6, seed=0)
        out = capsys.readouterr().out
        assert "Thm 3.2 verified" in out

    def test_sensor_collection(self, capsys):
        load_example("sensor_collection").main(n_sensors=40, seed=0)
        out = capsys.readouterr().out
        assert "slots needed" in out

    def test_power_control(self, capsys):
        load_example("power_control").main(n_links=60, seed=0)
        out = capsys.readouterr().out
        assert "power policy" in out

    def test_mobility_rounds(self, capsys):
        load_example("mobility_rounds").main(n_links=50, n_steps=4, seed=0)
        out = capsys.readouterr().out
        assert "churn" in out

    def test_capacity_planning(self, capsys):
        load_example("capacity_planning").main(n_links=80, seed=0)
        out = capsys.readouterr().out
        assert "packing ceiling" in out and "best eps" in out

    def test_paper_figures_quick(self, capsys, monkeypatch):
        # Shrink the quick config further for the smoke run.
        module = load_example("paper_figures")
        from repro.experiments.config import ExperimentConfig

        tiny = ExperimentConfig(
            n_links_sweep=(20,),
            alpha_sweep=(3.0,),
            n_links_fixed=20,
            n_repetitions=1,
            n_trials=20,
        )
        monkeypatch.setattr(
            module, "ExperimentConfig", lambda **kw: tiny
        )
        module.main(full=False)
        out = capsys.readouterr().out
        assert "Fig. 5(a)" in out and "Fig. 6(b)" in out

    def test_all_examples_have_docstrings_and_mains(self):
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            text = path.read_text()
            assert text.lstrip().startswith(('#!/usr/bin/env python\n"""', '"""')), path
            assert "def main(" in text, path
            assert '__name__ == "__main__"' in text, path
