"""The published Fig. 5/6 numbers, pinned byte for byte.

``full_figures_output.txt`` holds the output of
``python examples/paper_figures.py --full``, and EXPERIMENTS.md quotes
its tables.  These tests regenerate the four panels with the
paper-scale ``ExperimentConfig()`` and compare each rendered table
(:func:`repro.experiments.reporting.format_series`) with the committed
one character for character; the ``  [x.xs]`` timing lines are the only
lines not compared.  Fig. 5(a) runs a second time at ``n_jobs=2``, so
the process pool is held to the published numbers as well.  The four
markdown tables of EXPERIMENTS.md must quote the committed tables cell
by cell, at the precision the doc prints.
"""

import re
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5 import failed_vs_alpha, failed_vs_links
from repro.experiments.fig6 import throughput_vs_alpha, throughput_vs_links
from repro.experiments.reporting import format_series

PUBLISHED = Path(__file__).resolve().parents[1] / "full_figures_output.txt"
EXPERIMENTS = PUBLISHED.parent / "EXPERIMENTS.md"
TIMING = re.compile(r"  \[\d+\.\ds\]")

#: panel -> (title line, driver, metric), as in examples/paper_figures.py
PANELS = {
    "fig5a": ("Fig. 5(a): failed transmissions vs number of links", failed_vs_links, "mean_failed"),
    "fig5b": ("Fig. 5(b): failed transmissions vs alpha", failed_vs_alpha, "mean_failed"),
    "fig6a": ("Fig. 6(a): throughput vs number of links", throughput_vs_links, "mean_throughput"),
    "fig6b": ("Fig. 6(b): throughput vs alpha", throughput_vs_alpha, "mean_throughput"),
}


def _published_tables():
    """Title line -> committed table text (title included, timing dropped)."""
    tables = {}
    for block in PUBLISHED.read_text().split("\n\n"):
        lines = block.splitlines()
        if len(lines) > 1 and TIMING.fullmatch(lines[-1]):
            tables[lines[0]] = "\n".join(lines[:-1])
    return tables


#: panel -> (EXPERIMENTS.md heading, decimals its table cells print)
DOC_TABLES = {
    "fig5a": ("## Fig. 5(a)", 3),
    "fig5b": ("## Fig. 5(b)", 3),
    "fig6a": ("## Fig. 6(a)", 2),
    "fig6b": ("## Fig. 6(b)", 2),
}


def _doc_table(heading):
    """Rows of the first markdown table under ``heading``, separator dropped."""
    section = EXPERIMENTS.read_text().split(f"\n{heading} ", 1)[1].split("\n## ", 1)[0]
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append([cell.strip() for cell in line.strip("|").split("|")])
    return [table[0], *table[2:]]


def _published_rows(text):
    """Header and data rows of one committed table (title line first)."""
    _, header, _, *rows = text.splitlines()
    return [re.split(r"\s{2,}", header.strip()), *(row.split() for row in rows)]


def _render(panel, config):
    title, driver, metric = PANELS[panel]
    return format_series(driver(config), metric, title=title)


@pytest.fixture(scope="module")
def published():
    tables = _published_tables()
    assert set(tables) == {title for title, _, _ in PANELS.values()}
    return tables


@pytest.mark.parametrize("panel", sorted(PANELS))
def test_panel_matches_published(published, panel):
    assert _render(panel, ExperimentConfig()) == published[PANELS[panel][0]]


def test_fig5a_on_the_process_pool_matches_published(published):
    config = ExperimentConfig().with_execution(n_jobs=2)
    assert _render("fig5a", config) == published[PANELS["fig5a"][0]]


@pytest.mark.parametrize("panel", sorted(PANELS))
def test_experiments_md_quotes_the_published_table(published, panel):
    heading, decimals = DOC_TABLES[panel]
    doc_header, *doc_rows = _doc_table(heading)
    pub_header, *pub_rows = _published_rows(published[PANELS[panel][0]])
    assert doc_header[1:] == pub_header[1:]
    assert len(doc_rows) == len(pub_rows)
    for doc_row, pub_row in zip(doc_rows, pub_rows):
        assert float(doc_row[0]) == float(pub_row[0])
        assert doc_row[1:] == [f"{float(value):.{decimals}f}" for value in pub_row[1:]]
