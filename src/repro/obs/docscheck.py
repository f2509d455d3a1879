"""Documentation-contract checker behind ``make docs-check``.

One table, :func:`contract`, pairs each registry of public names with
the docs section that must document it:

=================  ===================  ===========================================
page               section              names
=================  ===================  ===========================================
OBSERVABILITY.md   Span catalogue       ``span("…")`` call sites under ``src/``
OBSERVABILITY.md   Metric catalogue     ``obs_metrics.inc/gauge/observe`` call sites
CHANNELS.md        Channel laws         :func:`repro.channel.laws.channel_law_names`
CHANNELS.md        Power policies       :data:`repro.core.powercontrol.POWER_POLICIES`
CACHING.md         Eviction policies    :data:`repro.cache.CACHE_POLICIES`
SERVICE.md         Endpoints            :data:`repro.service.ROUTE_TEMPLATES`
SERVICE.md         Error codes          :data:`repro.service.WIRE_ERROR_CODES`
=================  ===================  ===========================================

:func:`run_checks` walks the table: every name must appear backticked
in its ``## section`` of ``docs/<page>``, and a missing page or a
missing or empty section fails too.  The check is one-directional — a
documented name nothing registers any more is not a failure.  Every
page (``API.md`` included) also has its fenced ````python```` blocks
that contain doctest prompts (``>>>``) run with the standard
:mod:`doctest` machinery, so documented signatures that drift from the
code fail here instead of silently rotting.  Adding an instrumented
call site, a law, a policy, a route or an error code without
documenting it fails the build, which keeps those names a *stable
public contract* rather than an accident of the code.

The scanner is intentionally literal: instrumented call sites must
write ``span("dotted.name", ...)`` / ``obs_metrics.inc("dotted.name",
...)`` with a **string literal** first argument (this is also the
style the contract mandates — dynamic span names defeat aggregation).
"""

from __future__ import annotations

import doctest
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: ``span("name"`` — also matches ``trace.span(``; instrumented modules
#: import the function directly, so a bare call is the common form.
SPAN_USE_RE = re.compile(r"""\bspan\(\s*["']([A-Za-z0-9_.]+)["']""")
#: ``obs_metrics.inc("name"`` / ``.gauge(`` / ``.observe(`` — the import
#: alias ``from repro.obs import metrics as obs_metrics`` is part of the
#: instrumentation style so the scanner (and readers) can spot metric
#: call sites unambiguously.
METRIC_USE_RE = re.compile(
    r"""\bobs_metrics\.(?:inc|gauge|observe)\(\s*["']([A-Za-z0-9_.]+)["']"""
)


def used_names(src_root: Path) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
    """Scan ``src_root`` for instrumented span / metric names.

    Returns ``(spans, metrics)`` mapping each name to the files using
    it.  ``repro/obs`` itself is excluded — its docstrings and tests
    mention names generically.
    """
    spans: Dict[str, List[str]] = {}
    metrics: Dict[str, List[str]] = {}
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        if rel.startswith("repro/obs/"):
            continue
        text = path.read_text()
        for name in SPAN_USE_RE.findall(text):
            spans.setdefault(name, []).append(rel)
        for name in METRIC_USE_RE.findall(text):
            metrics.setdefault(name, []).append(rel)
    return spans, metrics


def section(markdown: str, heading: str) -> str:
    """The body of one ``## heading`` section (empty if absent)."""
    pattern = re.compile(
        rf"^##\s+{re.escape(heading)}\s*$(.*?)(?=^##\s|\Z)",
        re.MULTILINE | re.DOTALL,
    )
    m = pattern.search(markdown)
    return m.group(1) if m else ""


def contract(src_root: Path) -> List[Tuple[str, str, str, Sequence[str]]]:
    """The ``(page, section heading, kind, names)`` rows the docs must cover."""
    from repro.cache import CACHE_POLICIES
    from repro.channel.laws import channel_law_names
    from repro.core.powercontrol import POWER_POLICIES
    from repro.service import ROUTE_TEMPLATES, WIRE_ERROR_CODES

    spans, metrics = used_names(src_root)
    return [
        ("OBSERVABILITY.md", "Span catalogue", "span", sorted(spans)),
        ("OBSERVABILITY.md", "Metric catalogue", "metric", sorted(metrics)),
        ("CHANNELS.md", "Channel laws", "channel law", channel_law_names()),
        ("CHANNELS.md", "Power policies", "power policy", POWER_POLICIES),
        ("CACHING.md", "Eviction policies", "cache policy", CACHE_POLICIES),
        ("SERVICE.md", "Endpoints", "route", ROUTE_TEMPLATES),
        ("SERVICE.md", "Error codes", "wire error code", WIRE_ERROR_CODES),
    ]


_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def doctest_blocks(markdown: str) -> List[str]:
    """Fenced python blocks containing doctest prompts."""
    return [block for block in _FENCE_RE.findall(markdown) if ">>>" in block]


def run_doctest_blocks(markdown: str, *, name: str = "docs") -> List[str]:
    """Execute every doctest block; returns failure descriptions."""
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS, verbose=False)
    parser = doctest.DocTestParser()
    failures: List[str] = []
    for i, block in enumerate(doctest_blocks(markdown)):
        test = parser.get_doctest(block, {}, f"{name}[block {i}]", name, 0)
        out: List[str] = []
        runner.run(test, out=out.append)
        if runner.failures:
            failures.append("".join(out) or f"{name}[block {i}] failed")
            runner = doctest.DocTestRunner(
                optionflags=doctest.ELLIPSIS, verbose=False
            )
    return failures


def run_checks(root: Path) -> List[str]:
    """All docs-contract problems for a repo rooted at ``root``."""
    rows = contract(root / "src")
    problems: List[str] = []
    # API.md has no registry rows; only its doctest blocks are checked.
    for page in ["API.md", *dict.fromkeys(row[0] for row in rows)]:
        doc = f"docs/{page}"
        path = root / doc
        if not path.exists():
            problems.append(f"{doc} does not exist")
            continue
        text = path.read_text()
        for _, heading, kind, names in (row for row in rows if row[0] == page):
            body = section(text, heading)
            if not body.strip():
                problems.append(f"{doc} has no '## {heading}' section (or it is empty)")
                continue
            problems.extend(
                f"{kind} {name!r} is not documented in the '{heading}' section of {doc}"
                for name in names
                if f"`{name}`" not in body
            )
        problems.extend(run_doctest_blocks(text, name=doc))
    return problems


def main(argv: Iterable[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.obs.docscheck [--root DIR]``."""
    args = list(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if args[:1] == ["--root"] and len(args) >= 2:
        root = Path(args[1])
    problems = run_checks(root)
    if problems:
        print("docs-check: FAILED", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    used_spans, used_metrics = used_names(root / "src")
    print(
        f"docs-check: OK ({len(used_spans)} span names, "
        f"{len(used_metrics)} metric names catalogued; API.md snippets pass)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
