"""Traced ``repro serve``: install the layer wrappers, then serve.

Usage (from the repository root, ``PYTHONPATH=src``)::

    python perfbench/serve_traced.py SPANS_PATH serve --port 0 --quiet

Everything after ``SPANS_PATH`` goes to the same ``repro.cli.main``
entry point that ``python -m repro`` uses, so traced and untraced runs
serve through the same code.  When the server returns (after SIGTERM)
the recorded spans are written to ``SPANS_PATH``.
"""

from __future__ import annotations

import sys

import layers


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = layers.Recorder()
    layers.install(rec)
    from repro.cli import main as repro_main

    code = repro_main(argv)
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
