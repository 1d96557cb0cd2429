"""Run ``repro serve`` with the layer wrappers installed; dump spans on exit.

Usage: ``python3 perfbench/traced_serve.py SPANS_JSON serve [serve args]``.
The server is the program's own CLI entry point (``repro.cli.main``);
this launcher only adds the timing wrappers from :mod:`tracer` first
and writes the recorded spans to ``SPANS_JSON`` after the server has
drained and stopped.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Spans, install_server  # noqa: E402


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as repro_main

    spans = Spans()
    install_server(spans)
    try:
        return repro_main(cli_args)
    finally:
        spans.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
