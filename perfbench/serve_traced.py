"""Traced daemon launcher: install the span wrappers, then run ``repro serve``.

Usage::

    python3 perfbench/serve_traced.py SPANS.json serve STORE [serve options]

The daemon runs exactly as ``python -m repro serve`` would; when it exits
(SIGINT), every recorded span is written to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = tracing.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
