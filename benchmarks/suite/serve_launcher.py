"""Run ``repro-csj serve`` with the suite's span wrappers installed.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python benchmarks/suite/serve_launcher.py --spans OUT.jsonl -- serve --port 0 --delta

The server behaves exactly as ``python -m repro.cli serve ...``; on
SIGTERM the spans recorded so far are written to ``OUT.jsonl`` and the
process exits.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

from tracing import Instrumentation, Tracer, write_spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    # The event loop runs on the main thread, so its stack of open spans
    # interleaves requests: no ambient parents here.
    tracer = Tracer(ambient=False)
    Instrumentation(tracer).install()

    def dump_and_exit(_signum, _frame) -> None:
        write_spans(list(tracer.spans), args.spans)
        sys.stdout.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, dump_and_exit)
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
