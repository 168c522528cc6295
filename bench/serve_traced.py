"""``repro-bench serve`` with the benchmark's layer wrappers installed.

    python -m bench.serve_traced --span-dir DIR -- serve [serve options]

The wrappers are the ones :mod:`bench.layers` installs in process.  On
SIGTERM the service drains and ``repro.cli.main`` returns; the spans
are then written to ``DIR/spans.<pid>.jsonl``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import common, layers
from .spans import SpanRecorder


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: python -m bench.serve_traced --span-dir DIR -- serve ...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="python -m bench.serve_traced")
    parser.add_argument("--span-dir", type=Path, required=True)
    args = parser.parse_args(argv[:split])
    common.use_source_tree()
    from repro.cli import main as cli_main

    recorder = SpanRecorder(args.span_dir)
    installation = layers.install_program_wrappers(recorder)
    try:
        return cli_main(argv[split + 1:])
    finally:
        installation.restore()
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
