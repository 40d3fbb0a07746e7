"""Run one framelab CLI command with the per-module tracer installed.

    python perfbench/tracechild.py <framelab arguments...>

The traced ``cli-process`` run starts this script in place of
``python -m framelab``.  It prints the same report and exits with the same
code; the span aggregates go to the file named by ``PERFBENCH_TRACE_OUT``
under the op tag in ``PERFBENCH_TRACE_TAG``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    import framelab.cli

    tracer = Tracer()
    tracer.tag = os.environ["PERFBENCH_TRACE_TAG"]
    tracer.install()
    try:
        return framelab.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    raise SystemExit(main())
