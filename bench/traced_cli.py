"""Run the graphpick CLI under the tracer: ``traced_cli.py OUT.json ARGS...``.

Behaves like ``python -m graphpick ARGS...`` (same stdout, stderr and exit
status) and writes the tracer's per-layer snapshot to OUT.json on exit.
"""

import json
import sys

from tracer import Tracer

import graphpick.cli

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = graphpick.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)
    raise SystemExit(code)
