"""Run ``sandsmooth.cli`` with layer spans on, then write the spans out.

Usage: python3 perfbench/cli_trace.py SPANS_FILE CLI_ARGS...

The traced ``grid-cli`` op runs this in place of ``python -m sandsmooth.cli``
and adopts the spans under its own op span.
"""

import json
import sys

from tracing import Tracer

tracer = Tracer()
with tracer.span("cli.import"):
    import sandsmooth.cli
tracer.patch()
try:
    code = sandsmooth.cli.main(sys.argv[2:])
finally:
    tracer.unpatch()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
