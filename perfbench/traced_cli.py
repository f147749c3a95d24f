"""Run the flagtor CLI with spans recorded, for the cli-cache traced run.

    python3 perfbench/traced_cli.py SPANS_OUT ARGS...

Imports the tree's flagtor (timed as cli.import_s), wraps the layer
boundaries, runs ``cli.run(ARGS)`` and writes the spans to SPANS_OUT as
JSON.  Sweep workers forked by --threads inherit the wrappers, but their
spans stay in the workers and are not written.
"""

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.spans import Tracer  # noqa: E402

t0 = perf_counter()
from flagtor import cli  # noqa: E402
IMPORT_S = perf_counter() - t0


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = cli.run(argv)
    finally:
        tracer.active = False
        tracer.measure_stores()
        tracer.counts["cli.import_s"] += IMPORT_S
        tracer.counts["cli.processes"] += 1
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
