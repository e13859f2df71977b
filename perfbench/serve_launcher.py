"""Traced ``repro serve``: install the span wrappers, then run the CLI.

Usage: ``python perfbench/serve_launcher.py serve --port 0 ...`` with
``PERFBENCH_TRACE_DIR`` set.  Fleet workers fork from this process and
inherit the wrappers; every process writes its spans when it exits.
"""

import os
import sys
import time


def main() -> int:
    started = time.perf_counter()
    import repro.cli

    imported = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer

    tracer.install(os.environ[tracer.TRACE_DIR_ENV])
    tracer.REC.spans.append(["setup.import", started, imported, -1, None, None, 0])
    return repro.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
