"""One traced CLI request: wrap rspin's layers, run ``rspin.cli.run``, dump the trace.

The ``cli-session`` workload runs ``python3 perfbench/cli_child.py OUT_JSON
ARGS...`` in its traced rounds, where ARGS are the CLI arguments. The exit
code and standard output are those of the CLI. Spans are stamped with
``time.perf_counter()``, which on Linux reads a system-wide clock, so the
child's spans and the parent's line up.
"""

import json
import os
import sys
import time

out_path = sys.argv[1]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(1, SRC)

import rspin.cli  # noqa: E402  (after the path is set)

if not os.path.realpath(rspin.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
    sys.exit(f"rspin resolved to {rspin.cli.__file__}, not to {SRC}")

t_imported = time.perf_counter()
import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
t_run = time.perf_counter()
overhead_s = t_run - t_imported
try:
    with tracer.span("cli.run"):
        code = rspin.cli.run(sys.argv[2:])
finally:
    t_end = time.perf_counter()
    tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"t_run": t_run, "t_end": t_end, "overhead_s": overhead_s,
             "state": tracer.state()},
            fh,
        )
sys.exit(code)
