"""Child processes of the benchmark.

python3 bench/child.py setup <workload> <seed>
    From a fresh interpreter: import heleshaw, run the workload's set-up and
    print "ready <import seconds>".  The parent times the process from spawn
    to that line.

python3 bench/child.py cli <trace.json> <heleshaw cli arguments...>
    Run `heleshaw.cli.main` under the span tracer, write the request's
    spans and the certification timings of its tritronquees to trace.json,
    and exit with the CLI's exit code.

PYTHONPATH must hold the package's src directory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup(workload: str, seed: int) -> None:
    start = time.perf_counter()
    import heleshaw  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workloads.make(workload, seed, Path(__file__).resolve().parent.parent).setup()
    print(f"ready {import_s!r}", flush=True)


def cli(trace_path: str, argv: list[str]) -> int:
    from heleshaw import cli as heleshaw_cli

    import tracing

    tracer = tracing.Tracer()
    try:
        with tracing.instrument(tracer):
            code = heleshaw_cli.main(argv)
    finally:
        record = tracer.end_request()
        tracer.certify_pending()
        Path(trace_path).write_text(json.dumps(
            {"request": record, "certify_s": tracer.certify_s, "residual_max": tracer.residual_max}))
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
