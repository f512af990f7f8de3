"""Record the reference responses the benchmark checks on its default seed.

    python3 benchmarks/record.py [workload ...]

Sends every request of each workload's pool once, on the default seed, and
writes the JSON responses to ``benchmarks/reference/<workload>.json``.
Record at a commit whose answers are trusted; every later run on the
default seed must reproduce them within 1e-9.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile

import check
import run
from workloads import WORKLOADS


def record(name: str) -> None:
    run.WORK.mkdir(exist_ok=True)
    parent = tempfile.mkdtemp(dir=run.WORK)
    cwd = os.getcwd()
    try:
        main, rounds = run.setup(WORKLOADS[name], run.DEFAULT_SEED, parent)
        responses = {}
        for request in (r for batch in rounds for r in batch):
            outcome, _ = run.send(main, request)
            reason = check.failure(outcome)
            if reason is not None:
                raise SystemExit(f"{name} {request.key}: {reason}")
            responses[request.key] = json.loads(outcome[2])
    finally:
        os.chdir(cwd)
        shutil.rmtree(parent, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    run.REFERENCE.mkdir(exist_ok=True)
    with open(run.REFERENCE / f"{name}.json", "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                            for key, value in responses.items()))
        fh.write("\n}\n")
    print(f"{name}: {len(responses)} responses")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
