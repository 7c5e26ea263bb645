"""One cold start: a fresh interpreter imports ``repro``, runs one op
given as JSON on stdin, and prints its output as one JSON line.

Also the in-process op runner of the batch workloads, so a cold start
and a timed op make exactly the same call.  Imports nothing from the
benchmark, so the child's start-up cost is Tetra's alone.
"""

from __future__ import annotations

import json
import sys


def run_op(op: dict, nproc: int) -> str:
    from repro.api import run_source
    from repro.runtime import RuntimeConfig

    if op.get("native") == "require":
        return run_source(op["source"], op["inputs"], backend=op["backend"],
                          native="require",
                          config=RuntimeConfig(num_workers=nproc)).output
    return run_source(op["source"], op["inputs"], backend=op["backend"],
                      native="off").output


if __name__ == "__main__":
    request = json.load(sys.stdin)
    print(json.dumps({"output": run_op(request["op"], request["nproc"])}),
          flush=True)
