"""Tetra's repository benchmark.

    python3 tetrabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* ``fastpath-calls``  — closed loop, one in-process client: recursive fib
  (thread backend) and the paper's TSP branch-and-bound (sequential
  backend) through ``repro.api.run_source``, native tier off;
* ``native-parfor``   — closed loop, one in-process client: the primes
  ``parallel for`` plus an int matmul kernel, ``native="require"``, thread
  backend with ``nproc`` workers;
* ``classroom-serve`` — a ``tetra serve`` child process driven by
  ``nproc`` closed-loop keep-alive HTTP clients; the traced run adds a
  seeded Poisson open loop.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  Every op is checked against an
independent Python oracle.  The last stdout line is the result object;
the line before it is a report with provenance and diagnostics.  Run it
from a checkout: it imports Tetra from ``src/`` next to this directory,
and exits non-zero without a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tetrabench import batch, common, serve_load, tracing  # noqa: E402
from tetrabench.workloads import WORKLOADS  # noqa: E402


def metric_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    BENCHMARK.json declares them."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(ctx: common.Context) -> dict:
    module = serve_load if ctx.workload == "classroom-serve" else batch
    return (module.measure_traced if ctx.trace else module.measure)(ctx)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "api.py")):
        print(f"tetrabench: no Tetra sources at {common.SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    ctx = common.make_context(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    # In-process runs keep their native artifacts, and cc its temporary
    # files, in the run's scratch directory: the user's ~/.cache/tetra
    # and the system temporary directory are never touched.
    os.environ["TETRA_NATIVE_CACHE"] = ctx.fresh_dir("native-")
    os.environ["TMPDIR"] = ctx.work
    try:
        outcome = run(ctx)
        report = {"provenance": common.provenance(ctx),
                  **outcome.get("report", {})}
    finally:
        common.remove_work(ctx)
    units = metric_units("per_layer" if ctx.trace else "end_to_end")
    measured = outcome["metrics"]
    correct = outcome["failed"] == 0
    if ctx.trace:
        report["selftime_tolerance"] = tracing.SELF_TIME_TOLERANCE
        report["selftime_failures"] = measured.pop("_selftime_failures")
        report["spans"] = os.path.relpath(ctx.spans_path, common.ROOT)
        correct = correct and report["selftime_failures"] == 0
    for guard in report.get("class_guard", ()):
        if guard["on_boundary"]:
            print(f"tetrabench: p{guard['percentile']:g} sits on a request "
                  f"class boundary: {guard}", file=sys.stderr)
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct,
                      "attempted": int(outcome["attempted"]),
                      "failed": int(outcome["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
