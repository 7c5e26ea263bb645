"""The two batch workloads: one in-process client in a closed loop,
calling ``repro.api.run_source`` — fastpath-calls and native-parfor."""

from __future__ import annotations

import itertools
import json
import os
import resource
import subprocess
import threading
import time

from . import tracing, workloads
from .coldstart import run_op
from .common import Context, python
from .stats import class_position, median, percentile

COLD_STARTS = 7


def op_stream(ctx: Context):
    """The seeded ops, and the first op of each class (every class
    occurs in the first block of ten)."""
    if ctx.workload == "fastpath-calls":
        ops = workloads.fastpath_ops(ctx.seed)
    else:
        ops = workloads.parfor_ops(ctx.seed)
    head = list(itertools.islice(ops, 10))
    firsts = {}
    for op in head:
        firsts.setdefault(op["cls"], op)
    return itertools.chain(head, ops), firsts


def cold_start(ctx: Context, op: dict) -> tuple[float, bool]:
    """Seconds from spawning a fresh interpreter (with an empty native
    artifact cache) to reading its first result, and whether the result
    matched the oracle."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [python(), os.path.join(os.path.dirname(__file__), "coldstart.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=ctx.child_env())
    watchdog = threading.Timer(60, proc.kill)  # a hung child fails the op
    watchdog.start()
    try:
        proc.stdin.write(json.dumps({"op": op, "nproc": ctx.nproc}))
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        ok = json.loads(line)["output"] == op["expect"]
    except (ValueError, KeyError):
        ok = False
    return elapsed, ok and proc.returncode == 0


def timed(op: dict, nproc: int) -> tuple[float, bool]:
    t0 = time.perf_counter()
    try:
        ok = run_op(op, nproc) == op["expect"]
    except Exception:  # noqa: BLE001 - any failure is a failed op
        ok = False
    return time.perf_counter() - t0, ok


def warm_up(ctx: Context, firsts: dict) -> None:
    """One untimed op per class: fills the program cache and, for
    native-parfor, builds the kernel artifact."""
    for op in firsts.values():
        timed(op, ctx.nproc)


def measure(ctx: Context) -> dict:
    """End-to-end metrics (``--trace 0``)."""
    ops, firsts = op_stream(ctx)
    # Cold starts run the first op of the cheaper class.
    cold_op = firsts.get("fib") or firsts["base"]
    colds = [cold_start(ctx, cold_op) for _ in range(COLD_STARTS)]
    failed = sum(1 for _, ok in colds if not ok)
    warm_up(ctx, firsts)
    # Timed ops go through the traced run's wrappers, switched off, so
    # both runs execute the program at the same Python stack depth (see
    # measure_traced).
    tracer = tracing.Tracer()
    tracer.enabled = False
    install_layer_spans(tracer)
    samples = []
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < ctx.seconds:
            op = next(ops)
            dt, ok = _op(tracer, None, op, ctx.nproc, False)
            samples.append((dt, op["cls"], ok))
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    failed += sum(1 for s in samples if not s[2])
    attempted = len(samples) + len(colds)
    lat = [s[0] * 1000.0 for s in samples]
    classes = [(s[0], s[1]) for s in samples]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median([c[0] for c in colds]),
            "latency_ms_p50": percentile(lat, 50),
            "latency_ms_p90": percentile(lat, 90),
            "throughput_ops_s": sum(1 for s in samples if s[2]) / elapsed,
            "success_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "report": {"ops": len(samples), "cold_starts": len(colds),
                   "error_rate": failed / attempted,
                   "class_guard": [class_position(classes, p)
                                   for p in (50, 90)]},
    }


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------
def _tag_load():
    seen: set[int] = set()

    def note(span, module):
        if id(module) in seen:
            span.tag = "hit"
        else:
            seen.add(id(module))
            span.tag = "disk" if module.cache_hit else "built"
    return note


def install_layer_spans(tracer: tracing.Tracer) -> None:
    """Wrap each layer's entry point where ``run_source`` reaches it."""
    import repro.api as api
    import repro.compiler.native as native
    import repro.interp.compile as fastpath
    from repro.interp.interpreter import Interpreter

    tracer.wrap(api, "cached_program", "api.cache")
    tracer.wrap(api, "compile_source", "frontend")
    tracer.wrap(fastpath, "compile_program", "interp.compile")
    tracer.wrap(Interpreter, "run", "interp.exec")
    tracer.wrap(native, "setup_native", "native.setup")
    tracer.wrap(native, "load_module", "native.load",
                on_result=_tag_load())
    tracer.wrap(native.NativeRun, "try_parallel_for", "native.parfor")
    # The C call boundary (kernel entry through error mapping).
    tracer.wrap(native.NativeRun, "_call", "native.kernel")


def _op(tracer: tracing.Tracer, op_id, op: dict, nproc: int,
        traced: bool) -> tuple[float, bool]:
    tracer.enabled = traced
    root = tracer.begin("op", op=op_id)
    try:
        return timed(op, nproc)
    finally:
        tracer.end(root)


def layer_metrics(spans: list[tracing.Span], measured: set) -> dict:
    """Per-layer metrics from the spans of the measured traced ops."""
    breakdown = tracing.op_breakdown(spans)
    ops = [breakdown[o] for o in measured if o in breakdown]

    def per_op_ms(name, kind="self"):
        return median([o[kind].get(name, 0.0) * 1000.0 for o in ops])

    root_of = tracing.roots(spans)
    in_ops = [i for i in range(len(spans)) if spans[root_of[i]].op in measured]
    cache_calls = [i for i in in_ops if spans[i].name == "api.cache"]
    misses = sum(1 for i in in_ops if spans[i].name == "frontend"
                 and spans[i].parent is not None
                 and spans[spans[i].parent].name == "api.cache")
    loads = [s for s in spans if s.name == "native.load"]
    builds = [s for s in loads if s.tag == "built"]
    parfor = sum(o["inclusive"].get("native.parfor", 0.0) for o in ops)
    kernel_by_op: dict[object, float] = {}
    for i in in_ops:
        span = spans[i]
        if span.name == "native.kernel" and span.parent is not None \
                and spans[span.parent].name == "native.parfor":
            op = spans[root_of[i]].op
            kernel_by_op[op] = kernel_by_op.get(op, 0.0) \
                + span.end - span.start
    kernel = sum(kernel_by_op.values())
    return {
        "frontend.ms": per_op_ms("frontend"),
        "frontend.calls": (sum(1 for i in in_ops
                               if spans[i].name == "frontend") / len(ops)),
        "api.cache_hit_ratio": (1.0 - misses / len(cache_calls)
                                if cache_calls else 0.0),
        "interp.compile_ms": per_op_ms("interp.compile"),
        "interp.exec_ms": per_op_ms("interp.exec"),
        "native.build_ms": (median([(s.end - s.start) * 1000.0
                                    for s in builds]) if builds else 0.0),
        "native.artifact_hit_ratio": (1.0 - len(builds) / len(loads)
                                      if loads else 0.0),
        "native.parfor_ms": per_op_ms("native.parfor", "inclusive"),
        "native.kernel_ms": median([kernel_by_op.get(o, 0.0) * 1000.0
                                    for o in measured]),
        "native.marshal_share": ((parfor - kernel) / parfor
                                 if parfor else 0.0),
        "_selftime_failures": sum(1 for o in ops if not o["ok"]),
    }


def measure_traced(ctx: Context) -> dict:
    """Per-layer metrics (``--trace 1``), and ``trace.overhead_ratio``
    from the same ops run with span recording on and off.

    The wrappers stay installed for the whole run and are only switched
    off for the untraced ops (and for all of ``measure``): they add
    Python frames under the program, and on CPython the program's speed
    depends on its stack depth (fib by tens of percent), which is not a
    cost of recording.
    """
    tracer = tracing.Tracer()
    install_layer_spans(tracer)
    try:
        ops, firsts = op_stream(ctx)
        # The first op runs cold (empty program cache, empty native
        # artifact cache) and traced, so build and front end are seen.
        dt, ok = _op(tracer, "cold", next(ops), ctx.nproc, True)
        failed = 0 if ok else 1
        tracer.enabled = False
        warm_up(ctx, firsts)
        traced_ms, plain_ms, measured = [], [], set()
        attempted = 1
        i = 0
        start = time.perf_counter()
        while time.perf_counter() - start < ctx.seconds:
            # Every op runs once traced and once untraced, in alternating
            # order, so both latency samples cover the same op mix.
            op = next(ops)
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                dt, ok = _op(tracer, i, op, ctx.nproc, traced)
                (traced_ms if traced else plain_ms).append(dt * 1000.0)
                failed += 0 if ok else 1
                attempted += 1
            measured.add(i)
            i += 1
    finally:
        tracer.uninstall()
    tracer.dump(ctx.spans_path)
    metrics = layer_metrics(tracer.spans, measured)
    metrics["trace.overhead_ratio"] = median(traced_ms) / median(plain_ms)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}
