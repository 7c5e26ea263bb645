"""The ``tetra`` command-line driver.

The paper ships "a command line driver program ... which simply calls the
interpreter on its argument from start to finish"; this driver adds the
developer-tool subcommands a real release needs:

    tetra run program.ttr          interpret a program (default backend)
    tetra check program.ttr        type-check only, print all diagnostics
    tetra tokens program.ttr       dump the token stream
    tetra ast program.ttr          dump the abstract syntax tree
    tetra compile program.ttr      emit a standalone Python module
    tetra highlight program.ttr    print the source with ANSI colors
    tetra dbg program.ttr          interactive parallel debugger (TUI)
    tetra builtins                 list the standard library
"""

from __future__ import annotations

import argparse
import sys

from .. import __version__
from ..api import BACKEND_FACTORIES, check_source
from ..errors import TetraError
from ..lexer import TokenType, tokenize
from ..parser import parse_source
from ..source import SourceFile
from ..tetra_ast import dump
from ..interp import Interpreter
from ..runtime import RuntimeConfig
from ..stdlib.registry import catalog


def _read(path: str) -> SourceFile:
    try:
        return SourceFile.from_path(path)
    except OSError as exc:
        raise SystemExit(f"tetra: cannot read {path}: {exc.strerror}")


def cmd_run(args: argparse.Namespace) -> int:
    source = _read(args.file)
    workers = args.workers
    if args.detect_races and workers is None:
        # The sequential backend defaults to one parallel-for worker, which
        # would hide logical concurrency from the detector.
        import os

        workers = max(2, os.cpu_count() or 2)
    from ..errors import EXIT_RACES, exit_code_for
    from ..resilience import CancelToken, install_sigint

    token = CancelToken()
    recorder = None
    record_io = None
    if args.record_schedule is not None:
        from ..runtime.schedule import ScheduleRecorder
        from ..stdlib.io import TeeIO

        recorder = ScheduleRecorder()
        record_io = TeeIO()
    config = RuntimeConfig(
        num_workers=workers,
        chunking=args.chunking,
        detect_races=args.detect_races,
        trace=args.trace is not None,
        metrics=args.metrics,
        profile=args.profile,
        step_limit=args.step_limit,
        time_limit=args.time_limit,
        memory_limit=args.memory_limit,
        output_limit=args.output_limit,
        cancel=token,
        chaos_seed=args.chaos,
        schedule_recorder=recorder,
        native=args.native,
    )
    interp = None
    code = 0
    run_error = None
    try:
        from ..api import cached_program

        program, source = cached_program(
            source.text, args.file, cache=not args.no_cache,
            flags=(bool(args.detect_races),
                   bool(args.trace is not None or args.metrics
                        or args.profile),
                   args.native != "off"),
        )
        backend = BACKEND_FACTORIES[args.backend](config=config)
        interp = Interpreter(program, source, backend=backend,
                             io=record_io)
        # Ctrl-C cancels the token; the program unwinds through the normal
        # error path, so the partial race/metrics reports below still print.
        with install_sigint(token):
            interp.run()
    except TetraError as exc:
        run_error = exc
        print(exc.attach_source(source).render(), file=sys.stderr)
        code = exit_code_for(exc)
    if args.chaos is not None and config.fault_plan is not None:
        plan = config.fault_plan
        summary = ", ".join(f"{kind}: {n}"
                            for kind, n in sorted(plan.counts.items()))
        print(f"chaos seed {plan.seed} injected {plan.total_injected} "
              f"fault(s){' — ' + summary if summary else ''}",
              file=sys.stderr)
    if args.detect_races and interp is not None:
        from ..analysis import render_race_panel

        print(render_race_panel(interp.races, source), file=sys.stderr)
        if interp.races and code == 0:
            code = EXIT_RACES
    # The observability reports are printed even when the run errored —
    # a partial trace of a crashed program is exactly what one debugs with.
    obs = interp._obs if interp is not None else None
    if obs is not None:
        if args.trace is not None:
            from ..obs import write_chrome_trace

            write_chrome_trace(obs, args.trace, interp.backend)
            print(f"trace written to {args.trace} "
                  "(load in Perfetto or chrome://tracing)", file=sys.stderr)
        if args.metrics:
            from ..obs import collect_metrics

            print(collect_metrics(obs, interp.backend).render(),
                  file=sys.stderr)
        if args.profile:
            from ..obs import render_profile

            print(render_profile(obs, source), file=sys.stderr)
    if recorder is not None and interp is not None:
        # Recorded even when the run aborted: a deadlocking or racing run
        # is exactly the one worth replaying.
        from ..api import _abort_kind
        from ..runtime.schedule import build_artifact, save_schedule

        plan = config.fault_plan
        artifact = build_artifact(
            recorder, source_text=source.text, name=args.file,
            entry="main", backend_name=interp.backend.name, config=config,
            inputs=record_io.consumed, output=record_io.output,
            status=_abort_kind(run_error) if run_error is not None else "ok",
            races=interp.races,
            fault_counts=dict(plan.counts) if plan is not None else {},
        )
        save_schedule(artifact, args.record_schedule)
        print(f"schedule recorded to {args.record_schedule} — replay it "
              f"with: tetra replay {args.record_schedule}", file=sys.stderr)
    return code


def cmd_replay(args: argparse.Namespace) -> int:
    """Deterministically re-run a recorded schedule artifact."""
    from ..errors import EXIT_RACES, exit_code_for
    from ..runtime.schedule import load_schedule, replay_schedule

    try:
        schedule = load_schedule(args.file)
        result = replay_schedule(schedule, cache=not args.no_cache,
                                 time_limit=args.time_limit)
    except TetraError as exc:
        print(exc.render(), file=sys.stderr)
        return exit_code_for(exc)
    sys.stdout.write(result.output)
    code = 0
    source = SourceFile.from_string(schedule.source, schedule.name)
    if result.error is not None:
        print(result.error.attach_source(source).render(), file=sys.stderr)
        code = exit_code_for(result.error)
    if schedule.detect_races:
        from ..analysis import render_race_panel

        print(render_race_panel(result.races, source), file=sys.stderr)
        if result.races and code == 0:
            code = EXIT_RACES
    print(result.replay.render(), file=sys.stderr)
    return code


def cmd_check(args: argparse.Namespace) -> int:
    source = _read(args.file)
    diagnostics = check_source(source.text, args.file)
    for exc in diagnostics:
        print(exc.render(), file=sys.stderr)
    if diagnostics:
        count = len(diagnostics)
        print(f"{count} error{'s' if count != 1 else ''}", file=sys.stderr)
        return 1
    print(f"{args.file}: ok")
    return 0


def cmd_tokens(args: argparse.Namespace) -> int:
    source = _read(args.file)
    try:
        for token in tokenize(source):
            if token.type is TokenType.EOF:
                break
            location = f"{token.span.line}:{token.span.column}"
            payload = f" {token.value!r}" if token.value is not None else ""
            print(f"{location:>8}  {token.type.name}{payload}")
    except TetraError as exc:
        print(exc.render(), file=sys.stderr)
        return 1
    return 0


def cmd_ast(args: argparse.Namespace) -> int:
    source = _read(args.file)
    try:
        program = parse_source(source)
    except TetraError as exc:
        print(exc.render(), file=sys.stderr)
        return 1
    print(dump(program, include_spans=args.spans))
    return 0


_COMPILED_MODULE = '''\
"""A Tetra program packaged by ``tetra compile``.

``python thisfile.py`` behaves like ``tetra run`` on the program: same
output, diagnostics and exit code.  Or import it and call ``run()``.
"""

import sys

from repro.api import run_source
from repro.errors import TetraError, exit_code_for
from repro.resilience import CancelToken, install_sigint
from repro.runtime import RuntimeConfig
from repro.source import SourceFile
from repro.stdlib.io import StandardIO

NAME = {name!r}
SOURCE = {source!r}


def run(io=None, num_workers=None, chunking="block"):
    """Run the program once; returns its :class:`repro.api.RunResult`."""
    token = CancelToken()
    with install_sigint(token):
        return run_source(
            SOURCE, name=NAME, io=io if io is not None else StandardIO(),
            config=RuntimeConfig(num_workers=num_workers, chunking=chunking,
                                 cancel=token),
        )


if __name__ == "__main__":
    try:
        run()
    except TetraError as exc:
        exc.attach_source(SourceFile.from_string(SOURCE, NAME))
        print(exc.render(), file=sys.stderr)
        sys.exit(exit_code_for(exc))
'''


def cmd_compile(args: argparse.Namespace) -> int:
    """Emit a standalone module that runs the program the way ``tetra
    run`` does (through :func:`repro.api.run_source`), after the same
    parse and type check."""
    source = _read(args.file)
    diagnostics = check_source(source.text, args.file)
    if diagnostics:
        for exc in diagnostics:
            print(exc.render(), file=sys.stderr)
        return 1
    code = _COMPILED_MODULE.format(name=args.file, source=source.text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(code)
        print(f"wrote {args.output}")
    else:
        print(code)
    return 0


def cmd_highlight(args: argparse.Namespace) -> int:
    source = _read(args.file)
    from ..ide.highlight import render_ansi

    sys.stdout.write(render_ansi(source.text, args.file))
    return 0


def cmd_dbg(args: argparse.Namespace) -> int:
    from ..ide.tui import debug_main

    if args.file is None and args.replay is None:
        print("tetra: dbg needs a program file or --replay FILE",
              file=sys.stderr)
        return 2
    text = _read(args.file).text if args.file is not None else None
    try:
        debug_main(text, replay=args.replay)
    except TetraError as exc:
        print(exc.render(), file=sys.stderr)
        return 1
    return 0


def cmd_sim(args: argparse.Namespace) -> int:
    """Run a program on the virtual-time machine model and print the
    speedup table (and optionally the schedule Gantt chart)."""
    source = _read(args.file)
    from ..runtime import SimBackend

    try:
        core_counts = sorted({int(c) for c in args.cores.split(",")})
    except ValueError:
        print(f"tetra: --cores wants a comma list of ints, got {args.cores!r}",
              file=sys.stderr)
        return 2
    backend = SimBackend(
        cores=max(core_counts),
        config=RuntimeConfig(num_workers=args.workers,
                             chunking=args.chunking),
    )
    try:
        if args.load_trace:
            from ..runtime.traceio import load_trace

            backend.recorder.root = load_trace(args.load_trace)
        else:
            program = parse_source(source)
            from ..types import check_program

            check_program(program, source)
            Interpreter(program, source, backend=backend).run()
        if args.save_trace:
            from ..runtime.traceio import save_trace

            save_trace(backend.trace, args.save_trace)
            print(f"trace saved to {args.save_trace}", file=sys.stderr)
    except TetraError as exc:
        print(exc.attach_source(source).render(), file=sys.stderr)
        return 1
    curve = backend.speedups(core_counts)
    base = curve[1]
    print(f"{'cores':>5}  {'virtual time':>12}  {'speedup':>7}  {'efficiency':>10}")
    for cores in sorted(curve):
        result = curve[cores]
        print(f"{cores:>5}  {round(result.makespan):>12}  "
              f"{result.speedup_against(base):>7.2f}  "
              f"{result.efficiency_against(base) * 100:>9.1f}%")
    if args.timeline:
        from ..runtime.gantt import render_gantt

        for cores in core_counts:
            if cores == 1 and len(core_counts) > 1:
                continue
            print(f"\nschedule on {cores} cores:")
            print(render_gantt(curve[cores], width=args.width))
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    """Pretty-print a program in canonical formatting (via the unparser)."""
    source = _read(args.file)
    from ..tetra_ast import unparse

    try:
        program = parse_source(source)
    except TetraError as exc:
        print(exc.render(), file=sys.stderr)
        return 1
    formatted = unparse(program)
    if args.write:
        with open(args.file, "w", encoding="utf-8") as handle:
            handle.write(formatted)
        print(f"formatted {args.file}")
    else:
        sys.stdout.write(formatted)
    return 0


def cmd_stress(args: argparse.Namespace) -> int:
    """Run the seeded chaos matrix and print the findings report."""
    source = _read(args.file)
    from ..errors import EXIT_DEADLOCK, EXIT_RACES
    from ..resilience import run_stress

    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    unknown = [b for b in backends if b not in BACKEND_FACTORIES]
    if unknown:
        print(f"tetra: unknown backend(s) {', '.join(unknown)}; pick from "
              f"{', '.join(sorted(BACKEND_FACTORIES))}", file=sys.stderr)
        return 2
    try:
        report = run_stress(
            source.text, name=args.file, seeds=args.seeds,
            first_seed=args.first_seed, backends=backends,
            detect_races=not args.no_races, time_limit=args.time_limit,
            artifact_dir=args.artifacts,
        )
    except TetraError as exc:
        # Compile-time failures (syntax/type errors) abort the whole matrix.
        print(exc.attach_source(source).render(), file=sys.stderr)
        return 1
    print(report.render())
    if report.deadlocks:
        return EXIT_DEADLOCK
    if report.divergent or report.race_hits:
        return EXIT_RACES
    if report.errors:
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the hosted multi-tenant execution service until Ctrl-C."""
    from ..serve import ServeConfig, serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.serve_workers,
        recycle_after=args.recycle_after,
        rate=args.rate,
        burst=args.burst,
        max_concurrent=args.max_concurrent,
        default_time_limit=args.default_time_limit,
        max_time_limit=args.max_time_limit,
        coalesce=not args.no_dedup,
        result_cache_size=0 if args.no_dedup else args.result_cache_size,
        result_cache_path=args.result_cache_path,
        max_queue=args.max_queue,
        default_queue_wait=args.queue_wait,
        max_queue_wait=args.max_queue_wait,
        breaker_threshold=args.breaker_threshold,
        breaker_backoff=args.breaker_backoff,
        infra_retries=args.infra_retries,
        drain_grace=args.drain_grace,
        chaos_serve_seed=args.chaos_serve,
    )
    return serve(config, verbose=args.verbose)


def cmd_repl(args: argparse.Namespace) -> int:
    from .repl import repl_main

    repl_main()
    return 0


def cmd_builtins(args: argparse.Namespace) -> int:
    category = None
    for b in catalog():
        if b.category != category:
            category = b.category
            print(f"\n[{category}]")
        print(f"  {b.doc or b.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetra",
        description="Tetra: an educational parallel programming system",
    )
    parser.add_argument("--version", action="version",
                        version=f"tetra (repro) {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="interpret a Tetra program")
    run.add_argument("file")
    run.add_argument("--backend", choices=sorted(BACKEND_FACTORIES),
                     default="thread",
                     help="execution backend (default: thread)")
    run.add_argument("--workers", "--jobs", "-j", type=int, default=None,
                     dest="workers", metavar="N",
                     help="worker threads (or processes on --backend proc) "
                          "for 'parallel for'")
    run.add_argument("--chunking", choices=["block", "cyclic", "dynamic"],
                     default="block",
                     help="parallel-for iteration split; 'dynamic' uses "
                          "guided decreasing chunks (a work queue on the "
                          "proc backend)")
    run.add_argument("--detect-races", action="store_true",
                     help="watch shared variables for data races and print "
                          "a report after the run (exit code 3 if any)")
    run.add_argument("--no-cache", action="store_true",
                     help="bypass the compiled-program cache (recompile "
                          "from source even if this exact text ran before)")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="record an execution trace and write it as "
                          "Chrome trace-event JSON (view in Perfetto)")
    run.add_argument("--metrics", action="store_true",
                     help="print parallel metrics after the run: wall time, "
                          "per-thread busy time, lock contention, "
                          "parallel-for load balance, estimated speedup")
    run.add_argument("--profile", action="store_true",
                     help="print the hottest source lines by charged cost "
                          "units (statement counts on non-accounting "
                          "backends)")
    run.add_argument("--native", nargs="?", const="auto", default="off",
                     choices=["auto", "off", "require"], metavar="MODE",
                     help="run numeric kernels as compiled C (the native "
                          "tier): 'auto' (the bare flag) lowers what it "
                          "can and falls back silently, 'require' fails "
                          "if the tier cannot be set up; fallback "
                          "reasons appear under --metrics")
    run.add_argument("--step-limit", type=int, default=0, metavar="N",
                     help="abort after N interpreted statements (exit 4)")
    run.add_argument("--time-limit", type=float, default=0.0, metavar="T",
                     help="abort after T units of the backend's clock: "
                          "seconds on thread/sequential, virtual units on "
                          "sim/coop (exit 4)")
    run.add_argument("--memory-limit", type=int, default=0, metavar="CELLS",
                     help="abort when more than CELLS value-heap cells "
                          "(array/dict/tuple elements, object fields) are "
                          "live at once (exit 4)")
    run.add_argument("--output-limit", type=int, default=0, metavar="CHARS",
                     help="abort after the program prints more than CHARS "
                          "characters (exit 4); defaults to 64x the memory "
                          "limit when one is set, otherwise unlimited")
    run.add_argument("--chaos", type=int, default=None, metavar="SEED",
                     help="run under a seeded fault-injection plan: "
                          "preemption jitter and lock delays on the thread "
                          "backend, seeded schedules on coop/sim")
    run.add_argument("--record-schedule", default=None, metavar="FILE",
                     help="record this run's exact interleaving (turns, "
                          "lock grants, parallel-for shapes, faults) as a "
                          "replayable tetra-schedule JSON artifact")
    run.set_defaults(func=cmd_run)

    replay = sub.add_parser(
        "replay",
        help="deterministically re-run a recorded schedule artifact "
             "(from 'run --record-schedule' or 'stress --artifacts')",
    )
    replay.add_argument("file", help="a .schedule.json artifact")
    replay.add_argument("--no-cache", action="store_true",
                        help="bypass the compiled-program cache")
    replay.add_argument("--time-limit", type=float, default=0.0,
                        metavar="T",
                        help="abort the replay after T virtual units "
                             "(coop clock)")
    replay.set_defaults(func=cmd_replay)

    check = sub.add_parser("check", help="type-check without running")
    check.add_argument("file")
    check.set_defaults(func=cmd_check)

    tokens = sub.add_parser("tokens", help="dump the token stream")
    tokens.add_argument("file")
    tokens.set_defaults(func=cmd_tokens)

    ast = sub.add_parser("ast", help="dump the abstract syntax tree")
    ast.add_argument("file")
    ast.add_argument("--spans", action="store_true",
                     help="include line:column positions")
    ast.set_defaults(func=cmd_ast)

    compile_ = sub.add_parser("compile",
                              help="package as a standalone Python module")
    compile_.add_argument("file")
    compile_.add_argument("-o", "--output", default=None,
                          help="write to a file instead of stdout")
    compile_.set_defaults(func=cmd_compile)

    hl = sub.add_parser("highlight", help="print source with ANSI colors")
    hl.add_argument("file")
    hl.set_defaults(func=cmd_highlight)

    dbg = sub.add_parser("dbg", help="interactive parallel debugger")
    dbg.add_argument("file", nargs="?", default=None)
    dbg.add_argument("--replay", default=None, metavar="FILE",
                     help="debug a recorded schedule artifact: 'rs' steps "
                          "the exact recorded interleaving turn by turn")
    dbg.set_defaults(func=cmd_dbg)

    sim = sub.add_parser(
        "sim",
        help="virtual-time speedup study on a model multicore",
    )
    sim.add_argument("file")
    sim.add_argument("--cores", default="1,2,4,8",
                     help="comma list of core counts (default 1,2,4,8)")
    sim.add_argument("--workers", type=int, default=None,
                     help="worker threads for 'parallel for'")
    sim.add_argument("--chunking", choices=["block", "cyclic"],
                     default="block")
    sim.add_argument("--timeline", action="store_true",
                     help="draw a Gantt chart of each schedule")
    sim.add_argument("--width", type=int, default=64,
                     help="Gantt chart width in columns")
    sim.add_argument("--save-trace", default=None, metavar="FILE",
                     help="write the recorded task graph as JSON")
    sim.add_argument("--load-trace", default=None, metavar="FILE",
                     help="schedule a previously saved trace instead of "
                          "re-interpreting the program")
    sim.set_defaults(func=cmd_sim)

    fmt = sub.add_parser("fmt", help="pretty-print in canonical style")
    fmt.add_argument("file")
    fmt.add_argument("-w", "--write", action="store_true",
                     help="rewrite the file in place")
    fmt.set_defaults(func=cmd_fmt)

    stress = sub.add_parser(
        "stress",
        help="shake a program across many chaos seeds and backends, "
             "reporting divergent outputs, deadlocks, and races",
    )
    stress.add_argument("file")
    stress.add_argument("--seeds", type=int, default=10, metavar="N",
                        help="chaos seeds per backend (default 10)")
    stress.add_argument("--first-seed", type=int, default=0, metavar="S",
                        help="first seed value (default 0)")
    stress.add_argument("--backends", default="thread,coop,proc",
                        help="comma list of backends to stress "
                             "(default thread,coop,proc)")
    stress.add_argument("--no-races", action="store_true",
                        help="skip the dynamic race detector (faster)")
    stress.add_argument("--time-limit", type=float, default=0.0, metavar="T",
                        help="per-run time limit on the backend clock "
                             "(default: 10s host / 200000 virtual units)")
    stress.add_argument("--artifacts", default=None, metavar="DIR",
                        help="record every cell and persist the schedules "
                             "of failing/divergent cells to DIR as "
                             "replayable artifacts")
    stress.set_defaults(func=cmd_stress)

    serve_p = sub.add_parser(
        "serve",
        help="run the hosted multi-tenant execution service (HTTP + "
             "WebSocket; see README 'Hosted execution')",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8722,
                         help="bind port (default: 8722; 0 = ephemeral)")
    serve_p.add_argument("--workers", type=int, default=2,
                         dest="serve_workers", metavar="N",
                         help="sandbox worker processes (default: 2)")
    serve_p.add_argument("--recycle-after", type=int, default=64,
                         metavar="N",
                         help="retire a worker after N requests "
                              "(default: 64, 0 = never)")
    serve_p.add_argument("--rate", type=float, default=10.0, metavar="R",
                         help="per-tenant request rate, req/s (default: 10)")
    serve_p.add_argument("--burst", type=int, default=20, metavar="N",
                         help="per-tenant burst size (default: 20)")
    serve_p.add_argument("--max-concurrent", type=int, default=4,
                         metavar="N",
                         help="per-tenant concurrent runs (default: 4)")
    serve_p.add_argument("--default-time-limit", type=float, default=5.0,
                         metavar="T",
                         help="seconds granted when a request names no "
                              "time limit (default: 5)")
    serve_p.add_argument("--max-time-limit", type=float, default=30.0,
                         metavar="T",
                         help="ceiling a request may ask for (default: 30)")
    serve_p.add_argument("--no-dedup", action="store_true",
                         help="disable request coalescing and the result "
                              "cache (every request runs its own sandbox)")
    serve_p.add_argument("--result-cache-size", type=int, default=256,
                         metavar="N",
                         help="pure-result cache entries (default: 256, "
                              "0 = disabled)")
    serve_p.add_argument("--result-cache-path", default=None, metavar="FILE",
                         help="persist the result cache to FILE across "
                              "restarts (default: in-memory only)")
    serve_p.add_argument("--max-queue", type=int, default=32, metavar="N",
                         help="bounded run-queue depth; arrivals beyond it "
                              "are shed with 503 + Retry-After "
                              "(default: 32)")
    serve_p.add_argument("--queue-wait", type=float, default=10.0,
                         metavar="T",
                         help="default per-request queue deadline, seconds "
                              "(default: 10)")
    serve_p.add_argument("--max-queue-wait", type=float, default=60.0,
                         metavar="T",
                         help="ceiling on the queue deadline a request may "
                              "ask for (default: 60)")
    serve_p.add_argument("--breaker-threshold", type=int, default=3,
                         metavar="N",
                         help="consecutive worker-killing outcomes before "
                              "a program sha is quarantined (default: 3)")
    serve_p.add_argument("--breaker-backoff", type=float, default=30.0,
                         metavar="T",
                         help="first quarantine length in seconds, doubling "
                              "per re-trip (default: 30)")
    serve_p.add_argument("--infra-retries", type=int, default=2, metavar="N",
                         help="redispatches when a worker dies before user "
                              "code starts (default: 2)")
    serve_p.add_argument("--drain-grace", type=float, default=10.0,
                         metavar="T",
                         help="seconds in-flight runs get to finish on "
                              "SIGTERM / POST /api/drain (default: 10)")
    serve_p.add_argument("--chaos-serve", type=int, default=None,
                         metavar="SEED",
                         help="arm seeded serve-layer fault injection "
                              "(worker kills, pipe faults, client drops, "
                              "compile stalls) — testing only")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log each HTTP request to stderr")
    serve_p.set_defaults(func=cmd_serve)

    repl = sub.add_parser("repl", help="interactive Tetra session")
    repl.set_defaults(func=cmd_repl)

    builtins_ = sub.add_parser("builtins", help="list the standard library")
    builtins_.set_defaults(func=cmd_builtins)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # `--native` takes an optional MODE, so bare `--native <file>` would
    # greedily (mis)consume the program path; pin the bare form to =auto
    # unless the next token really is a mode.
    argv = [
        "--native=auto"
        if arg == "--native" and (
            i + 1 >= len(argv)
            or argv[i + 1] not in ("auto", "off", "require"))
        else arg
        for i, arg in enumerate(argv)
    ]
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
