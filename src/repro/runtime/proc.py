"""The ``proc`` backend: real multicore speedup for ``parallel for``.

The thread backend is honest about CPython — real threads, real races, no
speedup, because the GIL serializes the interpreter.  This backend closes
the gap to the paper's headline evaluation (wall-clock scaling of the
primes and TSP workloads) by running ``parallel for`` bodies across a
persistent pool of **worker processes**:

* Closures don't pickle, so workers bootstrap by *recompiling the program
  from its source text* through :func:`repro.api.cached_program` — the
  sha-keyed cache makes that a one-time cost per worker (free under fork,
  which inherits the parent's warm cache), after which each worker holds
  its own compiled fast-path closure for the loop body.
* Loop chunks ship as ``(items, frozen read-set)`` messages: a snapshot of
  the variables the body references.  Writes merge back under the
  language's rules — the induction variable is private and discarded,
  lock-protected reductions (``count += 1``, guarded min/max) combine
  arithmetically, and container element/field edits are deep-diffed
  against the originals and applied if disjoint, with a clear diagnostic
  naming the slot when two workers disagree.
* Everything the merge contract cannot express — ``parallel:`` /
  ``background:`` blocks, ``lock`` bodies that aren't reductions, bare
  shared-scalar writes (see :mod:`repro.runtime.parplan`), mutable values
  reached through an enclosing loop's private induction variable — **falls
  back to in-process threads**: ProcBackend *is a* :class:`ThreadBackend`, so
  ineligible regions keep their exact thread semantics instead of
  silently racing across processes.

Resilience: the parent polls the result queue, so a tripped time limit or
a fired :class:`~repro.resilience.CancelToken` terminates the pool
promptly (workers are killed, not joined).  Observability: each worker
reports monotonic start/end stamps per chunk — on Linux ``perf_counter``
is the system-wide CLOCK_MONOTONIC, so the parent merges them straight
into the Observer's thread spans and the Chrome trace shows real
wall-clock overlap across cores.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import signal
import threading
import traceback

from ..errors import (
    TetraCancelledError,
    TetraError,
    TetraInternalError,
    TetraLimitError,
    TetraRuntimeError,
    TetraThreadError,
)
from ..stdlib.builtin_time import monotonic_clock
from .backend import (
    RuntimeConfig,
    ThreadBackend,
    block_sizes,
    guided_chunk_sizes,
    raise_thread_failures,
)
from .parplan import (
    apply_change,
    describe_path,
    diff_value,
    plan_parallel_for,
)
from .values import TetraArray, TetraDict, TetraObject, TetraTuple

#: Values whose mutations the merge tracks (everything else is immutable).
_MUTABLE = (TetraArray, TetraDict, TetraObject, TetraTuple)

#: How often the parent re-checks cancel/deadline/liveness while waiting.
_POLL_SECONDS = 0.05


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _ship_exc(exc: BaseException) -> tuple:
    """A picklable description of a worker-side failure."""
    if isinstance(exc, TetraError):
        try:
            blob = pickle.dumps(exc)
            pickle.loads(blob)
            return ("tetra", blob)
        except Exception:  # noqa: BLE001 - fall through to the plain form
            pass
    return ("plain", type(exc).__name__, str(exc))


def _revive_exc(shipped: tuple, source) -> BaseException:
    if shipped[0] == "tetra":
        exc = pickle.loads(shipped[1])
        if isinstance(exc, TetraError) and exc.source is None \
                and source is not None:
            exc.attach_source(source)
        return exc
    _, type_name, message = shipped
    return RuntimeError(f"{type_name}: {message}")


def _find_parfor(program, key: tuple):
    """Locate a ParallelFor node by its (line, column) — stable across the
    parent and a worker that recompiled the same source text."""
    from ..tetra_ast import ParallelFor, walk

    defs = list(program.functions)
    for cls in program.classes:
        defs.extend(cls.methods)
    for fn in defs:
        for node in walk(fn.body):
            if isinstance(node, ParallelFor) \
                    and (node.span.line, node.span.column) == key:
                return fn, node
    return None, None


def _compile_body(interp, key: tuple):
    """Compile the loop body once per worker: a fresh fast-path closure
    whose induction set matches the enclosing function's."""
    from ..tetra_ast import ParallelFor, walk

    fn, node = _find_parfor(interp.program, key)
    if node is None:
        raise TetraInternalError(
            f"proc worker cannot locate the parallel for at line "
            f"{key[0]} in its recompiled program"
        )
    if interp._compiled is not None:
        from ..interp.compile import _Compiler

        comp = _Compiler(interp)
        comp.compile()  # populate call-site invokers
        comp._induction = frozenset(
            n.var for n in walk(fn.body) if isinstance(n, ParallelFor)
        )
        body_run = comp.block(node.body)
    else:
        def body_run(ctx, _body=node.body):
            interp.exec_block(_body, ctx)
    return body_run, node.var, fn.name


def _run_chunk(interp, bodies: dict, key: tuple, chunk: list, private: dict,
               frame_vars: dict, want_items: bool, report: list,
               io, worker_index: int) -> tuple:
    from ..interp.context import ThreadContext
    from .env import Environment, Frame

    entry = bodies.get(key)
    if entry is None:
        entry = bodies[key] = _compile_body(interp, key)
    body_run, var, fn_name = entry
    frame = Frame(fn_name)
    frame.vars.update(frame_vars)
    env = Environment(frame, dict(private))
    env.private[var] = chunk[0]
    ctx = ThreadContext(f"proc worker {worker_index + 1}", env)
    private_tbl = env.private
    t0 = monotonic_clock()
    for item in chunk:
        private_tbl[var] = item
        body_run(ctx)
    t1 = monotonic_clock()
    updates = {name: frame.vars[name] for name in report
               if name in frame.vars}
    return (worker_index, t0, t1, len(chunk), io.output, updates,
            chunk if want_items else None)


def _worker_main(worker_index: int, task_q, result_q, source_text: str,
                 prog_name: str, fast: bool, recursion_limit: int) -> None:
    """One pool worker: bootstrap via the program cache, then serve chunks
    until the sentinel (or a kill) arrives."""
    try:
        # The parent coordinates shutdown; a terminal Ctrl-C must not kill
        # workers out from under it.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        from .. import api as api_mod
        from ..interp.interpreter import Interpreter
        from ..stdlib.io import CapturingIO
        from .backend import SequentialBackend

        # Under fork this process inherited the parent's cache lock *in
        # the held state* (the pool acquires it around Process.start so no
        # other parent thread can be mid-critical-section at fork time).
        # We are single-threaded here; swap in a fresh lock.  The in-flight
        # single-flight table is inherited too, and a forked copy of a
        # parent thread's compile-in-progress Event would never be set in
        # this process — drop it so this worker compiles for itself.
        api_mod._cache_lock = threading.Lock()
        api_mod._inflight = {}
        # Offload only happens on uninstrumented runs, so ask for the same
        # (races=False, obs=False, native=False) cache variant the parent
        # compiled — under fork the inherited entry makes this bootstrap
        # free.  Workers never run native kernels themselves (a loop that
        # lowered natively is claimed before proc offload is consulted).
        program, source = api_mod.cached_program(source_text, prog_name,
                                                 flags=(False, False, False))
        config = RuntimeConfig(recursion_limit=recursion_limit)
        io = CapturingIO()
        interp = Interpreter(program, source,
                             backend=SequentialBackend(config), io=io,
                             config=config, fast=fast)
        bodies: dict = {}
    except BaseException:  # noqa: BLE001 - reported to the parent
        result_q.put(("boot", worker_index, traceback.format_exc()))
        return
    while True:
        try:
            msg = task_q.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if msg is None:
            return
        tid, key, blob, want_items, report = msg
        # Claim the task before running it: the parent uses this to tell a
        # busy worker from a dead one (a crashed owner of an unreported
        # chunk must fail the run, not hang it).  mp.Queue is FIFO per
        # producer, so the claim always precedes this task's result.
        try:
            result_q.put(("pick", tid, worker_index))
        except Exception:  # pragma: no cover - queue torn down under us
            return
        io.clear()
        try:
            chunk, private, frame_vars = pickle.loads(blob)
            payload = _run_chunk(interp, bodies, key, chunk, private,
                                 frame_vars, want_items, report, io,
                                 worker_index)
            result_q.put(("ok", tid, pickle.dumps(payload)))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            try:
                result_q.put(("err", tid,
                              (worker_index, _ship_exc(exc), io.output)))
            except Exception:  # pragma: no cover - last-resort report
                result_q.put(("err", tid,
                              (worker_index,
                               ("plain", type(exc).__name__, "unreportable"),
                               "")))


# ----------------------------------------------------------------------
# Pool
# ----------------------------------------------------------------------
class _WorkerPool:
    """A persistent set of worker processes plus their task/result queues."""

    def __init__(self, jobs: int, source_text: str, prog_name: str,
                 fast: bool, recursion_limit: int):
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        self.task_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self.procs: list = []
        self.jobs = jobs
        self.dead = False
        # Under fork a child inherits every mutex as-is; make sure nobody
        # holds the program-cache lock mid-fork or the worker's bootstrap
        # cached_program() call would deadlock on a lock no one owns.
        from ..api import _cache_lock

        with _cache_lock:
            for w in range(jobs):
                p = ctx.Process(
                    target=_worker_main,
                    args=(w, self.task_q, self.result_q, source_text,
                          prog_name, fast, recursion_limit),
                    name=f"tetra-proc-{w + 1}",
                    daemon=True,
                )
                p.start()
                self.procs.append(p)

    def any_alive(self) -> bool:
        return any(p.is_alive() for p in self.procs)

    def shutdown(self, kill: bool = False) -> None:
        if self.dead:
            return
        self.dead = True
        if not kill:
            try:
                for _ in self.procs:
                    self.task_q.put(None)
            except Exception:  # noqa: BLE001 - degrade to a hard kill
                kill = True
        grace = monotonic_clock() + (0.2 if kill else 2.0)
        for p in self.procs:
            p.join(timeout=max(0.0, grace - monotonic_clock()))
        for p in self.procs:
            if p.is_alive():
                p.terminate()
        for p in self.procs:
            if p.is_alive():
                p.join(timeout=0.5)
            if p.is_alive():
                p.kill()
                p.join(timeout=0.5)
        for q in (self.task_q, self.result_q):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # noqa: BLE001 - queues may already be gone
                pass


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
class ProcBackend(ThreadBackend):
    """Process-parallel ``parallel for``; threads for everything else.

    Subclasses :class:`ThreadBackend` deliberately: ``parallel:`` /
    ``background:`` blocks, ``lock`` statements, and every loop the
    analysis rejects run on real in-process threads with unchanged
    semantics.  Only loops :func:`~repro.runtime.parplan.plan_parallel_for`
    proves mergeable are offloaded to the worker pool.
    """

    name = "proc"

    def __init__(self, config: RuntimeConfig | None = None):
        super().__init__(config)
        self.pool: _WorkerPool | None = None
        self._dispatch_mu = threading.Lock()
        self._deadline: float | None = None
        #: (line, reason) for every loop that fell back to threads —
        #: surfaced by ``tetra run --backend proc --trace`` and tests.
        self.fallbacks: list[tuple[int, str]] = []
        #: Worker processes actually started (0 until the first offload).
        self.pool_workers = 0

    # -- lifecycle -----------------------------------------------------
    def start_program(self, root_ctx) -> None:
        super().start_program(root_ctx)
        if self.config.time_limit:
            self._deadline = monotonic_clock() + self.config.time_limit

    def finish_program(self, root_ctx) -> None:
        try:
            super().finish_program(root_ctx)
        finally:
            pool, self.pool = self.pool, None
            if pool is not None:
                pool.shutdown()

    # -- offload entry point -------------------------------------------
    def try_parallel_for(self, interp, stmt, items, ctx) -> bool:
        """Offload one ``parallel for`` execution; False → caller runs the
        normal in-process thread path."""
        cfg = self.config
        if cfg.detect_races or cfg.profile or cfg.step_limit \
                or cfg.memory_limit or cfg.output_limit:
            # Per-statement instrumentation (race events, line counters,
            # step budgets, the heap/output meters) lives in this process.
            return False
        if interp.source is None or len(items) < 2:
            return False
        plan = plan_parallel_for(stmt, interp.program)
        if not plan.ok:
            self._note_fallback(stmt, plan.reason)
            return False
        jobs = self.parallel_for_workers(len(items))
        if jobs < 2:
            return False
        env = ctx.env
        # Bare scalar writes are only mergeable when they hit a *private*
        # binding (an enclosing loop's induction variable) — resolvable
        # only against the live environment, hence checked here.
        for name in plan.scalar_writes:
            if name not in env.private:
                self._note_fallback(
                    stmt,
                    f"assigns shared variable '{name}' outside a lock "
                    "(cannot merge across processes)",
                )
                return False
        # A mutable value reached through a *private* binding (an enclosing
        # parallel for's induction variable, e.g. a row of an iterated
        # grid) is visible to the program after the loop, but the merge
        # only reports reductions, shared frame variables, and this loop's
        # own items — a worker's edits to its pickled copy would be lost.
        # Keep thread semantics instead of silently diverging.
        for name in plan.names:
            if name in env.private \
                    and isinstance(env.private[name], _MUTABLE):
                self._note_fallback(
                    stmt,
                    f"'{name}' is an enclosing loop's induction variable "
                    "bound to a mutable value — edits made in a worker "
                    "process could not be merged back",
                )
                return False
        for name in plan.reductions:
            if name in env.private or name not in env.frame.vars:
                self._note_fallback(
                    stmt,
                    f"reduction variable '{name}' is not a shared frame "
                    "variable",
                )
                return False
        # Serialize concurrent dispatches (a parallel block whose children
        # each reach a parallel for): one wave through the pool at a time.
        with self._dispatch_mu:
            offloaded = self._dispatch(interp, stmt, plan, items, ctx, jobs)
        if offloaded:
            rec = self.config.schedule_recorder
            if rec is not None:
                # Worker processes emit no turns; the replay sizes its
                # in-process pool from this record and lets round-robin
                # fill the chunk bodies in.
                rec.pfor(stmt.span.line, len(items), jobs, offloaded=True)
        return offloaded

    def _note_fallback(self, stmt, reason: str) -> None:
        note = (stmt.span.line, reason)
        if note not in self.fallbacks:
            self.fallbacks.append(note)

    # -- dispatch ------------------------------------------------------
    def _chunks(self, items: list, jobs: int) -> list[tuple[range, list]]:
        """(original indices, items) per chunk, under the configured policy.

        block/cyclic mirror the in-process partition (one chunk per
        worker); dynamic produces many guided-size chunks that the pool's
        workers pull from the task queue — a true work-queue schedule.
        The indices are each item's position in the *original* iteration
        order — under cyclic dealing chunk w holds items w, w+jobs, … —
        so the merge can name the exact iterated value in diagnostics.
        """
        mode = self.config.chunking
        n = len(items)
        if mode == "cyclic":
            chunks = [(range(w, n, jobs), items[w::jobs])
                      for w in range(jobs)]
            return [c for c in chunks if c[1]]
        if mode == "dynamic":
            sizes = guided_chunk_sizes(n, jobs)
        else:  # block
            sizes = block_sizes(n, jobs)
        out = []
        start = 0
        for size in sizes:
            if size:
                out.append((range(start, start + size),
                            items[start:start + size]))
            start += size
        return out

    def _ensure_pool(self, interp) -> _WorkerPool | None:
        pool = self.pool
        if pool is not None:
            return None if pool.dead else pool
        size = self.config.num_workers or os.cpu_count() or 1
        pool = _WorkerPool(
            size,
            interp.source.text,
            getattr(interp.source, "name", "<proc>"),
            interp.fast,
            self.config.recursion_limit,
        )
        self.pool = pool
        self.pool_workers = size
        return pool

    def _kill_pool(self, pool: _WorkerPool) -> None:
        pool.shutdown(kill=True)
        self.pool = None

    def _dispatch(self, interp, stmt, plan, items, ctx, jobs) -> bool:
        cfg = self.config
        env = ctx.env
        span = stmt.span
        line = span.line
        private = {name: env.private[name] for name in plan.names
                   if name in env.private}
        frame_vars = {name: env.frame.vars[name] for name in plan.names
                      if name not in env.private and name in env.frame.vars}
        report = sorted(
            set(plan.reductions)
            | {name for name, value in frame_vars.items()
               if isinstance(value, _MUTABLE)}
        )
        want_items = any(isinstance(item, _MUTABLE) for item in items)
        chunks = self._chunks(items, jobs)
        order = list(range(len(chunks)))
        chaos = cfg.fault_plan
        if chaos is not None and len(order) > 1:
            # Chaos: shuffle dispatch order (the proc analogue of the
            # sequential backend's spawn-order shuffle).
            order = chaos.perturb_jobs(order)
        key = (line, span.column)
        tasks = []
        try:
            for tid in order:
                blob = pickle.dumps((chunks[tid][1], private, frame_vars))
                tasks.append((tid, key, blob, want_items, report))
        except Exception as why:  # noqa: BLE001 - unpicklable state
            self._note_fallback(stmt, f"cannot serialize loop state ({why})")
            return False
        pool = self._ensure_pool(interp)
        if pool is None:
            return False
        obs = self.obs
        group_start = obs.clock() if obs is not None else 0.0
        for task in tasks:
            pool.task_q.put(task)
        results, failures = self._collect(pool, len(tasks), span)
        # Console output in chunk order: for block/dynamic chunking that
        # is iteration order, so a deterministic program prints exactly
        # what the sequential walker prints.
        io = interp.io
        for tid in range(len(chunks)):
            if tid in results:
                text = results[tid][4]
            elif tid in failures:
                text = failures[tid][2]  # partial output before the error
            else:
                text = ""
            if text:
                io.write(text)
        if obs is not None:
            self._record_spans(obs, ctx, env, results, line, group_start)
        if failures:
            labeled = []
            for tid in sorted(failures):
                worker_index, shipped, _out = failures[tid]
                exc = _revive_exc(shipped, interp.source)
                labeled.append((
                    f"proc worker {worker_index + 1} "
                    f"(parallel for, line {line})",
                    exc,
                ))
            raise_thread_failures(labeled, span, "parallel for")
        self._merge(env, stmt, plan, frame_vars, chunks, results,
                    want_items)
        return True

    def _collect(self, pool: _WorkerPool, n_tasks: int, span):
        """Wait for every chunk, enforcing cancel/time limits promptly."""
        token = self.config.cancel
        results: dict[int, tuple] = {}
        failures: dict[int, tuple] = {}
        running: dict[int, int] = {}   # claimed task id -> worker index
        while len(results) + len(failures) < n_tasks:
            if token is not None and token.cancelled:
                self._kill_pool(pool)
                raise TetraCancelledError(
                    f"the run was cancelled — {token.reason}", span
                )
            if self._deadline is not None \
                    and monotonic_clock() > self._deadline:
                self._kill_pool(pool)
                limit = self.config.time_limit
                raise TetraLimitError(
                    f"the program exceeded its time limit of {limit:g} "
                    "seconds — raise it with --time-limit or "
                    "RuntimeConfig(time_limit=...)",
                    span,
                    limit="time",
                )
            try:
                msg = pool.result_q.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                # A worker never exits on its own while chunks are in
                # flight, so a dead process is always abnormal (OOM kill,
                # segfault).  Fail fast when the owner of an unreported
                # chunk died — the surviving workers blocked on the task
                # queue would otherwise leave the run hanging forever —
                # and when nobody is left to serve the unclaimed tasks.
                dead = {w for w, p in enumerate(pool.procs)
                        if not p.is_alive()}
                lost = sorted(tid for tid, w in running.items()
                              if w in dead)
                if lost:
                    w = running[lost[0]]
                    self._kill_pool(pool)
                    raise TetraThreadError(
                        f"proc worker {w + 1} died before finishing its "
                        "chunk (killed or crashed mid-run)", span,
                    )
                if not pool.any_alive():
                    self._kill_pool(pool)
                    raise TetraThreadError(
                        "a proc worker process died before finishing its "
                        "chunk", span,
                    )
                continue
            kind, tid, payload = msg
            if kind == "pick":
                running[tid] = payload
            elif kind == "ok":
                running.pop(tid, None)
                results[tid] = pickle.loads(payload)
            elif kind == "err":
                running.pop(tid, None)
                failures[tid] = payload
            else:  # "boot" — the worker never came up
                self._kill_pool(pool)
                raise TetraInternalError(
                    f"proc worker failed to start:\n{payload}"
                )
        return results, failures

    # -- observability -------------------------------------------------
    def _record_spans(self, obs, ctx, env, results: dict, line: int,
                      group_start: float) -> None:
        """Merge worker-reported chunk stamps into per-worker thread spans
        (same CLOCK_MONOTONIC domain as the parent's clock on Linux)."""
        per_worker: dict[int, list] = {}
        for tid in sorted(results):
            worker_index, t0, t1, n_items = results[tid][:4]
            agg = per_worker.get(worker_index)
            if agg is None:
                per_worker[worker_index] = [t0, t1, n_items]
            else:
                agg[0] = min(agg[0], t0)
                agg[1] = max(agg[1], t1)
                agg[2] += n_items
        child_ids = []
        for worker_index in sorted(per_worker):
            t0, t1, n_items = per_worker[worker_index]
            child = ctx.spawn_child(
                f"proc worker {worker_index + 1} "
                f"(parallel for, line {line})",
                env,
            )
            obs.register_thread(child)
            obs.thread_span(child.id, t0, t1)
            obs.register_chunk(child.id, line, n_items)
            child_ids.append(child.id)
        obs.group_span(ctx.id, "parallel for", group_start, obs.clock(),
                       child_ids, line, True)

    # -- merge ---------------------------------------------------------
    def _merge(self, env, stmt, plan, frame_vars: dict, chunks: list,
               results: dict, want_items: bool) -> None:
        span = stmt.span
        # Reductions: combine each worker's final against the snapshot.
        for name, kind in plan.reductions.items():
            init = frame_vars[name]
            finals = [results[tid][5][name] for tid in sorted(results)
                      if name in results[tid][5]]
            if kind == "sum":
                merged = init
                for final in finals:
                    merged = merged + (final - init)
            elif kind == "min":
                merged = min([init] + finals)
            else:
                merged = max([init] + finals)
            env.set(name, merged)
        # Containers: diff every worker's finals against the *pristine*
        # originals first, then apply — so one worker's edits never show
        # up as phantom differences in another's diff.
        changes: list[tuple[str, object, tuple, object, int]] = []
        for name in frame_vars:
            parent = frame_vars[name]
            if name in plan.reductions or not isinstance(parent, _MUTABLE):
                continue
            for tid in sorted(results):
                final = results[tid][5].get(name)
                if final is None:
                    continue
                diffs: list = []
                diff_value(parent, final, (), diffs)
                for path, value in diffs:
                    changes.append((name, parent, path, value, tid))
        if want_items:
            for tid in sorted(results):
                final_items = results[tid][6]
                if final_items is None:
                    continue
                indices, chunk = chunks[tid]
                for offset, (orig, final) in enumerate(zip(chunk,
                                                           final_items)):
                    if not isinstance(orig, _MUTABLE):
                        continue
                    diffs = []
                    diff_value(orig, final, (), diffs)
                    for path, value in diffs:
                        changes.append((f"<item {indices[offset]}>", orig,
                                        path, value, tid))
        self._apply_changes(env, span, changes)

    def _apply_changes(self, env, span, changes: list) -> None:
        # Conflicts key on the *identity* of the pristine root object plus
        # the path, never the display name: one object reached under two
        # names (aliased frame variables, or the same value iterated at
        # two positions) is a single merge slot, while two distinct
        # objects can never collide just because their labels match.
        seen: dict[tuple, tuple] = {}    # (root id, path) -> (value, tid, name)
        prefixes: dict[tuple, int] = {}  # (root id, proper prefix) -> tid
        ordered: list[tuple] = []
        rebound: set[str] = set()        # names already queued for env.set
        for name, root, path, value, tid in changes:
            key = (id(root), path)
            exact = seen.get(key)
            if exact is not None:
                prior_value, prior_tid, _prior_name = exact
                if type(prior_value) is type(value) and prior_value == value:
                    # Agreement on the same object's slot: applying once
                    # suffices — except a wholesale frame-variable rebind,
                    # which must land on every alias *name* separately.
                    if not path and name not in rebound:
                        rebound.add(name)
                        ordered.append((name, root, path, value))
                    continue
                raise TetraRuntimeError(
                    f"parallel for workers made conflicting updates to "
                    f"{describe_path(name, path)} (chunks {prior_tid + 1} "
                    f"and {tid + 1} disagree) — the process backend cannot "
                    "merge unsynchronized writes to the same slot; protect "
                    "it with a lock or run with --backend thread",
                    span,
                )
            overlap_tid = prefixes.get(key)
            if overlap_tid is None:
                for cut in range(1, len(path)):
                    holder = seen.get((id(root), path[:cut]))
                    if holder is not None and holder[1] != tid:
                        overlap_tid = holder[1]
                        break
            if overlap_tid is not None and overlap_tid != tid:
                raise TetraRuntimeError(
                    f"parallel for workers made overlapping updates inside "
                    f"{describe_path(name, path)} (chunks "
                    f"{overlap_tid + 1} and {tid + 1}) — protect it with a "
                    "lock or run with --backend thread",
                    span,
                )
            seen[key] = (value, tid, name)
            for cut in range(1, len(path)):
                prefixes.setdefault((id(root), path[:cut]), tid)
            if not path:
                rebound.add(name)
            ordered.append((name, root, path, value))
        for name, root, path, value in ordered:
            if not path:
                if name.startswith("<item"):
                    raise TetraRuntimeError(
                        f"a parallel for worker replaced {name} wholesale — "
                        "the process backend merges element and field "
                        "edits, not reassignment of a whole iterated value",
                        span,
                    )
                env.set(name, value)
            else:
                apply_change(root, path, value)
