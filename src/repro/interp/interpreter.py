"""The Tetra tree-walking interpreter.

Faithful to the paper's §IV: the program is parsed to an AST, type-checked,
then interpreted "by traversing the AST recursively"; at a ``parallel``
block the interpreter "launches one thread for each child node ... and
executes them in parallel", background blocks skip the join, ``parallel
for`` workers get "a copy of the induction variable inserted into their
private symbol table", and lock statements map onto mutexes.

The one generalization over the paper is the pluggable
:class:`~repro.runtime.backend.Backend`: the same interpreter runs on real
threads, under the deterministic cooperative scheduler, or inside the
virtual-time recorder — which is what lets a Python reproduction both keep
the real-threads semantics and regenerate the speedup evaluation
(DESIGN.md §2).
"""

from __future__ import annotations

import itertools
import threading

from ..errors import (
    TetraInternalError,
    TetraLimitError,
    TetraRuntimeError,
    TetraThreadError,
    TetraTypeError,
    is_catchable,
)
from ..source import NO_SPAN, SourceFile, Span
from ..tetra_ast import (
    ArrayLiteral,
    Assign,
    Attribute,
    AugAssign,
    BackgroundBlock,
    BinaryOp,
    BinOp,
    Block,
    BoolLiteral,
    Break,
    Call,
    Continue,
    Declare,
    DictLiteral,
    FunctionDef,
    Expr,
    ExprStmt,
    For,
    If,
    Index,
    IntLiteral,
    LockStmt,
    MethodCall,
    Name,
    ParallelBlock,
    ParallelFor,
    Pass,
    Program,
    RangeLiteral,
    RealLiteral,
    Return,
    Stmt,
    StringLiteral,
    TryStmt,
    TupleLiteral,
    Unary,
    UnaryOp,
    Unpack,
    While,
)
from ..types import (
    VOID,
    ArrayType,
    DictType,
    TupleType,
    check_program,
    from_type_expr,
)
from ..runtime import (
    Backend,
    Environment,
    Frame,
    RuntimeConfig,
    TetraArray,
    ThreadBackend,
    Value,
    coerce_to,
    int_div,
    int_mod,
    make_array,
    real_div,
    real_mod,
    tetra_pow,
)
from ..runtime.backend import block_sizes, guided_chunk_sizes
from ..runtime.values import TetraDict, TetraObject, TetraTuple
from ..runtime.cost import DEFAULT_COST_MODEL, CostModel
from ..stdlib.io import IOChannel, StandardIO
from ..stdlib.registry import BUILTINS
from .context import CallRecord, ThreadContext
from .control import BreakSignal, ContinueSignal, ReturnSignal


class Interpreter:
    """Executes one type-checked :class:`Program`.

    One interpreter instance runs one program (it owns the program's lock
    table via its backend and the program's console via ``io``); it is safe
    for the program's *threads* to share, not for unrelated programs.
    """

    def __init__(self, program: Program, source: SourceFile | None = None,
                 backend: Backend | None = None, io: IOChannel | None = None,
                 config: RuntimeConfig | None = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 fast: bool = True):
        self.program = program
        self.source = source
        self.backend = backend or ThreadBackend(config)
        if config is not None and backend is not None:
            self.backend.config = config
        self.config = self.backend.config
        self.io = io or StandardIO()
        self.cost_model = cost_model
        self._acc = self.backend.accounting
        if not hasattr(program, "symbols"):
            check_program(program, source)
        self.symbols = program.symbols  # type: ignore[attr-defined]
        self._functions = {fn.name: fn for fn in program.functions}
        self._classes = {cls.name: cls for cls in program.classes}
        self._methods = {
            (cls.name, m.name): m
            for cls in program.classes
            for m in cls.methods
        }
        self._steps = itertools.count(1)
        self._stopped = False
        # Thread labels are the identity a schedule artifact (and the race
        # detector's reports) refers to; the counter disambiguates re-spawns
        # from the same source site (a loop around a parallel block) with a
        # " #N" suffix, and the issued set turns any remaining collision
        # into a loud internal error instead of a silently wrong replay.
        self._labels_mu = threading.Lock()
        self._label_counts: dict[str, int] = {}
        self._labels_issued: set[str] = set()
        # Race detection: None (the common case) costs one attribute test
        # per shared-memory operation; a detector records happens-before
        # and lockset evidence for every shared access.
        self._race = None
        if self.config.detect_races:
            from ..analysis.races import RaceDetector

            self._race = RaceDetector()
        # Observability follows the same None-check contract: one attribute
        # test at each emission site when disabled, an Observer collecting
        # span events and counters when tracing/metrics/profiling is on.
        self._obs = None
        if self.config.trace or self.config.metrics or self.config.profile:
            from ..obs import Observer

            self._obs = Observer(trace=self.config.trace,
                                 metrics=self.config.metrics,
                                 profile=self.config.profile)
            self._obs.bind(self.backend)
            self.backend.obs = self._obs
        # Guardrails keep the contract too: `_guard` is bound only when the
        # statement-boundary check would do something (cancel token, time
        # limit, or thread-backend chaos), `_heap` only under memory_limit.
        self._guard = None
        if (self.config.time_limit or self.config.cancel is not None
                or self.config.fault_plan is not None):
            from ..resilience.guard import ExecutionGuard

            guard = ExecutionGuard(self.backend, self.config)
            if guard.active:
                self._guard = guard
        self._heap = None
        if self.config.memory_limit:
            from ..resilience.guard import HeapMeter

            self._heap = HeapMeter(self.config.memory_limit)
        # Captured output is invisible to the HeapMeter (it counts value
        # cells, not console chunks), so the memory guardrail alone used to
        # leave `while: print(...)` unbounded.  The cap lives in the IO
        # channel itself — every write is metered — armed here from the
        # explicit output_limit or derived from memory_limit.
        out_cap = self.config.output_limit
        if not out_cap and self.config.memory_limit:
            from ..resilience.guard import OUTPUT_CHARS_PER_CELL

            out_cap = self.config.memory_limit * OUTPUT_CHARS_PER_CELL
        if out_cap:
            self.io.set_output_limit(out_cap)
        self._stmt_dispatch = {
            ExprStmt: self._exec_expr_stmt,
            Assign: self._exec_assign,
            AugAssign: self._exec_aug_assign,
            Unpack: self._exec_unpack,
            Declare: self._exec_declare,
            If: self._exec_if,
            While: self._exec_while,
            For: self._exec_for,
            ParallelFor: self._exec_parallel_for,
            ParallelBlock: self._exec_parallel_block,
            BackgroundBlock: self._exec_background_block,
            LockStmt: self._exec_lock,
            TryStmt: self._exec_try,
            Return: self._exec_return,
            Break: self._exec_break,
            Continue: self._exec_continue,
            Pass: self._exec_pass,
        }
        self._expr_dispatch = {
            IntLiteral: self._eval_literal,
            RealLiteral: self._eval_literal,
            StringLiteral: self._eval_literal,
            BoolLiteral: self._eval_literal,
            Name: self._eval_name,
            ArrayLiteral: self._eval_array_literal,
            TupleLiteral: self._eval_tuple_literal,
            DictLiteral: self._eval_dict_literal,
            RangeLiteral: self._eval_range_literal,
            Index: self._eval_index,
            Attribute: self._eval_attribute,
            MethodCall: self._eval_method_call,
            Call: self._eval_call,
            BinOp: self._eval_binop,
            Unary: self._eval_unary,
        }
        # The fast path: each function body precompiled to a closure tree
        # (see repro.interp.compile).  Race detection keeps the walker — the
        # detector's read/write instrumentation lives in the dispatch
        # methods above, and the walker's per-node cost is noise next to
        # vector-clock bookkeeping.
        # The native compiled tier (repro.compiler.native): set up before
        # the fast-path compile so lowered functions can substitute their
        # C invokers while call sites are being bound.  `_native` is a
        # NativeRun (possibly disabled, carrying the reason) or None when
        # native="off"; its state is exported on the backend for
        # --metrics, mirroring the proc backend's fallback reporting.
        self._native = None
        if self.config.native != "off":
            from ..compiler.native import setup_native

            self._native = setup_native(self)
            if self._native is not None:
                self.backend.native_state = self._native.state
        self._compiled = None
        #: True when calls run through precompiled closures; tests assert
        #: this to pin down the detect_races fallback choice.
        self.fast = False
        if fast and self._race is None:
            from .compile import compile_program

            self._compiled = compile_program(self)
            self.fast = True

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, entry: str = "main") -> None:
        """Run the program from its entry function (``main`` by default)."""
        fn = self._functions.get(entry)
        if fn is None:
            raise TetraRuntimeError(
                f"the program has no '{entry}' function to start from"
            )
        if fn.params:
            raise TetraRuntimeError(f"'{entry}' must not take parameters")
        # Each Tetra call consumes a dozen-odd Python frames; make sure the
        # Tetra recursion limit fires before CPython's.
        import sys

        needed = self.config.recursion_limit * 40 + 1000
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        ctx = ThreadContext(self._unique_label("main thread"))
        if self._race is not None:
            self._race.register(ctx.id, ctx.label)
        if self._guard is not None:
            self._guard.start()
        self.backend.start_program(ctx)
        if self._obs is not None:
            self._obs.program_begin(ctx)
        try:
            self.call_function(fn.name, [], ctx, NO_SPAN)
        except TetraRuntimeError as exc:
            if exc.source is None and self.source is not None:
                exc.attach_source(self.source)
            raise
        finally:
            try:
                self.backend.finish_program(ctx)
            finally:
                if self._obs is not None:
                    self._obs.program_end_mark(ctx)

    def call_function(self, name: str, args: list[Value], ctx: ThreadContext,
                      span: Span) -> Value | None:
        """Call a user-defined function with already-evaluated arguments."""
        if self._compiled is not None:
            invoke = self._compiled.functions.get(name)
            if invoke is None:
                raise TetraInternalError(f"call to unknown function '{name}'")
            return invoke(args, ctx, span)
        fn = self._functions.get(name)
        if fn is None:
            raise TetraInternalError(f"call to unknown function '{name}'")
        return self._call_def(fn, self.symbols.functions[name], args, ctx, span)

    def call_method(self, obj: TetraObject, method: str, args: list[Value],
                    ctx: ThreadContext, span: Span) -> Value | None:
        """Invoke a class method with ``obj`` bound as the implicit self."""
        if self._compiled is not None:
            invoke = self._compiled.methods.get((obj.class_name, method))
            if invoke is None:
                raise TetraInternalError(
                    f"call to unknown method '{obj.class_name}.{method}'"
                )
            return invoke([obj, *args], ctx, span)
        fn = self._methods.get((obj.class_name, method))
        if fn is None:
            raise TetraInternalError(
                f"call to unknown method '{obj.class_name}.{method}'"
            )
        sig = self.symbols.classes[obj.class_name].methods[method]
        return self._call_def(fn, sig, [obj, *args], ctx, span)

    def _call_def(self, fn, sig, args: list[Value], ctx: ThreadContext,
                  span: Span) -> Value | None:
        name = sig.name
        if len(ctx.call_stack) >= self.config.recursion_limit:
            exc = TetraLimitError(
                f"recursion depth exceeded {self.config.recursion_limit} "
                f"calls (last call: '{name}') — raise it with "
                "RuntimeConfig(recursion_limit=...) if the recursion is "
                "intentional",
                span,
                limit="recursion",
            )
            if self.source is not None:
                exc.attach_source(self.source)
            raise exc
        frame = Frame(name, depth=len(ctx.call_stack))
        env = Environment(frame)
        for pname, ptype, value in zip(sig.param_names, sig.param_types, args):
            frame.vars[pname] = coerce_to(value, ptype)
        record = CallRecord(name, env, call_span=span)
        saved_env = ctx.env
        ctx.env = env
        ctx.call_stack.append(record)
        if self._acc:
            self.backend.charge(ctx, self.cost_model.call_overhead)
        obs = self._obs
        t0 = obs.clock() if obs is not None and obs.trace else None
        try:
            self.exec_block(fn.body, ctx)
        except ReturnSignal as signal:
            if sig.return_type is not VOID:
                return coerce_to(signal.value, sig.return_type)
            return None
        finally:
            if t0 is not None:
                obs.call_span(ctx.id, name, t0, obs.clock())
            ctx.call_stack.pop()
            ctx.env = saved_env
        return None

    def stop(self) -> None:
        """Ask every thread to abandon the program at its next statement."""
        self._stopped = True
        token = self.config.cancel
        if token is not None:
            # Route through the CancelToken too, so threads parked on locks
            # (which never reach the _stopped check) unwind as well.
            token.cancel("the program was stopped")

    @property
    def races(self):
        """Race reports gathered so far (empty unless ``detect_races``)."""
        return self._race.reports if self._race is not None else []

    # ------------------------------------------------------------------
    # Race-detection events
    # ------------------------------------------------------------------
    def _race_access(self, ctx: ThreadContext, key, display: str, span: Span,
                     is_write: bool, pin) -> None:
        """Feed one shared access to the detector (and the sim trace)."""
        if is_write:
            self._race.write(ctx.id, key, display, span, pin)
        else:
            self._race.read(ctx.id, key, display, span, pin)
        self.backend.record_access(ctx, display, is_write, span)

    def _race_name_access(self, ctx: ThreadContext, name: str, span: Span,
                          is_write: bool) -> None:
        env = ctx.env
        if env.is_shared(name):
            self._race_access(ctx, (id(env.frame), name), name, span,
                              is_write, env.frame)

    def _race_element_access(self, ctx: ThreadContext, base, index,
                             base_expr: Expr, span: Span,
                             is_write: bool) -> None:
        if isinstance(base, (TetraArray, TetraDict)):
            from ..tetra_ast import unparse

            display = f"{unparse(base_expr)}[{index!r}]"
            self._race_access(ctx, (id(base), index), display, span,
                              is_write, base)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_block(self, block: Block, ctx: ThreadContext) -> None:
        for stmt in block.statements:
            self.exec_stmt(stmt, ctx)

    def exec_stmt(self, stmt: Stmt, ctx: ThreadContext) -> None:
        if self._stopped:
            raise TetraThreadError("the program was stopped")
        limit = self.config.step_limit
        if limit and next(self._steps) > limit:
            exc = TetraLimitError(
                f"the program exceeded its budget of {limit} statements — "
                "raise it with --step-limit or RuntimeConfig(step_limit=...)",
                stmt.span,
                limit="steps",
            )
            if self.source is not None:
                exc.attach_source(self.source)
            raise exc
        guard = self._guard
        if guard is not None:
            guard.check(ctx, stmt.span)
        if ctx.call_stack:
            ctx.call_stack[-1].current_span = stmt.span
        self.backend.checkpoint(ctx, stmt)
        if self._obs is not None and self._obs.profile:
            self._obs.line_hit(ctx.id, stmt.span.line)
        if self._acc:
            self.backend.charge(ctx, self.cost_model.statement)
        self._stmt_dispatch[type(stmt)](stmt, ctx)

    def _exec_expr_stmt(self, stmt: ExprStmt, ctx: ThreadContext) -> None:
        self.eval_expr(stmt.expr, ctx)

    def _exec_assign(self, stmt: Assign, ctx: ThreadContext) -> None:
        value = self.eval_expr(stmt.value, ctx)
        self._store(stmt.target, value, ctx)

    def _exec_aug_assign(self, stmt: AugAssign, ctx: ThreadContext) -> None:
        current = self.eval_expr(stmt.target, ctx)
        operand = self.eval_expr(stmt.value, ctx)
        result = self._apply_binop(stmt.op, current, operand, stmt.span)
        self._store(stmt.target, result, ctx)

    def _store(self, target: Expr, value: Value, ctx: ThreadContext) -> None:
        if isinstance(target, Name):
            if self._acc:
                self.backend.charge(ctx, self.cost_model.name_store)
            if self._race is not None:
                self._race_name_access(ctx, target.id, target.span, True)
            target_ty = target.ty
            if target_ty is None:
                raise TetraInternalError(
                    f"assignment target '{target.id}' was not annotated by "
                    "the checker — was this program type-checked?",
                    target.span,
                )
            ctx.env.set(target.id, coerce_to(value, target_ty))
            return
        if isinstance(target, Attribute):
            base = self.eval_expr(target.base, ctx)
            if self._acc:
                self.backend.charge(ctx, self.cost_model.index_store)
            if not isinstance(base, TetraObject):
                raise self._err(
                    TetraRuntimeError, "only class instances have fields",
                    target.span,
                )
            if self._race is not None:
                self._race_access(
                    ctx, (id(base), target.attr),
                    f"{base.class_name}.{target.attr}", target.span, True,
                    base,
                )
            base.set(target.attr, value, target.span)
            return
        if isinstance(target, Index):
            base = self.eval_expr(target.base, ctx)
            index = self.eval_expr(target.index, ctx)
            if self._acc:
                self.backend.charge(ctx, self.cost_model.index_store)
            if self._race is not None:
                self._race_element_access(ctx, base, index, target.base,
                                          target.span, True)
            if isinstance(base, TetraDict):
                base.set(index, coerce_to(value, base.value_type))
                return
            if not isinstance(base, TetraArray):
                raise self._err(
                    TetraRuntimeError,
                    "only array and dict elements can be assigned through "
                    "an index (strings are immutable)",
                    target.span,
                )
            base.set(index, coerce_to(value, base.element_type), target.span)
            return
        raise TetraInternalError(f"bad assignment target {type(target).__name__}")

    def _exec_unpack(self, stmt: Unpack, ctx: ThreadContext) -> None:
        value = self.eval_expr(stmt.value, ctx)
        if not isinstance(value, TetraTuple):
            raise TetraInternalError("unpacking a non-tuple at runtime")
        for target, item in zip(stmt.targets, value.items):
            self._store(target, item, ctx)

    def _exec_declare(self, stmt: Declare, ctx: ThreadContext) -> None:
        value = self.eval_expr(stmt.value, ctx)
        var_type = from_type_expr(stmt.declared_type)
        ctx.env.set(stmt.name, coerce_to(value, var_type))

    def _exec_try(self, stmt: TryStmt, ctx: ThreadContext) -> None:
        try:
            self.exec_block(stmt.body, ctx)
        except TetraRuntimeError as exc:
            if not is_catchable(exc):
                raise
            ctx.env.set(stmt.error_name, exc.message)
            self.exec_block(stmt.handler, ctx)

    def _exec_if(self, stmt: If, ctx: ThreadContext) -> None:
        if self._acc:
            self.backend.charge(ctx, self.cost_model.branch)
        if self.eval_expr(stmt.cond, ctx):
            self.exec_block(stmt.then, ctx)
            return
        for clause in stmt.elifs:
            if self.eval_expr(clause.cond, ctx):
                self.exec_block(clause.body, ctx)
                return
        if stmt.orelse is not None:
            self.exec_block(stmt.orelse, ctx)

    def _exec_while(self, stmt: While, ctx: ThreadContext) -> None:
        cm = self.cost_model
        while True:
            if self._acc:
                self.backend.charge(ctx, cm.loop_iteration)
            if not self.eval_expr(stmt.cond, ctx):
                break
            try:
                self.exec_block(stmt.body, ctx)
            except BreakSignal:
                break
            except ContinueSignal:
                continue

    def _iterate(self, iterable_value: Value, span: Span) -> list[Value]:
        """Materialize the items a for-loop visits."""
        if isinstance(iterable_value, TetraArray):
            return list(iterable_value.items)
        if isinstance(iterable_value, str):
            return list(iterable_value)
        if isinstance(iterable_value, TetraDict):
            return iterable_value.sorted_keys()
        raise self._err(
            TetraRuntimeError,
            "for loops need an array, a string, or a dict", span
        )

    def _exec_for(self, stmt: For, ctx: ThreadContext) -> None:
        items = self._iterate(self.eval_expr(stmt.iterable, ctx), stmt.span)
        cm = self.cost_model
        for item in items:
            if self._acc:
                self.backend.charge(ctx, cm.loop_iteration)
            ctx.env.set(stmt.var, item)
            try:
                self.exec_block(stmt.body, ctx)
            except BreakSignal:
                break
            except ContinueSignal:
                continue

    def _unique_label(self, base: str) -> str:
        """Issue a run-unique thread label: the first use of a base keeps
        it verbatim, re-spawns from the same site get a " #N" suffix."""
        with self._labels_mu:
            n = self._label_counts.get(base, 0)
            self._label_counts[base] = n + 1
            label = base if n == 0 else f"{base} #{n + 1}"
            if label in self._labels_issued:
                raise TetraInternalError(
                    f"duplicate thread label {label!r} — labels must be "
                    "unique for schedule recording to be replayable"
                )
            self._labels_issued.add(label)
        return label

    # -- parallel constructs ------------------------------------------------
    def _exec_parallel_block(self, stmt: ParallelBlock, ctx: ThreadContext) -> None:
        self._spawn_statements(stmt, ctx, join=True, kind="parallel")

    def _exec_background_block(self, stmt: BackgroundBlock,
                               ctx: ThreadContext) -> None:
        self._spawn_statements(stmt, ctx, join=False, kind="background")

    def _spawn_statements(self, stmt, ctx: ThreadContext, join: bool,
                          kind: str) -> None:
        """One thread per child statement, sharing the spawner's environment."""
        jobs = []
        for i, child_stmt in enumerate(stmt.body.statements):
            label = self._unique_label(
                f"{kind} thread {i + 1} (line {child_stmt.span.line})"
            )
            child_ctx = ctx.spawn_child(label, ctx.env)

            def thunk(s=child_stmt, c=child_ctx):
                self.exec_stmt(s, c)

            jobs.append((child_ctx, thunk))
        self._spawn_with_race_edges(ctx, jobs, join, stmt.span, kind)

    def _spawn_with_race_edges(self, ctx: ThreadContext, jobs, join: bool,
                               span: Span, kind: str = "parallel") -> None:
        """Run a spawn group, bracketing it with fork/join happens-before
        edges when race detection is on and with observability spans when
        tracing/metrics is on.  Both the walker and the fast path spawn
        through here, so instrumentation lives in exactly one place."""
        plan = self.config.fault_plan
        if plan is not None and jobs:
            # Chaos: optionally replace child thunks with injected crashes
            # (drawn in the spawner, so deterministic on virtual backends).
            jobs = plan.wrap_jobs(jobs)
        det = self._race
        if det is not None and jobs:
            det.mark_shared(ctx.env.frame)
            for child_ctx, _thunk in jobs:
                det.fork(ctx.id, child_ctx.id, child_ctx.label)
        obs = self._obs
        group_start = 0.0
        if obs is not None and jobs:
            # Register (and take thread-span starts) in the spawner, which
            # on the coop backend holds the scheduler turn — that keeps the
            # exported thread ids and timestamps deterministic.
            for child_ctx, _thunk in jobs:
                obs.register_thread(child_ctx)
            jobs = [(c, obs.wrap_job(c, t)) for c, t in jobs]
            group_start = obs.clock()
        try:
            self.backend.spawn_group(ctx, jobs, join=join, span=span)
        finally:
            if det is not None and join:
                for child_ctx, _thunk in jobs:
                    det.join(ctx.id, child_ctx.id)
            if obs is not None and jobs:
                obs.group_span(ctx.id, kind, group_start, obs.clock(),
                               [c.id for c, _t in jobs], span.line, join)

    def _exec_parallel_for(self, stmt: ParallelFor, ctx: ThreadContext) -> None:
        items = self._iterate(self.eval_expr(stmt.iterable, ctx), stmt.span)
        if not items:
            return
        native = self._native
        if native is not None and native.try_parallel_for(self, stmt, items,
                                                          ctx):
            return
        offload = self.backend.try_parallel_for
        if offload is not None and offload(self, stmt, items, ctx):
            return
        workers = self.backend.parallel_for_workers(len(items))
        rec = self.config.schedule_recorder
        if rec is not None:
            # Worker counts are backend-dependent (thread: cpu_count, coop:
            # 4, ...); recording the resolved count lets the replay size
            # its pool identically, keeping worker labels aligned.
            rec.pfor(stmt.span.line, len(items), workers)
        chunks = self._partition(items, workers)
        cm = self.cost_model
        jobs = []
        for w, chunk in enumerate(chunks):
            if not chunk:
                continue
            label = self._unique_label(
                f"worker {w + 1} (parallel for, line {stmt.span.line})"
            )
            # The induction variable lives in the worker's *private* table
            # (paper §IV); everything else stays shared.
            worker_env = ctx.env.child_with_private({stmt.var: chunk[0]})
            child_ctx = ctx.spawn_child(label, worker_env)

            def thunk(chunk=chunk, env=worker_env, c=child_ctx):
                for item in chunk:
                    if self._acc:
                        self.backend.charge(c, cm.loop_iteration)
                    env.private[stmt.var] = item
                    self.exec_block(stmt.body, c)

            jobs.append((child_ctx, thunk))
            if self._obs is not None:
                self._obs.register_chunk(child_ctx.id, stmt.span.line,
                                         len(chunk))
        self._spawn_with_race_edges(ctx, jobs, True, stmt.span, "parallel for")

    def _partition(self, items: list[Value], workers: int) -> list[list[Value]]:
        """Split the iteration space per the configured chunking policy."""
        if self.config.chunking == "cyclic":
            return [items[w::workers] for w in range(workers)]
        if self.config.chunking == "dynamic":
            # In-process backends have no shared work queue, so "dynamic"
            # becomes a deterministic dealt-guided partition: guided
            # (decreasing) slice sizes dealt round-robin, so each worker
            # holds a mix of large and small slices — the static analogue
            # of guided self-scheduling, good for skewed iteration costs.
            sizes = guided_chunk_sizes(len(items), workers)
            chunks = [[] for _ in range(workers)]
            start = 0
            for i, size in enumerate(sizes):
                chunks[i % workers].extend(items[start:start + size])
                start += size
            return chunks
        chunks: list[list[Value]] = []
        start = 0
        for size in block_sizes(len(items), workers):
            chunks.append(items[start:start + size])
            start += size
        return chunks

    def _exec_lock(self, stmt: LockStmt, ctx: ThreadContext) -> None:
        det = self._race
        if det is None:
            self.backend.lock(
                ctx, stmt.name, lambda: self.exec_block(stmt.body, ctx),
                stmt.span,
            )
            return

        def body() -> None:
            # The detector's lockset tracks the dynamic extent of the body,
            # which the backend runs strictly inside the real lock hold.
            det.acquire(ctx.id, stmt.name)
            try:
                self.exec_block(stmt.body, ctx)
            finally:
                det.release(ctx.id, stmt.name)

        self.backend.lock(ctx, stmt.name, body, stmt.span)

    # -- simple statements ---------------------------------------------------
    def _exec_return(self, stmt: Return, ctx: ThreadContext) -> None:
        value = self.eval_expr(stmt.value, ctx) if stmt.value is not None else None
        raise ReturnSignal(value)

    def _exec_break(self, stmt: Break, ctx: ThreadContext) -> None:
        raise BreakSignal()

    def _exec_continue(self, stmt: Continue, ctx: ThreadContext) -> None:
        raise ContinueSignal()

    def _exec_pass(self, stmt: Pass, ctx: ThreadContext) -> None:
        pass

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval_expr(self, expr: Expr, ctx: ThreadContext) -> Value:
        return self._expr_dispatch[type(expr)](expr, ctx)

    def _eval_literal(self, expr, ctx: ThreadContext) -> Value:
        if self._acc:
            self.backend.charge(ctx, self.cost_model.literal)
        return expr.value

    def _eval_name(self, expr: Name, ctx: ThreadContext) -> Value:
        if self._acc:
            self.backend.charge(ctx, self.cost_model.name_load)
        if self._race is not None:
            self._race_name_access(ctx, expr.id, expr.span, False)
        return ctx.env.get(expr.id)

    def _eval_array_literal(self, expr: ArrayLiteral, ctx: ThreadContext) -> Value:
        values = [self.eval_expr(e, ctx) for e in expr.elements]
        if self._acc:
            self.backend.charge(
                ctx, self.cost_model.array_element * max(1, len(values))
            )
        ty = expr.ty
        if not isinstance(ty, ArrayType):
            raise TetraInternalError(
                "array literal was not typed by the checker — was this "
                "program type-checked?",
                expr.span,
            )
        result = make_array(values, ty.element)
        heap = self._heap
        if heap is not None:
            heap.track(result, len(values), expr.span)
        return result

    def _eval_tuple_literal(self, expr: TupleLiteral, ctx: ThreadContext) -> Value:
        values = [self.eval_expr(e, ctx) for e in expr.elements]
        ty = expr.ty
        if not isinstance(ty, TupleType):
            raise TetraInternalError(
                "tuple literal was not typed by the checker — was this "
                "program type-checked?",
                expr.span,
            )
        values = [coerce_to(v, t) for v, t in zip(values, ty.elements)]
        if self._acc:
            self.backend.charge(
                ctx, self.cost_model.array_element * len(values)
            )
        result = TetraTuple(values)
        heap = self._heap
        if heap is not None:
            heap.track(result, len(values), expr.span)
        return result

    def _eval_dict_literal(self, expr: DictLiteral, ctx: ThreadContext) -> Value:
        ty = expr.ty
        if not isinstance(ty, DictType):
            raise TetraInternalError(
                "dict literal was not typed by the checker — was this "
                "program type-checked?",
                expr.span,
            )
        items = {}
        for key_expr, value_expr in expr.entries:
            key = self.eval_expr(key_expr, ctx)
            value = self.eval_expr(value_expr, ctx)
            items[key] = coerce_to(value, ty.value)
        if self._acc:
            self.backend.charge(
                ctx, self.cost_model.array_element * max(1, len(items))
            )
        result = TetraDict(items, ty.key, ty.value)
        heap = self._heap
        if heap is not None:
            heap.track(result, len(items), expr.span)
        return result

    def _eval_range_literal(self, expr: RangeLiteral, ctx: ThreadContext) -> Value:
        start = self.eval_expr(expr.start, ctx)
        stop = self.eval_expr(expr.stop, ctx)
        items = list(range(start, stop + 1))  # inclusive, per Figure II
        if self._acc:
            self.backend.charge(
                ctx, self.cost_model.array_element * max(1, len(items))
            )
        from ..types import INT

        result = TetraArray(items, INT)
        heap = self._heap
        if heap is not None:
            heap.track(result, len(items), expr.span)
        return result

    def _eval_index(self, expr: Index, ctx: ThreadContext) -> Value:
        base = self.eval_expr(expr.base, ctx)
        index = self.eval_expr(expr.index, ctx)
        if self._acc:
            self.backend.charge(ctx, self.cost_model.index_load)
        if self._race is not None:
            self._race_element_access(ctx, base, index, expr.base,
                                      expr.span, False)
        if isinstance(base, TetraArray):
            return base.get(index, expr.span)
        if isinstance(base, TetraDict):
            return base.get(index, expr.span)
        if isinstance(base, TetraTuple):
            return base.get(index, expr.span)
        if isinstance(base, str):
            if not 0 <= index < len(base):
                raise self._err(
                    TetraRuntimeError,
                    f"index {index} is out of range for a string of length "
                    f"{len(base)}",
                    expr.span,
                )
            return base[index]
        raise self._err(TetraRuntimeError, "this value cannot be indexed", expr.span)

    def _eval_call(self, expr: Call, ctx: ThreadContext) -> Value:
        args = [self.eval_expr(a, ctx) for a in expr.args]
        if expr.func in self._functions:
            return self.call_function(expr.func, args, ctx, expr.span)
        if expr.func in self._classes:
            return self._construct(expr.func, args, ctx)
        builtin = BUILTINS.get(expr.func)
        if builtin is None:
            raise TetraInternalError(f"unknown function '{expr.func}' at runtime")
        if self._acc:
            self.backend.charge(ctx, self.cost_model.builtin_overhead)
        if expr.func == "clock":
            # clock() reports the *backend's* clock: host-monotonic seconds
            # under thread/sequential, virtual units under sim/coop.  The
            # builtin table cannot see the backend, so dispatch here.
            return self.backend.now()
        try:
            result = builtin.invoke(args, self.io, expr.span)
        except TetraRuntimeError as exc:
            if exc.source is None and self.source is not None:
                exc.attach_source(self.source)
            raise
        heap = self._heap
        if heap is not None:
            heap.track_value(result, expr.span)
        return result

    def _construct(self, class_name: str, args: list[Value],
                   ctx: ThreadContext) -> TetraObject:
        info = self.symbols.classes[class_name]
        if self._acc:
            self.backend.charge(
                ctx, self.cost_model.call_overhead
                + self.cost_model.array_element * max(1, len(args))
            )
        field_types = dict(zip(info.field_names, info.field_types))
        fields = {
            name: coerce_to(value, field_types[name])
            for name, value in zip(info.field_names, args)
        }
        result = TetraObject(class_name, fields, field_types,
                             list(info.field_names))
        heap = self._heap
        if heap is not None:
            heap.track(result, len(fields), NO_SPAN)
        return result

    def _eval_attribute(self, expr: Attribute, ctx: ThreadContext) -> Value:
        base = self.eval_expr(expr.base, ctx)
        if self._acc:
            self.backend.charge(ctx, self.cost_model.index_load)
        if not isinstance(base, TetraObject):
            raise self._err(
                TetraRuntimeError, "only class instances have fields",
                expr.span,
            )
        if self._race is not None:
            self._race_access(ctx, (id(base), expr.attr),
                              f"{base.class_name}.{expr.attr}", expr.span,
                              False, base)
        return base.get(expr.attr, expr.span)

    def _eval_method_call(self, expr: MethodCall, ctx: ThreadContext) -> Value:
        base = self.eval_expr(expr.base, ctx)
        args = [self.eval_expr(a, ctx) for a in expr.args]
        if not isinstance(base, TetraObject):
            raise self._err(
                TetraRuntimeError, "only class instances have methods",
                expr.span,
            )
        return self.call_method(base, expr.method, args, ctx, expr.span)

    def _eval_unary(self, expr: Unary, ctx: ThreadContext) -> Value:
        value = self.eval_expr(expr.operand, ctx)
        if self._acc:
            self.backend.charge(ctx, self.cost_model.unary)
        if expr.op is UnaryOp.NEG:
            return -value
        if expr.op is UnaryOp.POS:
            return value
        return not value

    def _eval_binop(self, expr: BinOp, ctx: ThreadContext) -> Value:
        op = expr.op
        # Short-circuit logicals evaluate the right side lazily.
        if op is BinaryOp.AND:
            left = self.eval_expr(expr.left, ctx)
            if self._acc:
                self.backend.charge(ctx, self.cost_model.binop)
            return bool(left) and bool(self.eval_expr(expr.right, ctx))
        if op is BinaryOp.OR:
            left = self.eval_expr(expr.left, ctx)
            if self._acc:
                self.backend.charge(ctx, self.cost_model.binop)
            return bool(left) or bool(self.eval_expr(expr.right, ctx))
        left = self.eval_expr(expr.left, ctx)
        right = self.eval_expr(expr.right, ctx)
        if self._acc:
            self.backend.charge(ctx, self.cost_model.binop)
        return self._apply_binop(op, left, right, expr.span)

    def _apply_binop(self, op: BinaryOp, left: Value, right: Value,
                     span: Span) -> Value:
        if op is BinaryOp.ADD:
            return left + right
        if op is BinaryOp.SUB:
            return left - right
        if op is BinaryOp.MUL:
            return left * right
        if op is BinaryOp.DIV:
            if isinstance(left, int) and isinstance(right, int):
                return int_div(left, right, span)
            return real_div(float(left), float(right), span)
        if op is BinaryOp.MOD:
            if isinstance(left, int) and isinstance(right, int):
                return int_mod(left, right, span)
            return real_mod(float(left), float(right), span)
        if op is BinaryOp.POW:
            return tetra_pow(left, right, span)
        if op is BinaryOp.EQ:
            return left == right
        if op is BinaryOp.NE:
            return left != right
        if op is BinaryOp.LT:
            return left < right
        if op is BinaryOp.LE:
            return left <= right
        if op is BinaryOp.GT:
            return left > right
        if op is BinaryOp.GE:
            return left >= right
        raise TetraInternalError(f"unhandled operator {op}")  # pragma: no cover

    # ------------------------------------------------------------------
    def _err(self, cls, message: str, span: Span):
        exc = cls(message, span)
        if self.source is not None:
            exc.attach_source(self.source)
        return exc
