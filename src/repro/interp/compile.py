"""AST→closure precompilation: the interpreter's fast path.

The tree walker in :mod:`repro.interp.interpreter` pays a ``type(node)``
dict dispatch and several attribute lookups for *every* node on *every*
execution.  This module walks each type-checked function body **once** and
emits a tree of Python closures — one per statement and expression — with
everything that is knowable at compile time bound into the closure:

* **Operator specialization.**  ``a / b`` on two ``int`` operands becomes a
  closure that calls :func:`int_div` directly; on reals it calls
  :func:`real_div`.  The checker's ``ty`` annotations drive the choice, so
  execution never re-discovers operand types.
* **Callee resolution.**  A call site binds the target function's
  *invoker* (or the builtin's ``invoke`` method, or the class constructor)
  at compile time instead of probing three dictionaries per call.
* **Local variable slots.**  The only thread-private bindings a Tetra
  environment can ever hold are ``parallel for`` induction variables
  (see :mod:`repro.runtime.env`).  Every other function-local name is
  proven to live in the shared frame, so its reads and writes go straight
  to ``frame.vars`` and skip the private-table probe.
* **Backend specialization.**  Backends that neither schedule per
  statement (``checkpoint``) nor account costs (``charge``) get a *lean*
  statement prologue: a stop-flag test and the span bookkeeping that keeps
  backtraces and error carets exact.  The coop scheduler and the
  virtual-time simulator get the full prologue, with the same checkpoint
  and charge sequence the walker performs — stepping, step budgets, and
  simulated makespans are unchanged.

Observable semantics are identical to the walker on all four backends:
spans ride along in every closure that can raise, so diagnostics render
the same caret; per-statement checkpoints keep the debugger's independent
stepping working.  Race detection is the one deliberate exception: when
``detect_races`` is on the interpreter skips precompilation entirely and
uses the instrumented walker (the fallback the tests pin down), so the
detector sees every shared access exactly as before.
"""

from __future__ import annotations

import operator
from typing import Callable

from ..errors import (
    TetraInternalError,
    TetraLimitError,
    TetraRuntimeError,
    TetraThreadError,
    is_catchable,
)
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
    walk,
)
from ..types import (
    INT,
    VOID,
    ArrayType,
    ClassType,
    DictType,
    IntType,
    RealType,
    StringType,
    TupleType,
    from_type_expr,
)
from ..runtime import (
    Environment,
    Frame,
    coerce_to,
    int_div,
    int_mod,
    make_array,
    real_div,
    real_mod,
    tetra_pow,
)
from ..runtime.values import TetraArray, TetraDict, TetraObject, TetraTuple
from ..stdlib.registry import BUILTINS
from .context import CallRecord
from .control import BreakSignal, ContinueSignal, ReturnSignal

#: A compiled statement: runs for effect.  A compiled expression takes the
#: same shape but returns the value.
StmtRun = Callable[[object], None]
ExprRun = Callable[[object], object]

#: Invoker signature: (evaluated args, caller ctx, call-site span) -> value.
Invoker = Callable[[list, object, object], object]


class CompiledProgram:
    """The closure trees for one program, bound to one interpreter.

    ``functions`` maps a function name to its invoker; ``methods`` maps
    ``(class_name, method_name)``.  Invokers own the whole calling
    convention — recursion limit, frame/environment setup, parameter and
    return coercion — so call sites just evaluate arguments and jump.
    """

    __slots__ = ("functions", "methods")

    def __init__(self, functions: dict[str, Invoker],
                 methods: dict[tuple[str, str], Invoker]):
        self.functions = functions
        self.methods = methods


def compile_program(interp) -> CompiledProgram:
    """Precompile every function and method of ``interp.program``."""
    return _Compiler(interp).compile()


def _missing(node, what: str) -> TetraInternalError:
    """The checker failed to annotate a node the fast path depends on."""
    return TetraInternalError(
        f"the checker left {what} untyped at {node.span} — "
        "was this program type-checked?",
        node.span,
    )


def _unbound_error(ctx, exc: KeyError) -> TetraInternalError:
    """Map a frame-dict KeyError from an inlined variable read onto the
    same diagnostic :meth:`Environment.get` raises."""
    return TetraInternalError(
        f"variable '{exc.args[0]}' read before any assignment in "
        f"{ctx.env.frame.function_name}"
    )


#: Leaf literal nodes whose value can be bound into the parent's closure.
_LITERAL_NODES = (IntLiteral, RealLiteral, StringLiteral, BoolLiteral)

#: Operators whose Python spelling is total on checked operands (no span
#: needed at runtime), as C-level functions — calling one adds no Python
#: frame, which is what makes operand inlining pay off.
_OPERATOR_FUNCS = {
    BinaryOp.ADD: operator.add,
    BinaryOp.SUB: operator.sub,
    BinaryOp.MUL: operator.mul,
    BinaryOp.EQ: operator.eq,
    BinaryOp.NE: operator.ne,
    BinaryOp.LT: operator.lt,
    BinaryOp.LE: operator.le,
    BinaryOp.GT: operator.gt,
    BinaryOp.GE: operator.ge,
}


class _Compiler:
    """Compiles one program for one :class:`Interpreter` instance.

    The closures bind the interpreter's backend, io channel, and cost
    model, which is what makes them fast — and what ties a compiled
    program to its interpreter.  Compilation itself is a single O(nodes)
    walk, so rebinding per run is cheap; the expensive lex/parse/check
    work is what the :mod:`repro.api` program cache memoizes.
    """

    def __init__(self, interp):
        self.interp = interp
        self.backend = interp.backend
        self.acc = interp._acc
        self.cost = interp.cost_model
        self.io = interp.io
        self.source = interp.source
        self.symbols = interp.symbols
        self.limit = interp.config.step_limit
        # Backends that don't observe checkpoint() never see it skipped;
        # dropping the call saves a method call per statement on the thread
        # and sequential backends.  Asked of the *instance* (not the class)
        # because those backends only observe checkpoints while a schedule
        # recorder is attached.
        self.need_checkpoint = self.backend.wants_checkpoints()
        obs = interp._obs
        self._obs = obs
        #: Per-line profile hook; bound once so run_full pays a None test.
        self._line_hit = (obs.line_hit
                          if obs is not None and obs.profile else None)
        #: Guardrail check (cancel token / time limit / chaos preemption),
        #: bound once; None in the common unguarded case.  The heap meter
        #: is checked at allocation sites, so it does not force the full
        #: statement prologue.
        guard = interp._guard
        self._guard_check = guard.check if guard is not None else None
        self._heap = interp._heap
        self.lean = not (self.acc or self.limit or self.need_checkpoint
                         or self._line_hit is not None
                         or self._guard_check is not None)
        self._invokers: dict[str, Invoker] = {}
        self._method_invokers: dict[tuple[str, str], Invoker] = {}
        #: Names that *can* be thread-private in the function currently
        #: being compiled: the induction variables of its parallel fors.
        self._induction: frozenset[str] = frozenset()

    # ------------------------------------------------------------------
    # Program / function level
    # ------------------------------------------------------------------
    def compile(self) -> CompiledProgram:
        program = self.interp.program
        pending = []
        # Phase 1: create every invoker (bodies still empty) so call sites
        # can bind their callee directly, recursion included.
        for fn in program.functions:
            sig = self.symbols.functions[fn.name]
            cell: list = [None]
            self._invokers[fn.name] = self._make_invoker(sig, cell)
            pending.append((fn, cell))
        for cls in program.classes:
            info = self.symbols.classes[cls.name]
            for method in cls.methods:
                sig = info.methods[method.name]
                cell = [None]
                self._method_invokers[(cls.name, method.name)] = \
                    self._make_invoker(sig, cell)
                pending.append((method, cell))
        # Between the phases: substitute native (C) invokers for lowered
        # functions.  Call sites bind their callee from `_invokers` while
        # bodies compile in phase 2, so the swap must happen first; the
        # phase-1 Python invoker survives as the fallback each native
        # invoker delegates to when arguments exceed the C ABI (ints
        # beyond 64 bits).
        native = getattr(self.interp, "_native", None)
        if native is not None:
            for fn in program.functions:
                replacement = native.function_invoker(
                    fn.name, self._invokers[fn.name]
                )
                if replacement is not None:
                    self._invokers[fn.name] = replacement
        # Phase 2: compile the bodies.
        for fn, cell in pending:
            self._induction = frozenset(
                node.var for node in walk(fn.body)
                if isinstance(node, ParallelFor)
            )
            cell[0] = self.block(fn.body)
        return CompiledProgram(self._invokers, self._method_invokers)

    def _make_invoker(self, sig, cell: list) -> Invoker:
        interp = self.interp
        name = sig.name
        recursion_limit = interp.config.recursion_limit
        param_names = sig.param_names
        # coerce_to only acts on real and tuple targets; every other
        # parameter binds without the call.
        param_coerce = tuple(
            ty if isinstance(ty, (RealType, TupleType)) else None
            for ty in sig.param_types
        )
        simple_params = not any(param_coerce)
        return_type = sig.return_type
        is_void = return_type is VOID
        ret_coerce = (not is_void
                      and isinstance(return_type, (RealType, TupleType)))
        acc = self.acc
        charge = self.backend.charge
        call_units = self.cost.call_overhead

        def invoke(args, ctx, span):
            call_stack = ctx.call_stack
            if len(call_stack) >= recursion_limit:
                exc = TetraLimitError(
                    f"recursion depth exceeded {recursion_limit} "
                    f"calls (last call: '{name}') — raise it with "
                    "RuntimeConfig(recursion_limit=...) if the recursion "
                    "is intentional",
                    span,
                    limit="recursion",
                )
                if interp.source is not None:
                    exc.attach_source(interp.source)
                raise exc
            frame = Frame(name, depth=len(call_stack))
            fvars = frame.vars
            if simple_params:
                for pname, value in zip(param_names, args):
                    fvars[pname] = value
            else:
                for pname, want, value in zip(param_names, param_coerce, args):
                    fvars[pname] = (coerce_to(value, want)
                                    if want is not None else value)
            env = Environment(frame)
            saved_env = ctx.env
            ctx.env = env
            call_stack.append(CallRecord(name, env, call_span=span))
            if acc:
                charge(ctx, call_units)
            try:
                cell[0](ctx)
            except ReturnSignal as signal:
                if is_void:
                    return None
                if ret_coerce:
                    return coerce_to(signal.value, return_type)
                return signal.value
            finally:
                call_stack.pop()
                ctx.env = saved_env
            return None

        obs = self._obs
        if obs is not None and obs.trace:
            clock = obs.clock
            call_span = obs.call_span

            def invoke_traced(args, ctx, span):
                t0 = clock()
                try:
                    return invoke(args, ctx, span)
                finally:
                    call_span(ctx.id, name, t0, clock())

            return invoke_traced
        return invoke

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def block(self, body: Block) -> StmtRun:
        runs = tuple(self.stmt(s) for s in body.statements)
        if len(runs) == 1:
            return runs[0]

        def run_block(ctx):
            for run in runs:
                run(ctx)

        return run_block

    def stmt(self, s: Stmt) -> StmtRun:
        if self.lean:
            fused = _LEAN_STMT_BUILDERS.get(type(s))
            if fused is not None:
                return fused(self, s)
        try:
            builder = _STMT_BUILDERS[type(s)]
        except KeyError:  # pragma: no cover - parser emits no other kinds
            raise TetraInternalError(
                f"fast path has no compiler for {type(s).__name__}", s.span
            ) from None
        return self._wrap(s, builder(self, s))

    def _wrap(self, s: Stmt, core: StmtRun) -> StmtRun:
        """Attach the per-statement prologue exec_stmt() performs."""
        interp = self.interp
        span = s.span
        if self.lean:
            def run(ctx):
                if interp._stopped:
                    raise TetraThreadError("the program was stopped")
                stack = ctx.call_stack
                if stack:
                    stack[-1].current_span = span
                core(ctx)

            return run

        checkpoint = self.backend.checkpoint if self.need_checkpoint else None
        charge = self.backend.charge
        acc = self.acc
        units = self.cost.statement
        limit = self.limit
        steps = interp._steps
        line_hit = self._line_hit
        guard_check = self._guard_check
        line = span.line

        def run_full(ctx):
            if interp._stopped:
                raise TetraThreadError("the program was stopped")
            if limit and next(steps) > limit:
                exc = TetraLimitError(
                    f"the program exceeded its budget of {limit} statements "
                    "— raise it with --step-limit or "
                    "RuntimeConfig(step_limit=...)",
                    span,
                    limit="steps",
                )
                if interp.source is not None:
                    exc.attach_source(interp.source)
                raise exc
            if guard_check is not None:
                guard_check(ctx, span)
            stack = ctx.call_stack
            if stack:
                stack[-1].current_span = span
            if checkpoint is not None:
                checkpoint(ctx, s)
            if line_hit is not None:
                line_hit(ctx.id, line)
            if acc:
                charge(ctx, units)
            core(ctx)

        return run_full

    # -- lean fused statements ---------------------------------------------
    # On lean backends the prologue is two lines of bookkeeping; fusing it
    # into the hottest statement closures (instead of wrapping them) saves
    # one Python frame per statement executed.  Python 3.11's frame stack
    # grows in 16 KiB chunks that are freed as soon as recursion pops back
    # across them, so deep Tetra recursion pays an allocation for *every*
    # call whose frames straddle a chunk edge — the fewer frames per Tetra
    # statement, the fewer calls land on one.

    def _lean_stmt_expr(self, s: ExprStmt) -> StmtRun:
        interp = self.interp
        span = s.span
        value_fn = self.expr(s.expr)

        def run(ctx):
            if interp._stopped:
                raise TetraThreadError("the program was stopped")
            stack = ctx.call_stack
            if stack:
                stack[-1].current_span = span
            value_fn(ctx)  # result discarded

        return run

    def _lean_stmt_assign(self, s: Assign) -> StmtRun:
        interp = self.interp
        span = s.span
        value_fn = self.expr(s.value)
        store = self._store(s.target)

        def run(ctx):
            if interp._stopped:
                raise TetraThreadError("the program was stopped")
            stack = ctx.call_stack
            if stack:
                stack[-1].current_span = span
            store(ctx, value_fn(ctx))

        return run

    def _lean_stmt_return(self, s: Return) -> StmtRun:
        interp = self.interp
        span = s.span
        value_fn = self.expr(s.value) if s.value is not None else None

        def run(ctx):
            if interp._stopped:
                raise TetraThreadError("the program was stopped")
            stack = ctx.call_stack
            if stack:
                stack[-1].current_span = span
            raise ReturnSignal(
                value_fn(ctx) if value_fn is not None else None
            )

        return run

    def _lean_stmt_if(self, s: If) -> StmtRun:
        interp = self.interp
        span = s.span
        cond = self.expr(s.cond)
        then = self.block(s.then)
        elifs = tuple(
            (self.expr(c.cond), self.block(c.body)) for c in s.elifs
        )
        orelse = self.block(s.orelse) if s.orelse is not None else None
        if not elifs:
            def run(ctx):
                if interp._stopped:
                    raise TetraThreadError("the program was stopped")
                stack = ctx.call_stack
                if stack:
                    stack[-1].current_span = span
                if cond(ctx):
                    then(ctx)
                elif orelse is not None:
                    orelse(ctx)

            return run

        def run_elifs(ctx):
            if interp._stopped:
                raise TetraThreadError("the program was stopped")
            stack = ctx.call_stack
            if stack:
                stack[-1].current_span = span
            if cond(ctx):
                then(ctx)
                return
            for clause_cond, clause_body in elifs:
                if clause_cond(ctx):
                    clause_body(ctx)
                    return
            if orelse is not None:
                orelse(ctx)

        return run_elifs

    # -- simple statements -------------------------------------------------
    def _stmt_expr(self, s: ExprStmt) -> StmtRun:
        return self.expr(s.expr)  # result discarded by the wrapper

    def _stmt_assign(self, s: Assign) -> StmtRun:
        value_fn = self.expr(s.value)
        store = self._store(s.target)

        def run(ctx):
            store(ctx, value_fn(ctx))

        return run

    def _stmt_aug_assign(self, s: AugAssign) -> StmtRun:
        target_fn = self.expr(s.target)
        value_fn = self.expr(s.value)
        apply = self._binop_apply(s.op, s.target.ty, s.value.ty, s.span, s)
        store = self._store(s.target)

        def run(ctx):
            current = target_fn(ctx)
            operand = value_fn(ctx)
            store(ctx, apply(current, operand))

        return run

    def _stmt_unpack(self, s: Unpack) -> StmtRun:
        value_fn = self.expr(s.value)
        stores = tuple(self._store(t) for t in s.targets)

        def run(ctx):
            value = value_fn(ctx)
            if not isinstance(value, TetraTuple):
                raise TetraInternalError("unpacking a non-tuple at runtime")
            for store, item in zip(stores, value.items):
                store(ctx, item)

        return run

    def _stmt_declare(self, s: Declare) -> StmtRun:
        value_fn = self.expr(s.value)
        var_type = from_type_expr(s.declared_type)  # resolved once, not per run
        name = s.name
        if name in self._induction:
            def run(ctx):
                ctx.env.set(name, coerce_to(value_fn(ctx), var_type))
        else:
            def run(ctx):
                ctx.env.frame.vars[name] = coerce_to(value_fn(ctx), var_type)

        return run

    def _stmt_return(self, s: Return) -> StmtRun:
        if s.value is None:
            def run(ctx):
                raise ReturnSignal(None)
        else:
            value_fn = self.expr(s.value)

            def run(ctx):
                raise ReturnSignal(value_fn(ctx))

        return run

    def _stmt_break(self, s: Break) -> StmtRun:
        def run(ctx):
            raise BreakSignal()

        return run

    def _stmt_continue(self, s: Continue) -> StmtRun:
        def run(ctx):
            raise ContinueSignal()

        return run

    def _stmt_pass(self, s: Pass) -> StmtRun:
        def run(ctx):
            pass

        return run

    def _stmt_try(self, s: TryStmt) -> StmtRun:
        body = self.block(s.body)
        handler = self.block(s.handler)
        error_name = s.error_name

        def run(ctx):
            try:
                body(ctx)
            except TetraRuntimeError as exc:
                if not is_catchable(exc):
                    raise
                ctx.env.set(error_name, exc.message)
                handler(ctx)

        return run

    # -- control flow ------------------------------------------------------
    def _stmt_if(self, s: If) -> StmtRun:
        cond = self.expr(s.cond)
        then = self.block(s.then)
        elifs = tuple(
            (self.expr(c.cond), self.block(c.body)) for c in s.elifs
        )
        orelse = self.block(s.orelse) if s.orelse is not None else None
        acc = self.acc
        charge = self.backend.charge
        units = self.cost.branch

        def run_general(ctx):
            if acc:
                charge(ctx, units)
            if cond(ctx):
                then(ctx)
                return
            for clause_cond, clause_body in elifs:
                if clause_cond(ctx):
                    clause_body(ctx)
                    return
            if orelse is not None:
                orelse(ctx)

        return run_general

    def _stmt_while(self, s: While) -> StmtRun:
        cond = self.expr(s.cond)
        body = self.block(s.body)
        if self.lean:
            def run(ctx):
                while True:
                    if not cond(ctx):
                        break
                    try:
                        body(ctx)
                    except BreakSignal:
                        break
                    except ContinueSignal:
                        continue

            return run

        acc = self.acc
        charge = self.backend.charge
        units = self.cost.loop_iteration

        def run_acc(ctx):
            while True:
                if acc:
                    charge(ctx, units)
                if not cond(ctx):
                    break
                try:
                    body(ctx)
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue

        return run_acc

    def _stmt_for(self, s: For) -> StmtRun:
        iterable_fn = self.expr(s.iterable)
        body = self.block(s.body)
        var = s.var
        span = s.span
        iterate = self.interp._iterate
        private = var in self._induction
        acc = self.acc
        charge = self.backend.charge
        units = self.cost.loop_iteration

        if not acc and not private:
            def run(ctx):
                items = iterate(iterable_fn(ctx), span)
                fvars = ctx.env.frame.vars
                for item in items:
                    fvars[var] = item
                    try:
                        body(ctx)
                    except BreakSignal:
                        break
                    except ContinueSignal:
                        continue

            return run

        def run_general(ctx):
            items = iterate(iterable_fn(ctx), span)
            env = ctx.env
            for item in items:
                if acc:
                    charge(ctx, units)
                env.set(var, item)
                try:
                    body(ctx)
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue

        return run_general

    # -- parallel constructs -----------------------------------------------
    def _spawn_block(self, s, join: bool, kind: str) -> StmtRun:
        children = tuple(
            (self.stmt(child), child.span.line)
            for child in s.body.statements
        )
        spawn = self.interp._spawn_with_race_edges
        unique_label = self.interp._unique_label
        span = s.span

        def run(ctx):
            jobs = []
            env = ctx.env
            for i, (child_run, line) in enumerate(children):
                label = unique_label(f"{kind} thread {i + 1} (line {line})")
                child_ctx = ctx.spawn_child(label, env)

                def thunk(run_child=child_run, c=child_ctx):
                    run_child(c)

                jobs.append((child_ctx, thunk))
            spawn(ctx, jobs, join, span, kind)

        return run

    def _stmt_parallel_block(self, s: ParallelBlock) -> StmtRun:
        return self._spawn_block(s, join=True, kind="parallel")

    def _stmt_background_block(self, s: BackgroundBlock) -> StmtRun:
        return self._spawn_block(s, join=False, kind="background")

    def _stmt_parallel_for(self, s: ParallelFor) -> StmtRun:
        interp = self.interp
        native = getattr(interp, "_native", None)
        # A `[a ... b]` loop with a loaded kernel hands the kernel its
        # bounds; the item list is built only if the kernel declines.
        range_route = native is not None and native.runs_range_loop(s)
        if range_route:
            start_fn = self.expr(s.iterable.start)
            stop_fn = self.expr(s.iterable.stop)
        else:
            iterable_fn = self.expr(s.iterable)
        body = self.block(s.body)
        var = s.var
        span = s.span
        line = span.line
        backend = self.backend
        acc = self.acc
        charge = backend.charge
        units = self.cost.loop_iteration
        spawn = interp._spawn_with_race_edges
        obs = self._obs
        try_offload = backend.try_parallel_for
        sched_rec = interp.config.schedule_recorder

        def run(ctx):
            if range_route:
                items = native.range_parallel_for(interp, s, start_fn,
                                                  stop_fn, ctx)
                if items is None:
                    return
            else:
                items = interp._iterate(iterable_fn(ctx), span)
                if not items:
                    return
                if native is not None and native.try_parallel_for(
                        interp, s, items, ctx):
                    return
            if try_offload is not None and try_offload(interp, s, items,
                                                       ctx):
                return
            workers = backend.parallel_for_workers(len(items))
            if sched_rec is not None:
                sched_rec.pfor(line, len(items), workers)
            chunks = interp._partition(items, workers)
            jobs = []
            for w, chunk in enumerate(chunks):
                if not chunk:
                    continue
                label = interp._unique_label(
                    f"worker {w + 1} (parallel for, line {line})"
                )
                worker_env = ctx.env.child_with_private({var: chunk[0]})
                child_ctx = ctx.spawn_child(label, worker_env)

                def thunk(chunk=chunk, env=worker_env, c=child_ctx):
                    private = env.private
                    for item in chunk:
                        if acc:
                            charge(c, units)
                        private[var] = item
                        body(c)

                jobs.append((child_ctx, thunk))
                if obs is not None:
                    obs.register_chunk(child_ctx.id, line, len(chunk))
            spawn(ctx, jobs, True, span, "parallel for")

        return run

    def _stmt_lock(self, s: LockStmt) -> StmtRun:
        body = self.block(s.body)
        lock = self.backend.lock
        name = s.name
        span = s.span

        def run(ctx):
            lock(ctx, name, lambda: body(ctx), span)

        return run

    # ------------------------------------------------------------------
    # Assignment targets
    # ------------------------------------------------------------------
    def _store(self, target: Expr) -> Callable[[object, object], None]:
        interp = self.interp
        acc = self.acc
        charge = self.backend.charge
        if isinstance(target, Name):
            name = target.id
            ty = target.ty
            if ty is None:
                raise _missing(target, f"assignment target '{name}'")
            widen = ty if isinstance(ty, (RealType, TupleType)) else None
            units = self.cost.name_store
            if name in self._induction:
                def store(ctx, value):
                    if acc:
                        charge(ctx, units)
                    ctx.env.set(
                        name, coerce_to(value, widen) if widen else value
                    )
            elif widen is not None:
                def store(ctx, value):
                    if acc:
                        charge(ctx, units)
                    ctx.env.frame.vars[name] = coerce_to(value, widen)
            elif acc:
                def store(ctx, value):
                    charge(ctx, units)
                    ctx.env.frame.vars[name] = value
            else:
                def store(ctx, value):
                    ctx.env.frame.vars[name] = value
            return store

        if isinstance(target, Attribute):
            base_fn = self.expr(target.base)
            attr = target.attr
            span = target.span
            units = self.cost.index_store

            def store_attr(ctx, value):
                base = base_fn(ctx)
                if acc:
                    charge(ctx, units)
                if not isinstance(base, TetraObject):
                    raise interp._err(
                        TetraRuntimeError,
                        "only class instances have fields", span,
                    )
                base.set(attr, value, span)

            return store_attr

        if isinstance(target, Index):
            base_fn = self.expr(target.base)
            index_fn = self.expr(target.index)
            span = target.span
            units = self.cost.index_store

            def store_index(ctx, value):
                base = base_fn(ctx)
                index = index_fn(ctx)
                if acc:
                    charge(ctx, units)
                if isinstance(base, TetraDict):
                    base.set(index, coerce_to(value, base.value_type))
                    return
                if not isinstance(base, TetraArray):
                    raise interp._err(
                        TetraRuntimeError,
                        "only array and dict elements can be assigned "
                        "through an index (strings are immutable)",
                        span,
                    )
                base.set(index, coerce_to(value, base.element_type), span)

            return store_index

        raise TetraInternalError(
            f"bad assignment target {type(target).__name__}"
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expr(self, e: Expr) -> ExprRun:
        try:
            builder = _EXPR_BUILDERS[type(e)]
        except KeyError:  # pragma: no cover - parser emits no other kinds
            raise TetraInternalError(
                f"fast path has no compiler for {type(e).__name__}", e.span
            ) from None
        return builder(self, e)

    def _expr_literal(self, e) -> ExprRun:
        value = e.value
        if not self.acc:
            return lambda ctx: value
        charge = self.backend.charge
        units = self.cost.literal

        def run(ctx):
            charge(ctx, units)
            return value

        return run

    def _expr_name(self, e: Name) -> ExprRun:
        name = e.id
        if name in self._induction:
            if not self.acc:
                return lambda ctx: ctx.env.get(name)
            charge = self.backend.charge
            units = self.cost.name_load

            def run_private(ctx):
                charge(ctx, units)
                return ctx.env.get(name)

            return run_private

        if not self.acc:
            def run(ctx):
                try:
                    return ctx.env.frame.vars[name]
                except KeyError:
                    raise TetraInternalError(
                        f"variable '{name}' read before any assignment in "
                        f"{ctx.env.frame.function_name}"
                    ) from None

            return run

        charge = self.backend.charge
        units = self.cost.name_load

        def run_acc(ctx):
            charge(ctx, units)
            try:
                return ctx.env.frame.vars[name]
            except KeyError:
                raise TetraInternalError(
                    f"variable '{name}' read before any assignment in "
                    f"{ctx.env.frame.function_name}"
                ) from None

        return run_acc

    def _with_heap(self, run: ExprRun, span) -> ExprRun:
        """Wrap an allocation site with the memory-limit meter (no-op —
        the closure is returned untouched — unless memory_limit is set)."""
        heap = self._heap
        if heap is None:
            return run
        track_value = heap.track_value

        def run_tracked(ctx):
            result = run(ctx)
            track_value(result, span)
            return result

        return run_tracked

    def _expr_array_literal(self, e: ArrayLiteral) -> ExprRun:
        ty = e.ty
        if not isinstance(ty, ArrayType):
            raise _missing(e, "an array literal")
        element_ty = ty.element
        elem_fns = tuple(self.expr(x) for x in e.elements)
        if not self.acc:
            def run(ctx):
                return make_array([f(ctx) for f in elem_fns], element_ty)

            return self._with_heap(run, e.span)

        charge = self.backend.charge
        units = self.cost.array_element * max(1, len(elem_fns))

        def run_acc(ctx):
            values = [f(ctx) for f in elem_fns]
            charge(ctx, units)
            return make_array(values, element_ty)

        return self._with_heap(run_acc, e.span)

    def _expr_tuple_literal(self, e: TupleLiteral) -> ExprRun:
        ty = e.ty
        if not isinstance(ty, TupleType):
            raise _missing(e, "a tuple literal")
        elem_fns = tuple(self.expr(x) for x in e.elements)
        widen = tuple(
            t if isinstance(t, (RealType, TupleType)) else None
            for t in ty.elements
        )
        simple = not any(widen)
        acc = self.acc
        charge = self.backend.charge
        units = self.cost.array_element * len(elem_fns)

        def run(ctx):
            if simple:
                values = [f(ctx) for f in elem_fns]
            else:
                values = [
                    coerce_to(f(ctx), w) if w is not None else f(ctx)
                    for f, w in zip(elem_fns, widen)
                ]
            if acc:
                charge(ctx, units)
            return TetraTuple(values)

        return self._with_heap(run, e.span)

    def _expr_dict_literal(self, e: DictLiteral) -> ExprRun:
        ty = e.ty
        if not isinstance(ty, DictType):
            raise TetraInternalError(
                "dict literal was not typed by the checker", e.span
            )
        entry_fns = tuple(
            (self.expr(k), self.expr(v)) for k, v in e.entries
        )
        key_ty, value_ty = ty.key, ty.value
        acc = self.acc
        charge = self.backend.charge
        per_element = self.cost.array_element

        def run(ctx):
            items = {}
            for key_fn, value_fn in entry_fns:
                key = key_fn(ctx)
                items[key] = coerce_to(value_fn(ctx), value_ty)
            if acc:
                charge(ctx, per_element * max(1, len(items)))
            return TetraDict(items, key_ty, value_ty)

        return self._with_heap(run, e.span)

    def _expr_range_literal(self, e: RangeLiteral) -> ExprRun:
        start_fn = self.expr(e.start)
        stop_fn = self.expr(e.stop)
        acc = self.acc
        charge = self.backend.charge
        per_element = self.cost.array_element

        def run(ctx):
            items = list(range(start_fn(ctx), stop_fn(ctx) + 1))
            if acc:
                charge(ctx, per_element * max(1, len(items)))
            return TetraArray(items, INT)

        return self._with_heap(run, e.span)

    def _expr_index(self, e: Index) -> ExprRun:
        interp = self.interp
        base_fn = self.expr(e.base)
        index_fn = self.expr(e.index)
        span = e.span
        base_ty = e.base.ty
        acc = self.acc
        charge = self.backend.charge
        units = self.cost.index_load

        if isinstance(base_ty, (ArrayType, DictType, TupleType)):
            # Arrays, dicts, and tuples share the get(index, span) protocol;
            # the static type tells us no other value can appear here.
            if not acc:
                def run(ctx):
                    return base_fn(ctx).get(index_fn(ctx), span)

                return run

            def run_acc(ctx):
                base = base_fn(ctx)
                index = index_fn(ctx)
                charge(ctx, units)
                return base.get(index, span)

            return run_acc

        if isinstance(base_ty, StringType):
            def run_str(ctx):
                base = base_fn(ctx)
                index = index_fn(ctx)
                if acc:
                    charge(ctx, units)
                if not 0 <= index < len(base):
                    raise interp._err(
                        TetraRuntimeError,
                        f"index {index} is out of range for a string of "
                        f"length {len(base)}",
                        span,
                    )
                return base[index]

            return run_str

        raise _missing(e.base, "an indexed expression")

    def _expr_attribute(self, e: Attribute) -> ExprRun:
        interp = self.interp
        base_fn = self.expr(e.base)
        attr = e.attr
        span = e.span
        acc = self.acc
        charge = self.backend.charge
        units = self.cost.index_load

        def run(ctx):
            base = base_fn(ctx)
            if acc:
                charge(ctx, units)
            if not isinstance(base, TetraObject):
                raise interp._err(
                    TetraRuntimeError, "only class instances have fields",
                    span,
                )
            return base.get(attr, span)

        return run

    def _expr_method_call(self, e: MethodCall) -> ExprRun:
        interp = self.interp
        base_ty = e.base.ty
        if not isinstance(base_ty, ClassType):
            raise _missing(e.base, "a method-call receiver")
        invoke = self._method_invokers.get((base_ty.name, e.method))
        if invoke is None:
            raise TetraInternalError(
                f"call to unknown method '{base_ty.name}.{e.method}'"
            )
        base_fn = self.expr(e.base)
        arg_fns = tuple(self.expr(a) for a in e.args)
        span = e.span

        def run(ctx):
            base = base_fn(ctx)
            args = [f(ctx) for f in arg_fns]
            if not isinstance(base, TetraObject):
                raise interp._err(
                    TetraRuntimeError, "only class instances have methods",
                    span,
                )
            return invoke([base, *args], ctx, span)

        return run

    def _expr_call(self, e: Call) -> ExprRun:
        arg_fns = tuple(self.expr(a) for a in e.args)
        span = e.span

        invoke = self._invokers.get(e.func)
        if invoke is not None:
            if len(arg_fns) == 1:
                arg0 = arg_fns[0]

                def run1(ctx):
                    return invoke([arg0(ctx)], ctx, span)

                return run1

            def run(ctx):
                return invoke([f(ctx) for f in arg_fns], ctx, span)

            return run

        info = self.symbols.classes.get(e.func)
        if info is not None:
            return self._constructor(e, info, arg_fns)

        builtin = BUILTINS.get(e.func)
        if builtin is None:
            raise TetraInternalError(
                f"unknown function '{e.func}' at runtime", e.span
            )
        invoke_builtin = builtin.invoke
        io = self.io
        source = self.source
        acc = self.acc
        charge = self.backend.charge
        units = self.cost.builtin_overhead

        if e.func == "clock":
            # clock() reports the backend's clock (virtual under sim/coop);
            # the builtin table cannot see the backend, so bind it here.
            now = self.backend.now

            def run_clock(ctx):
                if acc:
                    charge(ctx, units)
                return now()

            return run_clock

        def run_builtin(ctx):
            args = [f(ctx) for f in arg_fns]
            if acc:
                charge(ctx, units)
            try:
                return invoke_builtin(args, io, span)
            except TetraRuntimeError as exc:
                if exc.source is None and source is not None:
                    exc.attach_source(source)
                raise

        return self._with_heap(run_builtin, span)

    def _constructor(self, e: Call, info, arg_fns) -> ExprRun:
        class_name = info.name
        field_names = info.field_names
        # The type/order tables are immutable; every instance can share them
        # (the walker rebuilds both on each construction).
        field_types = dict(zip(info.field_names, info.field_types))
        field_order = list(info.field_names)
        widen = tuple(
            ty if isinstance(ty, (RealType, TupleType)) else None
            for ty in info.field_types
        )
        acc = self.acc
        charge = self.backend.charge
        units = (self.cost.call_overhead
                 + self.cost.array_element * max(1, len(arg_fns)))

        def run(ctx):
            if acc:
                args = [f(ctx) for f in arg_fns]
                charge(ctx, units)
            else:
                args = [f(ctx) for f in arg_fns]
            fields = {
                name: coerce_to(value, w) if w is not None else value
                for name, w, value in zip(field_names, widen, args)
            }
            return TetraObject(class_name, fields, field_types, field_order)

        return self._with_heap(run, e.span)

    def _expr_unary(self, e: Unary) -> ExprRun:
        op = e.op
        if not self.acc and isinstance(e.operand, _LITERAL_NODES):
            raw = e.operand.value  # fold: -1 and not true are constants
            if op is UnaryOp.NEG:
                value = -raw
            elif op is UnaryOp.POS:
                value = raw
            else:
                value = not raw
            return lambda ctx: value
        operand = self.expr(e.operand)
        if not self.acc:
            if op is UnaryOp.NEG:
                return lambda ctx: -operand(ctx)
            if op is UnaryOp.POS:
                return operand
            return lambda ctx: not operand(ctx)

        charge = self.backend.charge
        units = self.cost.unary

        def run(ctx):
            value = operand(ctx)
            charge(ctx, units)
            if op is UnaryOp.NEG:
                return -value
            if op is UnaryOp.POS:
                return value
            return not value

        return run

    def _operand(self, e: Expr):
        """Classify an operand for inlining: ``("const", value)`` for a
        literal, ``("name", id)`` for a provably-shared local, or
        ``(None, closure)`` when it must stay a compiled sub-expression.
        Inlined operands cost zero Python frames at runtime (cost
        accounting needs the per-node closures, so only lean/thread
        backends inline)."""
        if isinstance(e, _LITERAL_NODES):
            return "const", e.value
        if type(e) is Name and e.id not in self._induction:
            return "name", e.id
        return None, self.expr(e)

    def _expr_binop(self, e: BinOp) -> ExprRun:
        op = e.op
        acc = self.acc
        charge = self.backend.charge
        units = self.cost.binop

        if op is BinaryOp.AND or op is BinaryOp.OR:
            left = self.expr(e.left)
            right = self.expr(e.right)
            if op is BinaryOp.AND:
                if not acc:
                    return lambda ctx: bool(left(ctx)) and bool(right(ctx))

                def run_and(ctx):
                    lv = left(ctx)
                    charge(ctx, units)
                    return bool(lv) and bool(right(ctx))

                return run_and
            if not acc:
                return lambda ctx: bool(left(ctx)) or bool(right(ctx))

            def run_or(ctx):
                lv = left(ctx)
                charge(ctx, units)
                return bool(lv) or bool(right(ctx))

            return run_or

        if not acc:
            lk, lv = self._operand(e.left)
            rk, rv = self._operand(e.right)
            if lk is not None or rk is not None:
                return self._binop_inlined(e, lk, lv, rk, rv)
            left, right = lv, rv
            # Both operands are real sub-expressions: one closure call per
            # operand and the native operator, nothing else.
            if op is BinaryOp.ADD:
                return lambda ctx: left(ctx) + right(ctx)
            if op is BinaryOp.SUB:
                return lambda ctx: left(ctx) - right(ctx)
            if op is BinaryOp.MUL:
                return lambda ctx: left(ctx) * right(ctx)
            if op is BinaryOp.EQ:
                return lambda ctx: left(ctx) == right(ctx)
            if op is BinaryOp.NE:
                return lambda ctx: left(ctx) != right(ctx)
            if op is BinaryOp.LT:
                return lambda ctx: left(ctx) < right(ctx)
            if op is BinaryOp.LE:
                return lambda ctx: left(ctx) <= right(ctx)
            if op is BinaryOp.GT:
                return lambda ctx: left(ctx) > right(ctx)
            if op is BinaryOp.GE:
                return lambda ctx: left(ctx) >= right(ctx)
            apply = self._binop_apply(op, e.left.ty, e.right.ty, e.span, e)
            return lambda ctx: apply(left(ctx), right(ctx))

        left = self.expr(e.left)
        right = self.expr(e.right)
        apply = self._binop_apply(op, e.left.ty, e.right.ty, e.span, e)

        def run_acc(ctx):
            lv = left(ctx)
            rv = right(ctx)
            charge(ctx, units)
            return apply(lv, rv)

        return run_acc

    def _binop_inlined(self, e: BinOp, lk, lv, rk, rv) -> ExprRun:
        """A binop closure with at least one literal/local operand bound in.

        ``n - 1`` compiles to a single closure that reads the frame dict and
        subtracts — no operand frames at all.  Frame-dict KeyErrors map onto
        the unbound-variable internal error with the walker's wording;
        evaluation stays left-to-right so a program with *two* unbound
        operands reports the same one the walker would.
        """
        op = e.op
        opfunc = _OPERATOR_FUNCS.get(op)
        total = opfunc is not None  # total ⇒ cannot raise ⇒ foldable
        if opfunc is None:
            opfunc = self._binop_apply(op, e.left.ty, e.right.ty, e.span, e)

        if lk == "const" and rk == "const":
            if total:
                value = opfunc(lv, rv)  # fold: 1 + 2 is 3 at compile time
                return lambda ctx: value
            return lambda ctx: opfunc(lv, rv)  # 1 / 0 must raise at runtime

        if lk == "name":
            if rk == "name":
                def run_nn(ctx):
                    v = ctx.env.frame.vars
                    try:
                        return opfunc(v[lv], v[rv])
                    except KeyError as exc:
                        raise _unbound_error(ctx, exc) from None

                return run_nn
            if rk == "const":
                def run_nc(ctx):
                    try:
                        return opfunc(ctx.env.frame.vars[lv], rv)
                    except KeyError as exc:
                        raise _unbound_error(ctx, exc) from None

                return run_nc

            def run_nf(ctx):
                try:
                    left = ctx.env.frame.vars[lv]
                except KeyError as exc:
                    raise _unbound_error(ctx, exc) from None
                return opfunc(left, rv(ctx))

            return run_nf

        if rk == "name":
            if lk == "const":
                def run_cn(ctx):
                    try:
                        return opfunc(lv, ctx.env.frame.vars[rv])
                    except KeyError as exc:
                        raise _unbound_error(ctx, exc) from None

                return run_cn

            def run_fn(ctx):
                left = lv(ctx)
                try:
                    right = ctx.env.frame.vars[rv]
                except KeyError as exc:
                    raise _unbound_error(ctx, exc) from None
                return opfunc(left, right)

            return run_fn

        if lk == "const":
            return lambda ctx: opfunc(lv, rv(ctx))
        return lambda ctx: opfunc(lv(ctx), rv)

    def _binop_apply(self, op: BinaryOp, left_ty, right_ty, span, node):
        """A two-argument applier with the operator (and, for division and
        modulo, the int/real variant) chosen from the static types."""
        if op is BinaryOp.ADD:
            return lambda a, b: a + b
        if op is BinaryOp.SUB:
            return lambda a, b: a - b
        if op is BinaryOp.MUL:
            return lambda a, b: a * b
        if op is BinaryOp.EQ:
            return lambda a, b: a == b
        if op is BinaryOp.NE:
            return lambda a, b: a != b
        if op is BinaryOp.LT:
            return lambda a, b: a < b
        if op is BinaryOp.LE:
            return lambda a, b: a <= b
        if op is BinaryOp.GT:
            return lambda a, b: a > b
        if op is BinaryOp.GE:
            return lambda a, b: a >= b
        if op is BinaryOp.POW:
            return lambda a, b: tetra_pow(a, b, span)
        if op in (BinaryOp.DIV, BinaryOp.MOD):
            if left_ty is None or right_ty is None:
                raise _missing(node, f"an operand of '{op.value}'")
            both_int = (isinstance(left_ty, IntType)
                        and isinstance(right_ty, IntType))
            if op is BinaryOp.DIV:
                if both_int:
                    return lambda a, b: int_div(a, b, span)
                return lambda a, b: real_div(float(a), float(b), span)
            if both_int:
                return lambda a, b: int_mod(a, b, span)
            return lambda a, b: real_mod(float(a), float(b), span)
        raise TetraInternalError(
            f"unhandled operator {op}"
        )  # pragma: no cover


_STMT_BUILDERS = {
    ExprStmt: _Compiler._stmt_expr,
    Assign: _Compiler._stmt_assign,
    AugAssign: _Compiler._stmt_aug_assign,
    Unpack: _Compiler._stmt_unpack,
    Declare: _Compiler._stmt_declare,
    If: _Compiler._stmt_if,
    While: _Compiler._stmt_while,
    For: _Compiler._stmt_for,
    ParallelFor: _Compiler._stmt_parallel_for,
    ParallelBlock: _Compiler._stmt_parallel_block,
    BackgroundBlock: _Compiler._stmt_background_block,
    LockStmt: _Compiler._stmt_lock,
    TryStmt: _Compiler._stmt_try,
    Return: _Compiler._stmt_return,
    Break: _Compiler._stmt_break,
    Continue: _Compiler._stmt_continue,
    Pass: _Compiler._stmt_pass,
}

#: Statements with a prologue-fused variant for lean backends; every other
#: statement kind goes through the generic ``_wrap`` prologue.
_LEAN_STMT_BUILDERS = {
    ExprStmt: _Compiler._lean_stmt_expr,
    Assign: _Compiler._lean_stmt_assign,
    Return: _Compiler._lean_stmt_return,
    If: _Compiler._lean_stmt_if,
}

_EXPR_BUILDERS = {
    IntLiteral: _Compiler._expr_literal,
    RealLiteral: _Compiler._expr_literal,
    StringLiteral: _Compiler._expr_literal,
    BoolLiteral: _Compiler._expr_literal,
    Name: _Compiler._expr_name,
    ArrayLiteral: _Compiler._expr_array_literal,
    TupleLiteral: _Compiler._expr_tuple_literal,
    DictLiteral: _Compiler._expr_dict_literal,
    RangeLiteral: _Compiler._expr_range_literal,
    Index: _Compiler._expr_index,
    Attribute: _Compiler._expr_attribute,
    MethodCall: _Compiler._expr_method_call,
    Call: _Compiler._expr_call,
    BinOp: _Compiler._expr_binop,
    Unary: _Compiler._expr_unary,
}
