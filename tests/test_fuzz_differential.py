"""Differential fuzzing: generated programs through every tier vs the walker.

Hypothesis builds random *well-typed, terminating, deterministic* Tetra
programs; each must produce byte-identical output through the reference
tree-walking interpreter and through the closure fast path, the other
backends, the formatter round trip and the native C tier.  This is the
strongest guard against the execution paths drifting apart, and it also
fuzzes the lexer/parser/checker along the way (every generated program must
compile cleanly — a checker rejection is a generator bug and fails loudly).
"""

import importlib.util
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import run_source
from repro.compiler.native import find_compiler
from repro.errors import TetraError

VARS = ["a", "b", "c"]


# ----------------------------------------------------------------------
# Expression generator (ints only — the richest operator set)
# ----------------------------------------------------------------------
def int_exprs(depth: int = 0):
    leaves = st.one_of(
        st.integers(-50, 50).map(lambda v: f"({v})" if v < 0 else str(v)),
        st.sampled_from(VARS),
    )
    if depth >= 2:
        return leaves

    def binop(children):
        # Division and modulo use non-zero literal divisors so the program
        # cannot fail at runtime (failures are tested elsewhere).
        safe_divisor = st.integers(1, 9)
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), children, children)
            .map(lambda t: f"({t[1]} {t[0]} {t[2]})"),
            st.tuples(children, st.sampled_from(["/", "%"]), safe_divisor)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        )

    return st.one_of(leaves, binop(int_exprs(depth + 1)))


def conditions():
    op = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
    return st.tuples(int_exprs(1), op, int_exprs(1)).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"
    )


# ----------------------------------------------------------------------
# Statement generator
# ----------------------------------------------------------------------
@st.composite
def statements(draw, depth=0):
    kind = draw(st.sampled_from(
        ["assign", "aug", "if", "for", "print"]
        if depth < 2 else ["assign", "aug", "print"]
    ))
    if kind == "assign":
        var = draw(st.sampled_from(VARS))
        return [f"{var} = {draw(int_exprs())}"]
    if kind == "aug":
        # Small literal operands: `a *= a` under nested loops squares its
        # way to astronomically large ints, which stress the bignum printer
        # rather than the language semantics under test here.
        var = draw(st.sampled_from(VARS))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return [f"{var} {op}= {draw(st.integers(1, 9))}"]
    if kind == "print":
        var = draw(st.sampled_from(VARS))
        return [f"print({var})"]
    if kind == "if":
        cond = draw(conditions())
        then = draw(blocks(depth + 1))
        orelse = draw(blocks(depth + 1))
        lines = [f"if {cond}:"] + [f"    {s}" for s in then]
        lines += ["else:"] + [f"    {s}" for s in orelse]
        return lines
    # bounded for loop
    var = draw(st.sampled_from(["i", "j"]))
    stop = draw(st.integers(1, 4))
    body = draw(blocks(depth + 1))
    return [f"for {var} in [1 ... {stop}]:"] + [f"    {s}" for s in body]


@st.composite
def blocks(draw, depth=0):
    stmts = draw(st.lists(statements(depth=depth), min_size=1, max_size=3))
    return [line for group in stmts for line in group]


@st.composite
def programs(draw):
    body = draw(blocks())
    lines = [f"{v} = {draw(st.integers(-5, 5))}" for v in VARS]
    lines += body
    lines += [f"print({v})" for v in VARS]
    indented = "\n".join(f"    {line}" for line in lines)
    return f"def main():\n{indented}\n"


@st.composite
def parallel_reduction_programs(draw):
    """Deterministic parallel programs: commutative lock-protected updates."""
    n = draw(st.integers(1, 30))
    term = draw(st.sampled_from(["i", "i * i", "i + 1", "1"]))
    workers = draw(st.integers(1, 6))
    return textwrap.dedent(f"""
        def main():
            total = 0
            parallel for i in [1 ... {n}]:
                lock total:
                    total += {term}
            print(total)
    """), workers


class TestDifferentialFuzz:
    @given(programs())
    @settings(max_examples=80, deadline=None)
    def test_fast_path_matches_tree_walker(self, text):
        """The closure fast path (the default pipeline, warm program
        cache) is byte-identical to the seed tree walker."""
        fast = run_source(text, backend="sequential").output
        walker = run_source(text, backend="sequential",
                            fast=False, cache=False).output
        assert fast == walker, text

    @given(programs())
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_on_deterministic_programs(self, text):
        outputs = {
            run_source(text, backend=name).output
            for name in ("sequential", "thread", "sim")
        }
        assert len(outputs) == 1, text

    @given(parallel_reduction_programs())
    @settings(max_examples=25, deadline=None)
    def test_parallel_reductions_agree(self, case):
        text, workers = case
        from repro.runtime import RuntimeConfig

        config = RuntimeConfig(num_workers=workers)
        interpreted = run_source(text, backend="thread", config=config).output
        sequential = run_source(text, backend="sequential").output
        assert interpreted == sequential, text

    @given(programs())
    @settings(max_examples=25, deadline=None)
    def test_proc_backend_matches_sequential_walker(self, text):
        """The process backend on the generated corpus.  These programs
        have no parallel constructs, so proc must behave exactly like its
        thread base; the point is exercising the full proc code path
        (backend construction, lifecycle, no stray offloads) against the
        sequential baseline."""
        from repro.runtime import RuntimeConfig

        sequential = run_source(text, backend="sequential").output
        proc = run_source(text, backend="proc",
                          config=RuntimeConfig(num_workers=2))
        assert proc.output == sequential, text

    @given(parallel_reduction_programs())
    @settings(max_examples=12, deadline=None)
    def test_proc_offload_matches_sequential_on_reductions(self, case):
        """Lock-protected `total += expr` is exactly what the proc backend
        offloads and merges arithmetically; outputs and exit codes must
        match the sequential walker.  (Programs whose loops use other
        shared mutation legitimately fall back to threads — the offload
        gate itself is covered in test_proc.py.)"""
        text, workers = case
        from repro.runtime import RuntimeConfig

        sequential = run_source(text, backend="sequential")
        proc = run_source(text, backend="proc",
                          config=RuntimeConfig(num_workers=min(workers, 4)),
                          on_error="return")
        assert proc.error is None, text
        assert proc.output == sequential.output, text

    @given(programs())
    @settings(max_examples=40, deadline=None)
    def test_formatting_preserves_meaning(self, text):
        """unparse(parse(p)) runs identically to p — `tetra fmt` is safe."""
        from repro.parser import parse_source
        from repro.tetra_ast import unparse

        formatted = unparse(parse_source(text))
        original = run_source(text, backend="sequential").output
        reformatted = run_source(formatted, backend="sequential").output
        assert original == reformatted, formatted


# ----------------------------------------------------------------------
# Native-tier fuzzing: the C lowering vs. the tree walker
# ----------------------------------------------------------------------
@st.composite
def native_statements(draw, depth=0):
    """Like :func:`statements`, but growth-bounded: native kernels do
    64-bit wraparound arithmetic (a documented lowering deviation), so
    the generator must keep every intermediate inside int64 — additive
    augmented assignments only, and products only of small leaves."""
    kind = draw(st.sampled_from(
        ["assign", "aug", "if", "for"]
        if depth < 2 else ["assign", "aug"]
    ))
    if kind == "assign":
        var = draw(st.sampled_from(VARS))
        return [f"{var} = {draw(int_exprs())}"]
    if kind == "aug":
        var = draw(st.sampled_from(VARS))
        op = draw(st.sampled_from(["+", "-"]))
        return [f"{var} {op}= {draw(st.integers(1, 9))}"]
    if kind == "if":
        cond = draw(conditions())
        then = draw(native_blocks(depth + 1))
        orelse = draw(native_blocks(depth + 1))
        lines = [f"if {cond}:"] + [f"    {s}" for s in then]
        lines += ["else:"] + [f"    {s}" for s in orelse]
        return lines
    var = draw(st.sampled_from(["i", "j"]))
    stop = draw(st.integers(1, 4))
    body = draw(native_blocks(depth + 1))
    return [f"for {var} in [1 ... {stop}]:"] + [f"    {s}" for s in body]


@st.composite
def native_blocks(draw, depth=0):
    groups = draw(st.lists(native_statements(depth=depth),
                           min_size=1, max_size=3))
    return [line for group in groups for line in group]


@st.composite
def native_function_programs(draw):
    """A numeric function (the native tier's lowering unit) plus a main
    that exercises it from several call sites."""
    body = draw(native_blocks())
    ret = draw(st.sampled_from(
        ["a + b + c", "a - c", "a * 2 + b", "c % 7 + a"]))
    fn = ["def kernel(a int, b int, c int) int:"]
    fn += [f"    {line}" for line in body]
    fn.append(f"    return {ret}")
    calls = draw(st.lists(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20),
                  st.integers(-20, 20)),
        min_size=1, max_size=4))
    main = ["def main():"]
    main += [f"    print(kernel({a}, {b}, {c}))" for a, b, c in calls]
    return "\n".join(fn) + "\n\n" + "\n".join(main) + "\n"


@pytest.mark.skipif(
    find_compiler() is None
    or importlib.util.find_spec("cffi") is None,
    reason="no C toolchain (compiler + cffi) on this machine")
class TestNativeFuzz:
    @given(native_function_programs())
    @settings(max_examples=60, deadline=None)
    def test_native_functions_match_tree_walker(self, text):
        walker = run_source(text, native="off").output
        compiled = run_source(text, native="require").output
        assert walker == compiled, text

    @given(parallel_reduction_programs())
    @settings(max_examples=15, deadline=None)
    def test_native_parallel_reductions_match_walker(self, case):
        text, workers = case
        from repro.runtime import RuntimeConfig

        config = RuntimeConfig(num_workers=min(workers, 4))
        walker = run_source(text, config=config, native="off").output
        compiled = run_source(text, config=config, native="require").output
        assert walker == compiled, text
