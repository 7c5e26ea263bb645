"""Tests for the implemented future-work language features:

* associative arrays (``{K: V}`` types, ``{k: v}`` literals, dict builtins),
* explicitly typed declarations (``name type = value``),
* error handling (``try`` / ``catch`` and the ``error()`` builtin).

Each feature is exercised through the whole pipeline: checker accept/reject,
interpreter semantics (all backends), fast-path vs walker differential, and
unparse round-trips.
"""

import textwrap

import pytest

from conftest import run, walker_differential as differential
from repro.errors import (
    TetraDeadlockError,
    TetraIndexError,
    TetraRuntimeError,
)
from repro.parser import parse_source
from repro.tetra_ast import node_equal, unparse
from repro.types import DictType, INT, REAL, STRING, check_program, collect_diagnostics
from repro.source import SourceFile


def errors_of(text: str) -> list[str]:
    text = textwrap.dedent(text)
    source = SourceFile.from_string(text)
    return [e.message for e in collect_diagnostics(parse_source(source), source)]


def reject(text: str, match: str):
    msgs = errors_of(text)
    assert any(match in m for m in msgs), msgs


def accept(text: str):
    assert errors_of(text) == []


class TestDictChecker:
    def test_literal_type_inferred(self):
        source = SourceFile.from_string(
            'def main():\n    d = {"a": 1}\n'
        )
        program = parse_source(source)
        symbols = check_program(program, source)
        assert symbols.scope_of("main").lookup("d").type == DictType(STRING, INT)

    def test_value_promotion(self):
        source = SourceFile.from_string(
            "def main():\n    d = {1: 1, 2: 2.5}\n"
        )
        program = parse_source(source)
        symbols = check_program(program, source)
        assert symbols.scope_of("main").lookup("d").type == DictType(INT, REAL)

    def test_mixed_keys_rejected(self):
        reject('def main():\n    d = {1: 1, "a": 2}\n', "mixes int and string keys")

    def test_mixed_values_rejected(self):
        reject('def main():\n    d = {1: 1, 2: "x"}\n', "mixes int and string values")

    def test_bool_keys_rejected(self):
        reject("def main():\n    d = {true: 1}\n", "keys must be int or string")

    def test_real_keys_rejected_in_annotation(self):
        reject("def f(d {real: int}):\n    pass\n", "keys must be int or string")

    def test_empty_literal_needs_declaration(self):
        reject("def main():\n    d = {}\n", "empty dict literal")

    def test_index_key_type_checked(self):
        reject("""
            def main():
                d = {"a": 1}
                x = d[2]
        """, "keyed by string, not int")

    def test_index_result_type(self):
        source = SourceFile.from_string(textwrap.dedent("""
            def main():
                d = {"a": 1.5}
                x = d["a"]
        """))
        program = parse_source(source)
        symbols = check_program(program, source)
        assert symbols.scope_of("main").lookup("x").type == REAL

    def test_store_value_type_checked(self):
        reject("""
            def main():
                d = {"a": 1}
                d["b"] = "nope"
        """, "cannot store a string")

    def test_iteration_yields_keys(self):
        source = SourceFile.from_string(textwrap.dedent("""
            def main():
                d = {1: "x"}
                for k in d:
                    y = k
        """))
        program = parse_source(source)
        symbols = check_program(program, source)
        assert symbols.scope_of("main").lookup("k").type == INT

    def test_dict_equality_same_type(self):
        accept('def main():\n    b = {1: 2} == {1: 3}\n')

    def test_dict_param_and_return(self):
        accept("""
            def invert(d {string: int}) {string: int}:
                return d

            def main():
                print(invert({"a": 1}))
        """)


class TestDeclarations:
    def test_empty_array_via_declaration(self):
        assert run("""
            def main():
                xs [int] = []
                print(len(xs))
        """) == ["0"]

    def test_empty_dict_via_declaration(self):
        assert run("""
            def main():
                d {string: int} = {}
                d["k"] = 7
                print(d)
        """) == ["{k: 7}"]

    def test_declared_real_widens_int(self):
        assert run("""
            def main():
                x real = 3
                print(x)
        """) == ["3.0"]

    def test_declaration_type_mismatch(self):
        reject('def main():\n    x int = "s"\n', "declared as int")

    def test_redeclaration_rejected(self):
        reject("def main():\n    x = 1\n    x int = 2\n", "already defined")

    def test_empty_array_plain_assignment_still_rejected(self):
        reject("def main():\n    xs = []\n", "empty array literal")

    def test_reassign_empty_to_known_array(self):
        # Once the type is established, plain `xs = []` resets it.
        assert run("""
            def main():
                xs = [1, 2]
                xs = []
                print(len(xs))
        """) == ["0"]

    def test_nested_container_declaration(self):
        assert run("""
            def main():
                table {string: [int]} = {}
                table["row"] = [1, 2, 3]
                print(table["row"][1])
        """) == ["2"]

    def test_index_with_array_literal_still_parses(self):
        # The one grammar collision: IDENT '[' '[' must fall back to an
        # expression when it is not a declaration.
        assert run("""
            def main():
                x = array(3, 0)
                x[[1, 2][0]] = 9
                print(x)
        """) == ["[0, 9, 0]"]


class TestDictRuntime:
    def test_basic_operations(self, any_backend):
        assert run("""
            def main():
                d = {"b": 2, "a": 1}
                d["c"] = 3
                d["a"] = 10
                print(d)
                print(len(d), " ", d["a"])
        """, backend=any_backend) == ["{a: 10, b: 2, c: 3}", "3 10"]

    def test_iteration_sorted(self, any_backend):
        assert run("""
            def main():
                d = {3: "three", 1: "one", 2: "two"}
                for k in d:
                    print(k, " ", d[k])
        """, backend=any_backend) == ["1 one", "2 two", "3 three"]

    def test_missing_key_error(self):
        with pytest.raises(TetraIndexError, match="no key"):
            run("""
                def main():
                    d = {"a": 1}
                    print(d["b"])
            """)

    def test_keys_values(self):
        assert run("""
            def main():
                d = {"b": 2, "a": 1}
                print(keys(d), " ", values(d))
        """) == ["[a, b] [1, 2]"]

    def test_has_key_get_or(self):
        assert run("""
            def main():
                d = {"a": 1}
                print(has_key(d, "a"), " ", has_key(d, "z"))
                print(get_or(d, "a", 0), " ", get_or(d, "z", -1))
        """) == ["true false", "1 -1"]

    def test_remove_key(self):
        assert run("""
            def main():
                d = {"a": 1, "b": 2}
                remove_key(d, "a")
                print(d)
        """) == ["{b: 2}"]

    def test_remove_missing_key_error(self):
        with pytest.raises(TetraIndexError, match="cannot remove"):
            run("""
                def main():
                    d = {"a": 1}
                    remove_key(d, "z")
            """)

    def test_copy_is_deep(self):
        assert run("""
            def main():
                a = {"xs": [1]}
                b = copy(a)
                b["xs"][0] = 9
                print(a["xs"], " ", b["xs"])
        """) == ["[1] [9]"]

    def test_dicts_share_by_reference(self):
        assert run("""
            def bump(d {string: int}):
                d["n"] = d["n"] + 1

            def main():
                d = {"n": 1}
                bump(d)
                print(d["n"])
        """) == ["2"]

    def test_dict_equality(self):
        assert run("""
            def main():
                print({1: 2} == {1: 2}, " ", {1: 2} == {1: 3})
        """) == ["true false"]

    def test_augmented_dict_element(self):
        assert run("""
            def main():
                d = {"n": 10}
                d["n"] += 5
                print(d["n"])
        """) == ["15"]

    def test_word_count_pattern(self, any_backend):
        # The canonical dict workload.
        assert run("""
            def main():
                words = split("the cat and the hat and the bat", " ")
                counts {string: int} = {}
                for w in words:
                    counts[w] = get_or(counts, w, 0) + 1
                print(counts)
        """, backend=any_backend) == ["{and: 2, bat: 1, cat: 1, hat: 1, the: 3}"]

    def test_dict_shared_across_parallel_threads(self):
        assert run("""
            def main():
                d = {"a": 0, "b": 0}
                parallel:
                    d["a"] = 1
                    d["b"] = 2
                print(d)
        """) == ["{a: 1, b: 2}"]


class TestTryCatchChecker:
    def test_catch_variable_is_string(self):
        source = SourceFile.from_string(textwrap.dedent("""
            def main():
                try:
                    x = 1
                catch e:
                    y = e
        """))
        program = parse_source(source)
        symbols = check_program(program, source)
        assert symbols.scope_of("main").lookup("e").type == STRING
        assert symbols.scope_of("main").lookup("y").type == STRING

    def test_catch_variable_conflict(self):
        reject("""
            def main():
                e = 5
                try:
                    x = 1
                catch e:
                    pass
        """, "already inferred as int")

    def test_try_without_catch_rejected(self):
        from repro.errors import TetraSyntaxError

        with pytest.raises(TetraSyntaxError, match="catch"):
            parse_source("def main():\n    try:\n        pass\n")

    def test_all_paths_return_through_try(self):
        accept("""
            def f() int:
                try:
                    return 1
                catch e:
                    return 2
        """)

    def test_try_body_alone_does_not_guarantee_return(self):
        reject("""
            def f() int:
                try:
                    return 1
                catch e:
                    x = 1
        """, "not every path")


class TestTryCatchRuntime:
    def test_catches_index_error(self, any_backend):
        assert run("""
            def main():
                xs = [1]
                try:
                    print(xs[5])
                catch e:
                    print("caught")
        """, backend=any_backend) == ["caught"]

    def test_catches_division_by_zero(self):
        assert run("""
            def main():
                z = 0
                try:
                    print(1 / z)
                catch e:
                    print(e)
        """) == ["integer division by zero"]

    def test_catches_user_error(self):
        assert run("""
            def main():
                try:
                    error("custom problem")
                catch e:
                    print("got: ", e)
        """) == ["got: custom problem"]

    def test_catches_assertion(self):
        assert run("""
            def main():
                try:
                    assert(false, "invariant broke")
                catch e:
                    print(e)
        """) == ["invariant broke"]

    def test_error_propagates_through_calls(self):
        assert run("""
            def deep(n int) int:
                if n == 0:
                    error("bottom")
                return deep(n - 1)

            def main():
                try:
                    print(deep(5))
                catch e:
                    print(e)
        """) == ["bottom"]

    def test_no_error_skips_handler(self):
        assert run("""
            def main():
                try:
                    print("fine")
                catch e:
                    print("never")
                print("after")
        """) == ["fine", "after"]

    def test_nested_try(self):
        assert run("""
            def main():
                try:
                    try:
                        error("inner")
                    catch a:
                        print("inner caught: ", a)
                        error("outer")
                catch b:
                    print("outer caught: ", b)
        """) == ["inner caught: inner", "outer caught: outer"]

    def test_uncaught_after_handler_runs(self):
        with pytest.raises(TetraRuntimeError, match="second"):
            run("""
                def main():
                    try:
                        error("first")
                    catch e:
                        error("second")
            """)

    def test_deadlock_not_catchable(self):
        # A deadlock diagnostic must never be swallowed by a student's try.
        with pytest.raises(TetraDeadlockError):
            run("""
                def main():
                    try:
                        lock a:
                            lock a:
                                pass
                    catch e:
                        print("should not catch this")
            """)

    def test_lock_released_when_error_escapes(self):
        assert run("""
            def risky():
                lock gate:
                    error("inside lock")

            def main():
                try:
                    risky()
                catch e:
                    pass
                lock gate:
                    print("lock was released")
        """) == ["lock was released"]

    def test_try_in_parallel_thread(self):
        assert run("""
            def main():
                parallel:
                    guard(1)
                    guard(0)

            def guard(n int):
                try:
                    print(10 / n)
                catch e:
                    print("division guarded")
        """, backend="sequential") == ["10", "division guarded"]


class TestCompiledExtensions:
    def test_dict_differential(self):
        differential("""
            def main():
                d = {"b": 2, "a": 1}
                d["c"] = 3
                remove_key(d, "b")
                print(d, " ", keys(d), " ", len(d))
                for k in d:
                    print(k, " -> ", d[k])
                print(get_or(d, "zz", -1), " ", has_key(d, "a"))
        """)

    def test_declaration_differential(self):
        differential("""
            def main():
                xs [real] = []
                d {int: string} = {}
                d[1] = "one"
                x real = 2
                print(len(xs), " ", d, " ", x)
        """)

    def test_try_catch_differential(self):
        differential("""
            def main():
                try:
                    xs = [1]
                    print(xs[9])
                catch e:
                    print("handled: ", e)
                try:
                    error("direct")
                catch e:
                    print(e)
        """)

    def test_word_count_differential(self):
        differential("""
            def main():
                counts {string: int} = {}
                for w in split("a b a c b a", " "):
                    counts[w] = get_or(counts, w, 0) + 1
                print(counts)
        """)


class TestUnparseExtensions:
    @pytest.mark.parametrize("text", [
        'def main():\n    d {string: int} = {}\n',
        'def main():\n    d = {1: "a", 2: "b"}\n',
        'def main():\n    xs [[real]] = []\n',
        ('def main():\n    try:\n        x = 1\n'
         '    catch e:\n        print(e)\n'),
        'def f(d {int: [string]}) {string: bool}:\n    return {"k": true}\n',
    ])
    def test_round_trip(self, text):
        program = parse_source(text)
        assert node_equal(program, parse_source(unparse(program)))
