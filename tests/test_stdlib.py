"""Standard-library tests: every builtin's happy path and error paths.

Most run through real Tetra programs so the registry's two halves (type
rule + implementation) are exercised together.
"""

import pytest

from conftest import run
from repro.errors import (
    TetraAssertionError,
    TetraIndexError,
    TetraIOError,
    TetraRuntimeError,
)
from repro.stdlib.io import CapturingIO
from repro.stdlib.registry import BUILTINS, catalog


def expr(text: str, setup: str = "") -> str:
    lines = [f"    {line}" for line in setup.split("\n") if line]
    body = "\n".join(lines)
    src = f"def main():\n{body}\n    print({text})\n"
    return run(src)[0]


class TestRegistry:
    def test_catalog_is_sorted_and_complete(self):
        cat = catalog()
        assert len(cat) == len(BUILTINS)
        assert all(b.doc for b in cat), "every builtin must be documented"

    def test_expected_builtins_present(self):
        expected = {
            "print", "read_int", "read_real", "read_string", "read_bool",
            "len", "str", "int", "real", "array", "copy", "assert",
            "clock", "sleep",
            "sqrt", "sin", "cos", "exp", "log", "floor", "ceil", "round",
            "abs", "min", "max", "pi",
            "substring", "find", "contains", "upper", "lower", "trim",
            "replace", "split", "join", "starts_with", "ends_with",
            "char_code", "char_from_code",
            "sum", "smallest", "largest", "sort", "reversed", "fill",
            "index_of", "concat",
        }
        assert expected <= set(BUILTINS)

    def test_duplicate_registration_rejected(self):
        from repro.stdlib.registry import Builtin, register

        with pytest.raises(ValueError, match="twice"):
            register(Builtin("len", lambda t: None, lambda a, io, s: None))


class TestConversions:
    def test_str_of_everything(self):
        assert expr('str(42) + str(1.5) + str(true) + str("x")') == "421.5truex"

    def test_str_of_array(self):
        assert expr("str([1, 2])") == "[1, 2]"

    def test_int_truncates_toward_zero(self):
        assert expr("int(2.9)") == "2"
        assert expr("int(-2.9)") == "-2"

    def test_int_of_string(self):
        assert expr('int("  -17 ")') == "-17"

    def test_int_of_bool(self):
        assert expr("int(true) + int(false)") == "1"

    def test_int_of_bad_string(self):
        with pytest.raises(TetraRuntimeError, match="cannot parse"):
            expr('int("twelve")')

    def test_real_of_int_and_string(self):
        assert expr("real(2)") == "2.0"
        assert expr('real("2.5")') == "2.5"

    def test_real_of_bad_string(self):
        with pytest.raises(TetraRuntimeError, match="cannot parse"):
            expr('real("pi")')


class TestArrayBuiltins:
    def test_array_constructor(self):
        assert expr('array(3, "x")') == "[x, x, x]"

    def test_array_zero_length(self):
        assert expr("len(array(0, 1))") == "0"

    def test_array_negative_length(self):
        with pytest.raises(TetraRuntimeError, match=">= 0"):
            expr("array(-1, 0)")

    def test_array_copies_initial_value(self):
        # Rows of a matrix built with array() must be independent.
        assert run("""
            def main():
                m = array(2, array(2, 0))
                m[0][0] = 9
                print(m)
        """) == ["[[9, 0], [0, 0]]"]

    def test_array_of_scalars_has_independent_slots(self):
        # Scalars fill the array by reference (they are immutable);
        # storing into one slot must leave the others alone.
        assert run("""
            def main():
                xs = array(3, 0)
                ys = array(2, true)
                zs = array(2, 1.5)
                xs[1] = 5
                ys[0] = false
                zs[1] += 1.0
                print(xs, ys, zs)
        """) == ["[0, 5, 0][false, true][1.5, 2.5]"]

    def test_copy_is_deep(self):
        assert run("""
            def main():
                a = [[1], [2]]
                b = copy(a)
                b[0][0] = 9
                print(a, " ", b)
        """) == ["[[1], [2]] [[9], [2]]"]

    def test_sum_int_and_real(self):
        assert expr("sum([1, 2, 3])") == "6"
        assert expr("sum([1.5, 2.5])") == "4.0"

    def test_smallest_largest(self):
        assert expr("smallest([3, 1, 2])") == "1"
        assert expr("largest([3, 1, 2])") == "3"
        assert expr('largest(["a", "c", "b"])') == "c"

    def test_smallest_of_empty(self):
        with pytest.raises(TetraRuntimeError, match="empty"):
            expr("smallest(array(0, 1))")

    def test_sort_returns_new_array(self):
        assert run("""
            def main():
                a = [3, 1, 2]
                b = sort(a)
                print(a, " ", b)
        """) == ["[3, 1, 2] [1, 2, 3]"]

    def test_reversed(self):
        assert expr("reversed([1, 2, 3])") == "[3, 2, 1]"

    def test_fill_mutates_and_widens(self):
        assert run("""
            def main():
                xs = [1.5, 2.5]
                fill(xs, 3)
                print(xs)
        """) == ["[3.0, 3.0]"]

    def test_index_of_found_and_missing(self):
        assert expr("index_of([5, 6, 7], 6)") == "1"
        assert expr("index_of([5], 9)") == "-1"

    def test_concat(self):
        assert expr("concat([1, 2], [3])") == "[1, 2, 3]"


class TestMathBuiltins:
    def test_sqrt(self):
        assert expr("sqrt(9)") == "3.0"

    def test_sqrt_negative(self):
        with pytest.raises(TetraRuntimeError, match="not defined"):
            expr("sqrt(-1)")

    def test_trig_identity(self):
        assert run("""
            def main():
                x = 0.7
                v = sin(x) * sin(x) + cos(x) * cos(x)
                print(abs(v - 1.0) < 0.0000001)
        """) == ["true"]

    def test_exp_log_roundtrip(self):
        assert run("""
            def main():
                print(abs(log(exp(2.0)) - 2.0) < 0.0000001)
        """) == ["true"]

    def test_log_of_zero(self):
        with pytest.raises(TetraRuntimeError, match="not defined"):
            expr("log(0.0)")

    def test_floor_ceil(self):
        assert expr("floor(2.7)") == "2"
        assert expr("floor(-2.1)") == "-3"
        assert expr("ceil(2.1)") == "3"
        assert expr("ceil(-2.7)") == "-2"

    def test_round_ties_away_from_zero(self):
        assert expr("round(2.5)") == "3"
        assert expr("round(-2.5)") == "-3"
        assert expr("round(2.4)") == "2"

    def test_abs(self):
        assert expr("abs(-5)") == "5"
        assert expr("abs(-5.5)") == "5.5"

    def test_min_max_preserve_kind(self):
        assert expr("min(2, 3)") == "2"
        assert expr("max(2, 3)") == "3"
        assert expr("min(2, 3.0)") == "2.0"  # promotion to real

    def test_pi(self):
        assert expr("pi() > 3.14 and pi() < 3.15") == "true"

    def test_atan2(self):
        assert expr("abs(atan2(1.0, 1.0) - pi() / 4.0) < 0.0000001") == "true"


class TestStringBuiltins:
    def test_substring(self):
        assert expr('substring("hello", 1, 4)') == "ell"
        assert expr('substring("hello", 0, 0) + "!"') == "!"

    def test_substring_bounds(self):
        with pytest.raises(TetraIndexError, match="out of range"):
            expr('substring("hi", 0, 5)')

    def test_find_and_contains(self):
        assert expr('find("banana", "na")') == "2"
        assert expr('find("banana", "xyz")') == "-1"
        assert expr('contains("banana", "nan")') == "true"

    def test_case_functions(self):
        assert expr('upper("MiXed")') == "MIXED"
        assert expr('lower("MiXed")') == "mixed"

    def test_trim(self):
        assert expr('trim("  pad  ") + "!"') == "pad!"

    def test_replace(self):
        assert expr('replace("a-b-c", "-", "+")') == "a+b+c"

    def test_replace_empty_needle(self):
        with pytest.raises(TetraRuntimeError, match="empty"):
            expr('replace("x", "", "y")')

    def test_split_and_join(self):
        assert expr('split("a,b,c", ",")') == "[a, b, c]"
        assert expr('join(["x", "y"], "-")') == "x-y"

    def test_split_empty_separator(self):
        with pytest.raises(TetraRuntimeError, match="not be empty"):
            expr('split("ab", "")')

    def test_starts_ends_with(self):
        assert expr('starts_with("tetra", "tet")') == "true"
        assert expr('ends_with("tetra", "ra")') == "true"
        assert expr('starts_with("tetra", "ra")') == "false"

    def test_char_codes(self):
        assert expr('char_code("A")') == "65"
        assert expr("char_from_code(66)") == "B"

    def test_char_code_wrong_length(self):
        with pytest.raises(TetraRuntimeError, match="one character"):
            expr('char_code("AB")')

    def test_char_from_code_invalid(self):
        with pytest.raises(TetraRuntimeError, match="not a valid"):
            expr("char_from_code(-1)")


class TestAssertClockSleep:
    def test_assert_passes(self):
        assert run("""
            def main():
                assert(1 + 1 == 2)
                print("ok")
        """) == ["ok"]

    def test_assert_fails_with_message(self):
        with pytest.raises(TetraAssertionError, match="broke the law"):
            run("""
                def main():
                    assert(false, "broke the law")
            """)

    def test_assert_default_message(self):
        with pytest.raises(TetraAssertionError, match="assertion failed"):
            run("""
                def main():
                    assert(1 == 2)
            """)

    def test_clock_is_monotonic(self):
        assert run("""
            def main():
                a = clock()
                b = clock()
                print(b >= a)
        """) == ["true"]

    def test_sleep_rejects_negative(self):
        with pytest.raises(TetraRuntimeError, match="non-negative"):
            run("""
                def main():
                    sleep(-1.0)
            """)


class TestCapturingIO:
    def test_push_input(self):
        io = CapturingIO()
        io.push_input("42")
        assert io.read_line() == "42"

    def test_exhausted_input_raises(self):
        with pytest.raises(TetraIOError):
            CapturingIO().read_line()

    def test_lines_and_clear(self):
        io = CapturingIO()
        io.write("a\nb\n")
        assert io.lines() == ["a", "b"]
        io.clear()
        assert io.output == ""

    def test_empty_lines(self):
        assert CapturingIO().lines() == []
