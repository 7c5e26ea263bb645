"""Tests for the ``class`` statement — the last item of the paper's §VI.

Classes are nominal record types with typed fields, an implicit positional
constructor, implicit-``self`` methods, and no inheritance (LANGUAGE.md).
Covered here: checker rules, runtime semantics on every backend,
fast-path vs walker differentials, unparse round trips, and interaction
with the other extensions (tuples, dicts, try/catch).
"""

import textwrap

import pytest

from conftest import run, walker_differential as differential
from repro.errors import TetraSyntaxError
from repro.parser import parse_source
from repro.source import SourceFile
from repro.tetra_ast import node_equal, unparse
from repro.types import ClassType, INT, REAL, check_program, collect_diagnostics

POINT = """
class Point:
    x int
    y int

    def magnitude() real:
        return sqrt(real(self.x * self.x + self.y * self.y))

    def shifted(dx int, dy int) Point:
        return Point(self.x + dx, self.y + dy)
"""


def with_point(body: str) -> str:
    """POINT (column 0) + a dedented body — safe to concatenate."""
    return POINT + textwrap.dedent(body)


def errors_of(text: str) -> list[str]:
    text = textwrap.dedent(text)
    source = SourceFile.from_string(text)
    return [e.message for e in collect_diagnostics(parse_source(source), source)]


def reject(text: str, match: str):
    msgs = errors_of(text)
    assert any(match in m for m in msgs), msgs


def accept(text: str):
    assert errors_of(text) == []


class TestClassChecker:
    def test_constructor_type(self):
        source = SourceFile.from_string(with_point("""
            def main():
                p = Point(1, 2)
        """))
        program = parse_source(source)
        symbols = check_program(program, source)
        assert symbols.scope_of("main").lookup("p").type == ClassType("Point")
        assert symbols.classes["Point"].field_names == ("x", "y")

    def test_field_types_recorded(self):
        source = SourceFile.from_string(with_point("""
            def main():
                pass
        """))
        program = parse_source(source)
        symbols = check_program(program, source)
        info = symbols.classes["Point"]
        assert info.field_type("x") == INT
        assert info.field_type("missing") is None
        assert info.methods["magnitude"].return_type == REAL

    def test_constructor_arity(self):
        reject(with_point("""
            def main():
                p = Point(1)
        """), "has 2 field(s)")

    def test_constructor_field_types(self):
        reject(with_point("""
            def main():
                p = Point(1, "two")
        """), "field 'y' of 'Point' is a int")

    def test_attribute_types(self):
        reject(with_point("""
            def main():
                p = Point(1, 2)
                p.x = "no"
        """), "field 'x' is a int")

    def test_unknown_field(self):
        reject(with_point("""
            def main():
                p = Point(1, 2)
                print(p.z)
        """), "no field 'z'")

    def test_method_read_without_call_hints(self):
        reject(with_point("""
            def main():
                p = Point(1, 2)
                x = p.magnitude
        """), "did you mean to call it")

    def test_field_called_as_method_hints(self):
        reject(with_point("""
            def main():
                p = Point(1, 2)
                x = p.x()
        """), "fields are read without parentheses")

    def test_method_arity_and_types(self):
        reject(with_point("""
            def main():
                q = Point(0, 0).shifted(1)
        """), "takes 2 argument(s)")
        reject(with_point("""
            def main():
                q = Point(0, 0).shifted("a", 1)
        """), "must be a int")

    def test_attribute_on_non_object(self):
        reject("""
            def main():
                x = 5
                print(x.value)
        """, "has no fields")

    def test_unknown_class_type_annotation(self):
        reject("""
            def f(p Widget):
                pass

            def main():
                pass
        """, "no class named 'Widget'")

    def test_duplicate_class(self):
        reject("""
            class A:
                x int

            class A:
                y int

            def main():
                pass
        """, "defined more than once")

    def test_class_function_name_conflict(self):
        reject("""
            class thing:
                x int

            def thing() int:
                return 1

            def main():
                pass
        """, "already a class name")

    def test_duplicate_field(self):
        reject("""
            class A:
                x int
                x real

            def main():
                pass
        """, "repeats a field name")

    def test_explicit_self_parameter_rejected(self):
        reject("""
            class A:
                x int

                def m(self A) int:
                    return 1

            def main():
                pass
        """, "'self' is implicit")

    def test_method_return_paths_checked(self):
        reject("""
            class A:
                x int

                def m() int:
                    if self.x > 0:
                        return 1

            def main():
                pass
        """, "not every path")

    def test_classes_can_reference_each_other(self):
        accept("""
            class Segment:
                a Point
                b Point

            class Point:
                x int
                y int

            def main():
                s = Segment(Point(0, 0), Point(1, 1))
                print(s.b.x)
        """)

    def test_empty_class_with_pass(self):
        with pytest.raises(TetraSyntaxError):
            # fields or methods are required syntactically only via pass
            parse_source("class E:\n")
        accept("""
            class E:
                pass

            def main():
                e = E()
                print(e)
        """)


class TestClassRuntime:
    def test_construct_access_mutate(self, any_backend):
        assert run(with_point("""
            def main():
                p = Point(3, 4)
                print(p.x, " ", p.y)
                p.x = 6
                p.y += 4
                print(p)
        """), backend=any_backend) == ["3 4", "Point(x: 6, y: 8)"]

    def test_methods(self, any_backend):
        assert run(with_point("""
            def main():
                p = Point(3, 4)
                print(p.magnitude())
                print(p.shifted(1, 2))
        """), backend=any_backend) == ["5.0", "Point(x: 4, y: 6)"]

    def test_method_chaining(self):
        assert run(with_point("""
            def main():
                print(Point(0, 0).shifted(1, 1).shifted(2, 2))
        """)) == ["Point(x: 3, y: 3)"]

    def test_objects_passed_by_reference(self):
        assert run(with_point("""
            def zero(p Point):
                p.x = 0
                p.y = 0

            def main():
                p = Point(9, 9)
                zero(p)
                print(p)
        """)) == ["Point(x: 0, y: 0)"]

    def test_copy_is_deep(self):
        assert run(with_point("""
            def main():
                a = Point(1, 2)
                b = copy(a)
                b.x = 99
                print(a.x, " ", b.x)
        """)) == ["1 99"]

    def test_structural_equality(self):
        assert run(with_point("""
            def main():
                print(Point(1, 2) == Point(1, 2))
                print(Point(1, 2) == Point(1, 3))
        """)) == ["true", "false"]

    def test_field_widening(self):
        assert run("""
            class Reading:
                value real

            def main():
                r = Reading(3)
                print(r.value)
                r.value = 4
                print(r.value)
        """) == ["3.0", "4.0"]

    def test_objects_in_arrays(self):
        assert run(with_point("""
            def main():
                pts = [Point(1, 1), Point(2, 2)]
                pts[1].x = 9
                print(pts)
        """)) == ["[Point(x: 1, y: 1), Point(x: 9, y: 2)]"]

    def test_nested_objects(self):
        assert run("""
            class Inner:
                v int

            class Outer:
                inner Inner

            def main():
                o = Outer(Inner(5))
                o.inner.v += 1
                print(o, " ", o.inner.v)
        """) == ["Outer(inner: Inner(v: 6)) 6"]

    def test_methods_calling_methods(self):
        assert run(with_point("""
            def main():
                p = Point(1, 1)
                q = p.shifted(2, 3)
                print(q.magnitude())
        """)) == ["5.0"]

    def test_recursive_method(self):
        assert run("""
            class Counter:
                n int

                def countdown() int:
                    if self.n <= 0:
                        return 0
                    self.n -= 1
                    return 1 + self.countdown()

            def main():
                c = Counter(5)
                print(c.countdown(), " ", c.n)
        """) == ["5 0"]

    def test_objects_with_tuples_and_dicts(self):
        assert run("""
            class Record:
                tags {string: int}
                span (int, int)

            def main():
                r = Record({"a": 1}, (2, 5))
                r.tags["b"] = 2
                lo, hi = r.span
                print(r.tags, " ", lo, " ", hi)
        """) == ["{a: 1, b: 2} 2 5"]

    def test_objects_shared_across_threads(self, any_backend):
        assert run(with_point("""
            def main():
                p = Point(0, 0)
                parallel:
                    p.x = 1
                    p.y = 2
                print(p)
        """), backend=any_backend) == ["Point(x: 1, y: 2)"]

    def test_try_catch_with_method_errors(self):
        assert run("""
            class Divider:
                denom int

                def apply(v int) int:
                    return v / self.denom

            def main():
                d = Divider(0)
                try:
                    print(d.apply(10))
                catch e:
                    print("caught: ", e)
        """) == ["caught: integer division by zero"]

    def test_whitespace_disambiguation(self):
        # `xs[i] = v` indexes; `p Point = ...` declares.
        assert run(with_point("""
            def main():
                xs = [1, 2]
                i = 0
                xs[i] = 9
                p Point = Point(1, 1)
                print(xs, " ", p.x)
        """)) == ["[9, 2] 1"]


class TestClassCompiled:
    def test_full_differential(self):
        differential(with_point("""
            def main():
                p = Point(3, 4)
                print(p.magnitude())
                q = p.shifted(1, 1)
                q.x += 10
                print(q, " ", p == Point(3, 4))
                pts = [Point(0, 0), q]
                pts[0].y = 7
                print(pts)
        """))

    def test_mutual_reference_differential(self):
        differential("""
            class Node:
                value int

            class Pair:
                left Node
                right Node

                def total() int:
                    return self.left.value + self.right.value

            def main():
                pair = Pair(Node(1), Node(2))
                print(pair.total())
        """)


class TestClassUnparse:
    @pytest.mark.parametrize("text", [
        POINT.strip("\n") + "\n",
        "class E:\n    pass\n",
        ("class A:\n    x int\n\n"
         "    def get() int:\n        return self.x\n\n"
         "def main():\n    print(A(1).get())\n"),
    ])
    def test_round_trip(self, text):
        program = parse_source(textwrap.dedent(text))
        assert node_equal(program, parse_source(unparse(program)))

    def test_unparse_attribute_and_method_call(self):
        text = "def main():\n    print(p.x + p.m(1)[0].y)\n"
        program = parse_source(text)
        assert "p.x + p.m(1)[0].y" in unparse(program)
