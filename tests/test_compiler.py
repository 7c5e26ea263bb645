"""``tetra compile`` and the fast-path/walker differentials.

``tetra compile`` emits a standalone module that runs the program through
:func:`repro.api.run_source`, so ``python out.py`` must match ``tetra run``
on stdout, the rendered diagnostic and the exit code.  The differentials
run every program on the closure fast path and on the reference tree
walker, which must agree byte for byte.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
from conftest import walker_differential as differential
from repro.errors import TetraDeadlockError, TetraIndexError
from repro.programs import ALL_PROGRAMS
from repro.stdlib.io import CapturingIO
from repro.tools.cli import main

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


@pytest.fixture
def compiled(tmp_path):
    """Compile dedented Tetra text with ``tetra compile -o``; returns the
    emitted module's path and its namespace (``__main__`` not run)."""
    def build(text):
        src = tmp_path / "prog.ttr"
        src.write_text(textwrap.dedent(text))
        out = tmp_path / "prog.py"
        assert main(["compile", str(src), "-o", str(out)]) == 0
        namespace = {}
        exec(compile(out.read_text(), str(out), "exec"), namespace)
        return out, namespace

    return build


class TestGeneratedCode:
    def test_module_is_valid_python(self, compiled):
        out, _ = compiled(ALL_PROGRAMS["figure1_factorial"])
        compile(out.read_text(), "<test>", "exec")  # must not raise

    def test_module_exposes_run(self, compiled):
        _, namespace = compiled("def main():\n    print(1)\n")
        assert callable(namespace["run"])

    def test_run_twice_fresh_state(self, compiled):
        _, namespace = compiled("""
            def main():
                x = 0
                lock a:
                    x = 1
                print(x)
        """)
        first = CapturingIO()
        second = CapturingIO()
        namespace["run"](io=first)
        namespace["run"](io=second)
        assert first.output == second.output == "1\n"


class TestDifferentials:
    @pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
    def test_canonical_programs(self, name):
        differential(ALL_PROGRAMS[name], inputs=["6"])

    def test_numeric_torture(self):
        differential("""
            def main():
                print(7 / 2, " ", -7 / 2, " ", 7 % 3, " ", -7 % 3)
                print(2 ** 10, " ", 2 ** -1, " ", 2.5 ** 2)
                print(1 / 3, " ", 1.0 / 3.0)
                print(10 % 4, " ", 10.5 % 4.0)
        """)

    def test_string_handling(self):
        differential("""
            def main():
                s = "hello" + " " + "world"
                print(upper(s), " ", len(s))
                print(substring(s, 0, 5))
                print(split(s, " ")[1])
                print(s[4])
        """)

    def test_control_flow(self):
        differential("""
            def classify(n int) string:
                if n < 0:
                    return "neg"
                elif n == 0:
                    return "zero"
                else:
                    return "pos"

            def main():
                for n in [-2, 0, 7]:
                    print(classify(n))
                i = 0
                while true:
                    i += 1
                    if i > 3:
                        break
                print(i)
        """)

    def test_arrays_and_builtins(self):
        differential("""
            def main():
                xs = array(5, 1)
                fill(xs, 3)
                xs[2] = 10
                print(xs, " ", sum(xs), " ", largest(xs))
                print(sort([3, 1, 2]), " ", reversed([1, 2, 3]))
                print(index_of([5, 6], 6), " ", concat([1], [2]))
        """)

    def test_widening_consistency(self):
        differential("""
            def f(x real) real:
                return x / 2

            def main():
                r = 1.5
                r = 4
                print(r, " ", f(3))
                xs = [1.0]
                xs[0] = 7
                print(xs)
        """)

    def test_recursion(self):
        differential("""
            def ack(m int, n int) int:
                if m == 0:
                    return n + 1
                if n == 0:
                    return ack(m - 1, 1)
                return ack(m - 1, ack(m, n - 1))

            def main():
                print(ack(2, 3))
        """)

    def test_io_differential(self):
        differential("""
            def main():
                a = read_int()
                b = read_real()
                s = read_string()
                print(a, " ", b, " ", s)
        """, inputs=["3", "2.5", "words here"])

    def test_parallel_reduction(self):
        differential("""
            def main():
                total = 0
                parallel for i in [1 ... 100]:
                    lock total:
                        total += i
                print(total)
        """)


class TestCompiledRuntimeBehaviour:
    def test_runtime_errors_preserved(self, compiled):
        _, namespace = compiled("def main():\n    print([1][5])\n")
        with pytest.raises(TetraIndexError):
            namespace["run"](io=CapturingIO())

    def test_deadlock_detection_works_compiled(self, compiled):
        # Self re-entry is deterministic even with real threads.
        _, namespace = compiled("""
            def main():
                lock a:
                    lock a:
                        x = 1
        """)
        with pytest.raises(TetraDeadlockError, match="not re-entrant"):
            namespace["run"](io=CapturingIO())

    def test_worker_and_chunking_options(self, compiled):
        _, namespace = compiled("""
            def main():
                total = 0
                parallel for i in [1 ... 20]:
                    lock t:
                        total += i
                print(total)
        """)
        io = CapturingIO()
        namespace["run"](io=io, num_workers=3, chunking="cyclic")
        assert io.output == "210\n"

    def test_background_joined_at_exit(self, compiled):
        _, namespace = compiled("""
            def main():
                background:
                    print("late")
                print("early")
        """)
        io = CapturingIO()
        namespace["run"](io=io)
        assert sorted(io.lines()) == ["early", "late"]


#: Programs whose diagnostics come from the walker's checks: the error
#: column, failure aggregation across threads, the recursion limit and
#: lock re-entry.  The emitted module must match ``tetra run`` on each.
PROBES = {
    "index_column": """
        def main():
            xs = [1, 2, 3]
            i = 5
            print(xs[i])
    """,
    "two_failing_threads": """
        def main():
            parallel:
                x = [1][3]
                y = 1 / 0
    """,
    "parallel_for_division_by_zero": """
        def main():
            total = 0
            parallel for i in [0 ... 3]:
                lock t:
                    total += 12 / i
            print(total)
    """,
    "recursion_limit": """
        def f(n int) int:
            if n == 0:
                return 0
            return 1 + f(n - 1)

        def main():
            print(f(5000))
    """,
    "lock_reentry": """
        def main():
            lock a:
                lock a:
                    print(1)
    """,
}


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=120, env=env)
    return done.stdout, done.stderr, done.returncode


class TestCompiledMatchesRun:
    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_module_matches_tetra_run(self, name, compiled):
        out, _ = compiled(PROBES[name])
        prog = str(out.with_suffix(".ttr"))
        expected = _python("-m", "repro.tools.cli", "run", prog)
        assert expected[2] != 0 and prog in expected[1]
        assert _python(str(out)) == expected

    def test_type_errors_fail_the_compile(self, tmp_path, capsys):
        src = tmp_path / "bad.ttr"
        src.write_text('def main():\n    x = 1 + "a"\n    y int = "s"\n')
        out = tmp_path / "bad.py"
        assert main(["compile", str(src), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bad.ttr:2:9: type error" in err
        assert "bad.ttr:3:5: type error" in err
        assert not out.exists()
