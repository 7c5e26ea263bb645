"""The native compiled tier: Tetra→C kernels (``repro.compiler.native``).

Three groups:

* toolchain-free tests (eligibility decisions, mode gating, the
  program-cache key, graceful degradation without a C compiler) — these
  run everywhere, including CI boxes with no ``cc``;
* differential tests (walker vs. native on the same program, including
  error messages, reductions under every chunking policy, and the
  observability surface) — skipped when no compiler is present;
* artifact-cache tests (reuse across runs, corrupt-file recovery).
"""

from __future__ import annotations

import importlib.util
import os
import textwrap
import time

import pytest

import repro.compiler.native as native
from repro.api import (
    cached_program,
    clear_program_cache,
    program_cache_info,
    run_source,
)
from repro.errors import TetraLimitError, TetraNativeError
from repro.runtime.backend import RuntimeConfig

HAS_CFFI = importlib.util.find_spec("cffi") is not None
HAS_CC = native.find_compiler() is not None
needs_cc = pytest.mark.skipif(
    not (HAS_CC and HAS_CFFI),
    reason="no C toolchain (compiler + cffi) on this machine")
needs_cffi = pytest.mark.skipif(
    not HAS_CFFI, reason="cffi is not installed")


@pytest.fixture(autouse=True)
def native_sandbox(tmp_path, monkeypatch):
    """Isolate every test: its own artifact-cache dir, a cold program
    cache, and no shared in-memory native modules."""
    monkeypatch.setenv("TETRA_NATIVE_CACHE", str(tmp_path / "native-cache"))
    clear_program_cache()
    native._reset_for_tests()
    yield
    clear_program_cache()
    native._reset_for_tests()


def run(text, native_mode="require", **kwargs):
    return run_source(textwrap.dedent(text), native=native_mode, **kwargs)


def differential(text, num_workers=None, chunking=None, **kwargs):
    """Run dedented source on the walker and the native tier; both must
    agree on output (or raise the same rendered error)."""
    text = textwrap.dedent(text)
    if num_workers is not None or chunking is not None:
        kwargs["config"] = RuntimeConfig(
            num_workers=num_workers, chunking=chunking or "block")

    def one(mode):
        try:
            return ("ok", run_source(text, native=mode, **kwargs).output)
        except Exception as exc:  # noqa: BLE001 — compared, not hidden
            return ("err", f"{type(exc).__name__}: {exc}")

    walker = one("off")
    compiled = one("require")
    assert walker == compiled, (
        f"walker and native tier disagree:\n  walker: {walker}"
        f"\n  native: {compiled}")
    return walker


# ----------------------------------------------------------------------
# Toolchain-free: modes, gating, and the program-cache key
# ----------------------------------------------------------------------
class TestModes:
    def test_native_is_off_by_default(self):
        result = run_source("def main():\n    print(1 + 1)\n", metrics=True)
        assert result.metrics.native is None

    def test_invalid_mode_is_rejected(self):
        with pytest.raises(ValueError):
            run_source("def main():\n    print(1)\n", native="fast")
        with pytest.raises(ValueError):
            RuntimeConfig(native="yes")

    @needs_cffi
    def test_auto_without_a_toolchain_degrades_with_a_notice(
            self, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        result = run_source("def main():\n    print(6 * 7)\n",
                            native="auto", metrics=True)
        assert result.output == "42\n"
        info = result.metrics.native
        assert info is not None and not info["enabled"]
        assert "no C compiler" in info["notice"]
        assert "no C compiler" in result.metrics.render()

    @needs_cffi
    def test_require_without_a_toolchain_raises(self, monkeypatch):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        with pytest.raises(TetraNativeError, match="no C compiler"):
            run_source("def main():\n    print(1)\n", native="require")

    def test_require_with_race_detection_raises(self):
        # detect_races rewrites every shared access; compiled kernels
        # would run unobserved, so the tier refuses the combination.
        with pytest.raises(TetraNativeError, match="race detection"):
            run_source("def main():\n    print(1)\n",
                       native="require", detect_races=True)

    def test_auto_with_race_detection_falls_back_silently(self):
        result = run_source("def main():\n    print(1)\n",
                            native="auto", detect_races=True, metrics=True)
        assert result.output == "1\n"
        assert not result.metrics.native["enabled"]

    def test_program_cache_key_includes_the_native_flag(self):
        """Regression: native runs annotate the tree (loop kernels) and
        swap function invokers, so a tree compiled for a plain run must
        never be served to a native run or vice versa."""
        src = "def main():\n    print(3)\n"
        assert run_source(src).output == "3\n"
        assert run_source(src, native="auto").output == "3\n"
        info = program_cache_info()
        assert info["misses"] == 2 and info["hits"] == 0
        # ...but two native runs share one variant.
        assert run_source(src, native="auto").output == "3\n"
        assert program_cache_info()["hits"] == 1


# ----------------------------------------------------------------------
# Toolchain-free: eligibility (lower_program never invokes a compiler)
# ----------------------------------------------------------------------
ELIGIBILITY = """
def square(x int) int:
    return x * x

def fact(n int) int:
    if n <= 1:
        return 1
    return n * fact(n - 1)

def greet(name string) string:
    return name

def local_array(n int) int:
    xs = [0 ... n]
    return len(xs)

def shout(x int):
    print(x)

def main():
    print(square(4))
"""


class TestEligibility:
    def lowering(self, text):
        program, _source = cached_program(textwrap.dedent(text))
        return native.lower_program(program, program.symbols)

    def test_numeric_functions_lower_and_others_report_why(self):
        low = self.lowering(ELIGIBILITY)
        assert "square" in low.functions
        reasons = {r for _line, r in low.fallbacks}
        assert any("recursion" in r for r in reasons)
        assert any("greet" in r for r in reasons)
        assert any("local_array" in r for r in reasons)
        assert any("print" in r for r in reasons)

    def test_mutual_recursion_is_rejected(self):
        low = self.lowering("""
        def even(n int) bool:
            if n == 0:
                return true
            return odd(n - 1)

        def odd(n int) bool:
            if n == 0:
                return false
            return even(n - 1)

        def main():
            print(even(10))
        """)
        assert not low.functions
        cycle_reasons = [r for _line, r in low.fallbacks
                         if "'even'" in r or "'odd'" in r]
        assert cycle_reasons
        assert all("recursion" in r for r in cycle_reasons)

    def test_reduction_loop_plans_into_a_kernel(self):
        low = self.lowering("""
        def main():
            total = 0
            parallel for i in [1 ... 100]:
                lock t:
                    total += i
            print(total)
        """)
        assert len(low.loops) == 1
        _node, meta = low.loops[0]
        assert [(n, op) for n, op, _ty in meta.reductions] == \
            [("total", "sum")]

    def test_non_reduction_scalar_write_is_rejected(self):
        low = self.lowering("""
        def main():
            last = 0
            parallel for i in [1 ... 10]:
                last = i
            print(last)
        """)
        assert not low.loops
        assert low.fallbacks

    def test_lowering_is_deterministic(self):
        a = self.lowering(ELIGIBILITY)
        clear_program_cache()
        b = self.lowering(ELIGIBILITY)
        assert a.c_source == b.c_source and a.key == b.key


# ----------------------------------------------------------------------
# Differential: walker vs. native on real programs
# ----------------------------------------------------------------------
@needs_cc
class TestDifferential:
    def test_scalar_math_and_control_flow(self):
        kind, out = differential("""
        def collatz_len(n int) int:
            steps = 0
            while n != 1:
                if n % 2 == 0:
                    n = n / 2
                else:
                    n = 3 * n + 1
                steps += 1
            return steps

        def main():
            total = 0
            for n in [1 ... 50]:
                total += collatz_len(n)
            print(total)
        """)
        assert kind == "ok"

    def test_real_arithmetic_and_builtins(self):
        kind, _ = differential("""
        def norm(xs [real]) real:
            total = 0.0
            i = 0
            while i < len(xs):
                total += xs[i] * xs[i]
                i += 1
            return sqrt(total)

        def main():
            xs = [3.0, -4.0, 12.0]
            print(norm(xs))
            print(floor(-2.5))
            print(ceil(2.25))
            print(round(7.5))
            print(abs(-9))
            print(min(3, 11))
            print(max(2.5, -8.0))
        """)
        assert kind == "ok"

    def test_functions_mutate_arrays_in_place(self):
        differential("""
        def double_all(xs [int]):
            i = 0
            while i < len(xs):
                xs[i] = xs[i] * 2
                i += 1

        def main():
            xs = [1, 2, 3, 4]
            double_all(xs)
            print(xs[0])
            print(xs[3])
        """)

    def test_bool_parameters_and_returns(self):
        differential("""
        def both(a bool, b bool) bool:
            return a and b

        def main():
            print(both(true, true))
            print(both(true, false))
        """)

    def test_runtime_errors_render_identically(self):
        for snippet in [
            "print(10 / den)",          # integer division by zero
            "print(10 % den)",          # integer modulo by zero
            "print(xs[7])",             # index out of range
        ]:
            kind, message = differential(f"""
            def main():
                den = 0
                xs = [1, 2, 3]
                {snippet}
            """)
            assert kind == "err", message

    def test_huge_arguments_fall_back_to_python(self):
        # 2**70 does not fit the C ABI; the invoker must delegate to the
        # fast path rather than truncate.
        kind, out = differential("""
        def half(x int) int:
            return x / 2

        def main():
            big = 1
            for i in [1 ... 70]:
                big = big * 2
            print(half(big))
        """)
        assert kind == "ok" and out == f"{2 ** 69}\n"

    def test_range_up_to_int64_max_terminates(self):
        kind, out = differential("""
        def count_to_top(n int) int:
            s = 0
            for i in [n ... 9223372036854775807]:
                s += 1
            return s

        def main():
            print(count_to_top(9223372036854775805))
        """)
        assert kind == "ok" and out == "3\n"

    @pytest.mark.parametrize("chunking", ["block", "cyclic", "dynamic"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_sum_reduction_across_policies(self, chunking, workers):
        cfg = dict(num_workers=workers, chunking=chunking)
        kind, out = differential("""
        def main():
            total = 0
            parallel for i in [1 ... 500]:
                lock t:
                    total += i * i
            print(total)
        """, **cfg)
        assert kind == "ok"
        assert out == f"{sum(i * i for i in range(1, 501))}\n"

    def test_min_max_reductions(self):
        kind, out = differential("""
        def main():
            lo = 1000000
            hi = -1000000
            parallel for n in [13, 2, 88, -5, 41, 7]:
                lock m:
                    if n < lo:
                        lo = n
                    if n > hi:
                        hi = n
            print(lo)
            print(hi)
        """, num_workers=3)
        assert kind == "ok" and out == "-5\n88\n"

    def test_parallel_array_writes_merge(self):
        kind, out = differential("""
        def main():
            out = [0 ... 63]
            parallel for i in [0 ... 63]:
                out[i] = i * i
            total = 0
            for i in [0 ... 63]:
                total += out[i]
            print(total)
        """, num_workers=4)
        assert kind == "ok"
        assert out == f"{sum(i * i for i in range(64))}\n"

    def test_native_calls_inside_parallel_kernels(self):
        kind, out = differential("""
        def is_prime(n int) bool:
            if n < 2:
                return false
            d = 2
            while d * d <= n:
                if n % d == 0:
                    return false
                d += 1
            return true

        def main():
            count = 0
            parallel for n in [2 ... 1000]:
                if is_prime(n):
                    lock c:
                        count += 1
            print(count)
        """, num_workers=2)
        assert kind == "ok" and out == "168\n"


# ----------------------------------------------------------------------
# `parallel for v in [a ... b]`: the kernel gets the bounds, not a list
# ----------------------------------------------------------------------
@pytest.fixture
def offloads(monkeypatch):
    """(type of the items handed to the kernel, whether it ran) per
    native ``parallel for`` dispatch."""
    seen = []
    original = native.NativeRun.try_parallel_for

    def spy(self, interp, stmt, items, ctx):
        ran = original(self, interp, stmt, items, ctx)
        seen.append((type(items).__name__, ran))
        return ran

    monkeypatch.setattr(native.NativeRun, "try_parallel_for", spy)
    return seen


def range_parity(text, workers=2, chunking="block"):
    """Run ``text`` on the tree walker with native off, then natively from
    both executors (fast path and walker).  All three must print the same;
    returns that output and the native fast-path run's metrics."""
    text = textwrap.dedent(text)

    def config():
        return RuntimeConfig(num_workers=workers, chunking=chunking)

    walker = run_source(text, native="off", fast=False,
                        config=config()).output
    fast = run_source(text, native="require", config=config(), metrics=True)
    slow = run_source(text, native="require", fast=False,
                      config=config()).output
    assert fast.output == walker, (walker, fast.output)
    assert slow == walker, (walker, slow)
    return walker, fast.metrics.native


@needs_cc
class TestRangeRoute:
    PARTITION = """
    def main():
        total = 0
        lo = 1000000
        hi = -1000000
        seen = array(48, 0)
        parallel for i in [-7 ... 40]:
            seen[i + 7] = seen[i + 7] + i * 10 + 1
            lock t:
                total += i * i - 3 * i
            if i < lo:
                lock lo:
                    if i < lo:
                        lo = i
            if i > hi:
                lock hi:
                    if i > hi:
                        hi = i
        print(total)
        print(lo)
        print(hi)
        print(seen)
    """

    @pytest.mark.parametrize("chunking", ["block", "cyclic", "dynamic"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_policy_visits_each_item_once(self, chunking, workers,
                                                offloads):
        out, info = range_parity(self.PARTITION, workers, chunking)
        items = range(-7, 41)
        assert out.splitlines()[:3] == [
            str(sum(i * i - 3 * i for i in items)), "-7", "40"]
        assert out.splitlines()[3] == \
            "[" + ", ".join(str(i * 10 + 1) for i in items) + "]"
        # Both native executors handed the kernel a range, and it ran.
        assert offloads == [("range", True)] * 2
        assert info["parallel_calls"] == 1

    @pytest.mark.parametrize("bounds, expected", [
        ("[5 ... 4]", "0\n"),        # empty: the body never runs
        ("[3 ... 3]", "9\n"),        # a single item
        ("[-9 ... -2]", f"{sum(i * i for i in range(-9, -1))}\n"),
    ])
    def test_empty_single_and_negative_ranges(self, bounds, expected,
                                              offloads):
        out, _info = range_parity(f"""
        def main():
            total = 0
            parallel for i in {bounds}:
                lock t:
                    total += i * i
            print(total)
        """, workers=3)
        assert out == expected
        assert all(kind == "range" for kind, _ran in offloads)

    def test_bounds_are_evaluated_once_each_in_order(self, offloads):
        out, _info = range_parity("""
        def lo() int:
            print("lo")
            return 2

        def hi() int:
            print("hi")
            return 11

        def main():
            total = 0
            parallel for i in [lo() ... hi()]:
                lock t:
                    total += i
            print(total)
        """)
        assert out == "lo\nhi\n65\n"
        assert offloads == [("range", True)] * 2

    def test_bound_beyond_int64_falls_back_after_one_evaluation(
            self, offloads):
        # The kernel declines once it sees the bound; the in-process path
        # then runs on the list built from the same, already-printed,
        # bounds.
        out, info = range_parity("""
        def hi() int:
            print("hi")
            return 9223372036854775809

        def main():
            total = 0
            parallel for i in [9223372036854775805 ... hi()]:
                lock t:
                    total += i
            print(total)
        """)
        assert out == f"hi\n{sum(range(2 ** 63 - 3, 2 ** 63 + 2))}\n"
        assert offloads == [("range", False)] * 2
        reasons = [why for _line, why in info["fallbacks"]]
        assert "a value does not fit in a 64-bit integer" in reasons
        assert info["parallel_calls"] == 0

    def test_overflow_inside_the_kernel_deoptimizes(self, offloads):
        out, info = range_parity("""
        def main():
            total = 0
            parallel for i in [1 ... 10]:
                lock t:
                    total += i * 3037000499 * 3037000499
            print(total)
        """, workers=2)
        assert out == f"{sum(range(1, 11)) * 3037000499 ** 2}\n"
        assert offloads == [("range", False)] * 2
        assert any("64-bit range" in why for _line, why in info["fallbacks"])

    def test_real_sum_reduction_is_bit_exact_on_one_worker(self):
        # One worker adds in item order from the initial value, exactly
        # like the walker, so even inexact terms agree to the last bit.
        out, _info = range_parity("""
        def main():
            total = 3.3
            parallel for i in [1 ... 300]:
                lock t:
                    total += 1.0 / (i * 0.7 + 0.3)
            print(total)
        """, workers=1)
        # Merged as init + (final - init), these terms end one ulp off.
        assert out == "11.499084023478249\n"

    @pytest.mark.parametrize("chunking", ["block", "cyclic", "dynamic"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_real_sum_reduction_across_workers(self, chunking, workers):
        # With several workers the order of additions depends on the
        # partition (and, on threads, on the schedule), so only terms
        # whose partial sums are exact have one right answer: quarters.
        out, _info = range_parity("""
        def main():
            total = 0.5
            parallel for i in [-40 ... 200]:
                lock t:
                    total += i * 0.25
            print(total)
        """, workers, chunking)
        assert out == f"{0.5 + sum(range(-40, 201)) * 0.25}\n"


# ----------------------------------------------------------------------
# Observability, limits, and fallback reporting
# ----------------------------------------------------------------------
@needs_cc
class TestRuntimeSurface:
    def test_metrics_report_the_native_tier(self):
        result = run("""
        def twice(x int) int:
            return x * 2

        def main():
            print(twice(21))
        """, metrics=True)
        info = result.metrics.native
        assert info["enabled"] and "twice" in info["functions"]
        assert info["calls"] == 1
        panel = result.metrics.render()
        assert "native tier" in panel

    def test_fallback_reasons_carry_line_numbers(self):
        result = run("""
        def fact(n int) int:
            if n <= 1:
                return 1
            return n * fact(n - 1)

        def main():
            print(fact(10))
        """, metrics=True)
        fallbacks = dict(result.metrics.native["fallbacks"])
        assert any("recursion" in why for why in fallbacks.values())
        assert all(isinstance(line, int) and line > 0 for line in fallbacks)

    def test_time_limit_interrupts_a_hot_native_loop(self):
        started = time.perf_counter()
        with pytest.raises(TetraLimitError):
            run("""
            def spin(n int) int:
                total = 0
                i = 0
                while i < n:
                    total += i % 7
                    i += 1
                return total

            def main():
                print(spin(4000000000))
            """, time_limit=0.4)
        # The kernel checks in every 1024 back-edges; well under the
        # seconds the full 4e9-iteration loop would take.
        assert time.perf_counter() - started < 5.0

    def test_trace_labels_native_calls(self):
        result = run("""
        def cube(x int) int:
            return x * x * x

        def main():
            print(cube(3))
        """, trace=True)
        assert result.output.startswith("27") or "27" in result.output


# ----------------------------------------------------------------------
# The on-disk artifact cache
# ----------------------------------------------------------------------
@needs_cc
class TestArtifactCache:
    SRC = """
    def add(a int, b int) int:
        return a + b

    def main():
        print(add(40, 2))
    """

    def test_second_run_hits_the_artifact_cache(self):
        first = run(self.SRC, metrics=True)
        assert first.metrics.native["cache_hit"] is False
        # A fresh process would re-dlopen from disk; simulate by dropping
        # the in-memory module table (and the program cache, so lowering
        # re-runs too).
        clear_program_cache()
        native._reset_for_tests()
        second = run(self.SRC, metrics=True)
        assert second.metrics.native["cache_hit"] is True
        assert second.output == "42\n"

    def test_corrupt_artifact_triggers_a_cold_rebuild(self):
        run(self.SRC)
        cache = native.cache_dir()
        sos = [f for f in os.listdir(cache) if f.endswith(".so")]
        assert len(sos) == 1
        # Replace through a new inode (the writer's own crash-atomic
        # idiom): scribbling on the existing file in place would corrupt
        # the mapping this process already dlopened.
        junk = os.path.join(cache, "junk.tmp")
        with open(junk, "wb") as fh:
            fh.write(b"not an ELF object")
        os.replace(junk, os.path.join(cache, sos[0]))
        clear_program_cache()
        native._reset_for_tests()
        result = run(self.SRC, metrics=True)
        assert result.output == "42\n"
        assert result.metrics.native["cache_hit"] is False

    def test_cache_dir_override_is_honored(self, tmp_path):
        run(self.SRC)
        override = os.environ["TETRA_NATIVE_CACHE"]
        assert os.path.isdir(override)
        assert any(f.endswith(".so") for f in os.listdir(override))
