"""Tests for the benchmark's own helpers.

    python3 -m pytest tetrabench -q
"""

from __future__ import annotations

import itertools
import os
import shutil
import statistics
import types

import pytest

from tetrabench import oracles, stats, tracing, workloads
from tetrabench.common import SRC


# -- percentile ---------------------------------------------------------
def test_percentile_matches_linear_interpolation():
    values = [7, 1, 3, 9, 5]
    assert stats.percentile(values, 0) == 1
    assert stats.percentile(values, 100) == 9
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 25) == 3
    assert stats.percentile([1, 2], 50) == 1.5
    assert stats.percentile([10, 20, 30, 40], 90) == pytest.approx(37.0)
    sample = [3.5, 1.25, 8.0, 2.0, 6.5, 4.0, 9.75]
    assert stats.median(sample) == statistics.median(sample)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


def test_class_position_names_the_class_and_flags_boundaries():
    inside = [(float(i), "fast") for i in range(30)] \
        + [(100.0 + i, "slow") for i in range(70)]
    p50 = stats.class_position(inside, 50)
    assert p50["class"] == "slow"
    assert p50["neighbour_share"] == 1.0
    assert not p50["on_boundary"]
    boundary = [(float(i), "fast") for i in range(50)] \
        + [(100.0 + i, "slow") for i in range(50)]
    assert stats.class_position(boundary, 50)["on_boundary"]


# -- oracles ------------------------------------------------------------
def test_fib_oracle():
    assert [oracles.fib(n) for n in range(10)] == \
        [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert oracles.fib(18) == 2584


def test_tsp_oracle_matches_the_paper_instance_and_scales():
    # The paper's synthetic distances: 7 cities -> 52, 8 cities -> 60.
    assert oracles.tsp(7, workloads.tsp_table(7, 1)) == 52
    assert oracles.tsp(8, workloads.tsp_table(8, 1)) == 60
    assert oracles.tsp(8, workloads.tsp_table(8, 3)) == 180


def test_tsp_oracle_on_a_hand_checked_square():
    # Four corners of a unit square, distances scaled by 10: the best
    # tour walks the perimeter (40), never a diagonal (14).
    d = [0, 10, 14, 10,
         10, 0, 10, 14,
         14, 10, 0, 10,
         10, 14, 10, 0]
    assert oracles.tsp(4, d) == 40


def test_prime_counter():
    counter = oracles.PrimeCounter(10_000)
    for limit, count in {2: 1, 10: 4, 100: 25, 1000: 168, 2000: 303,
                         10_000: 1229}.items():
        assert counter.count(limit) == count


def test_matmul_checksum_against_a_triple_loop():
    n, ma, mb = 5, 7, 3
    a = [(i % ma) for i in range(n * n)]
    b = [(i % mb) for i in range(n * n)]
    total = 0
    for i, j in itertools.product(range(n), range(n)):
        c = sum(a[i * n + k] * b[k * n + j] for k in range(n))
        total += c * ((i * n + j) % 7 + 1)
    assert oracles.matmul_checksum(n, ma, mb) == total


# -- seeded op streams --------------------------------------------------
def _take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("make", [workloads.fastpath_ops,
                                  workloads.parfor_ops,
                                  workloads.serve_ops])
def test_same_seed_gives_the_same_ops(make):
    assert _take(make(7), 30) == _take(make(7), 30)
    assert _take(make(7), 30) != _take(make(8), 30)


def test_fastpath_blocks_have_a_fixed_class_mix():
    ops = _take(workloads.fastpath_ops(3), 50)
    for block in range(5):
        classes = [op["cls"] for op in ops[block * 10:block * 10 + 10]]
        assert sorted(classes) == sorted(workloads.FASTPATH_BLOCK)
    for op in ops:
        assert int(op["inputs"][0]) in (workloads.FIB_N,
                                        workloads.TSP_CITIES)


def test_parfor_blocks_have_a_fixed_mix_and_sizes_stay_in_range():
    ops = _take(workloads.parfor_ops(5), 30)
    for start in range(0, 30, 10):
        classes = [op["cls"] for op in ops[start:start + 10]]
        assert sorted(classes) == sorted(workloads.PARFOR_BLOCK)
    for op in ops:
        lo, hi = workloads.PARFOR_LIMITS[op["cls"]]
        assert lo <= int(op["inputs"][0]) <= hi
        assert int(op["inputs"][1]) == workloads.MATMUL_N


def test_serve_streams_mix_and_never_repeat_a_fresh_program():
    ops = _take(workloads.serve_ops(4, "a"), 40) \
        + _take(workloads.serve_ops(4, "b"), 40)
    for start in range(0, 80, 10):
        classes = [op["cls"] for op in ops[start:start + 10]]
        assert sorted(classes) == sorted(workloads.SERVE_BLOCK)
    fresh = [op["request"]["source"] for op in ops
             if op["cls"] in ("small", "large")]
    assert len(set(fresh)) == len(fresh)
    hits = {op["request"]["source"] for op in ops if op["cls"] == "hit"}
    assert len(hits) <= workloads.RESUBMITTERS


# -- spans and self time ------------------------------------------------
def _span(name, start, end, parent, op=None):
    return tracing.Span(name, start, end, parent, op)


def test_self_time_subtracts_the_children():
    spans = [_span("op", 0.0, 10.0, None, op=1),
             _span("a", 1.0, 4.0, 0),
             _span("b", 5.0, 9.0, 0),
             _span("c", 6.0, 7.0, 2)]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    entry = tracing.op_breakdown(spans)[1]
    assert entry["ok"]
    assert entry["total"] == 10.0
    assert entry["self"] == {"op": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}
    assert entry["inclusive"]["b"] == 4.0


def test_overlapping_children_fail_the_sum_check():
    spans = [_span("op", 0.0, 10.0, None, op=1),
             _span("a", 1.0, 6.0, 0),
             _span("b", 4.0, 9.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)
    assert not tracing.op_breakdown(spans)[1]["ok"]


def test_tracer_wraps_nests_and_uninstalls(tmp_path):
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original = ns.inner
    tracer = tracing.Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer",
                on_result=lambda span, r: setattr(span, "op", r))
    assert ns.outer(1) == 4
    tracer.uninstall()
    assert ns.inner is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.op) == ("outer", None, 4)
    assert (inner.name, inner.parent) == ("inner", 0)
    path = tmp_path / "spans.json"
    tracer.dump(str(path))
    assert tracing.load(str(path)) == tracer.spans


# -- the Tetra programs agree with their oracles -------------------------
@pytest.fixture
def tetra(monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    from tetrabench.coldstart import run_op
    return run_op


def test_fastpath_programs_match_the_oracles(tetra):
    seen = set()
    for op in workloads.fastpath_ops(11):
        if op["cls"] not in seen:
            seen.add(op["cls"])
            assert tetra(op, 2) == op["expect"]
        if len(seen) == 2:
            break


def test_serve_programs_match_the_oracles(tetra):
    from repro.api import compile_source
    from repro.errors import TetraError

    for op in _take(workloads.serve_ops(2), 10):
        request = op["request"]
        if op["cls"] == "reject":
            with pytest.raises(TetraError, match=op["expect"]):
                compile_source(request["source"])
            continue
        got = tetra({"source": request["source"], "inputs": request["inputs"],
                     "backend": request.get("backend", "thread")}, 2)
        assert got == op["expect"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_parfor_program_matches_the_oracles(tetra, tmp_path, monkeypatch):
    monkeypatch.setenv("TETRA_NATIVE_CACHE", str(tmp_path))
    op = next(workloads.parfor_ops(9))
    assert tetra(op, os.cpu_count() or 1) == op["expect"]
