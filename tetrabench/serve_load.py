"""The classroom-serve workload: a real ``tetra serve`` child process
(shipped defaults plus ``--workers nproc``) driven over HTTP by one load
generator process with at most ``nproc`` threads and connections."""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import threading
import time

from . import tracing, workloads
from .common import Context, python, tree_peak_rss_mb
from .stats import class_position, median, percentile

COLD_STARTS = 5
#: The traced run's open loop: seeded Poisson arrivals, requests/second
#: well below what two sandbox workers sustain on two cores, for
#: OPEN_SECONDS.  End-to-end latency comes from the closed loop instead:
#: on a 2-vCPU VM an open loop this light leaves the vCPUs idle between
#: requests, and its p50 moved by up to 60% with the host's load, where
#: the closed loop moved by under 5%.
OPEN_RATE = 16.0
OPEN_SECONDS = 8.0
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class Server:
    """``tetra serve`` as a child process, optionally traced."""

    def __init__(self, ctx: Context, spans_path: str | None = None):
        args = ["serve", "--port", "0", "--workers", str(ctx.nproc)]
        if spans_path is None:
            argv = [python(), "-m", "repro.tools.cli", *args]
        else:
            argv = [python(), os.path.join(os.path.dirname(__file__),
                                           "serve_launcher.py"),
                    spans_path, "--", *args]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=ctx.child_env(),
            cwd=ctx.work)
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self.log: list[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            found = _LISTENING.search(line)
            if found and self.address is None:
                self.address = (found.group(1), int(found.group(2)))
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 60.0) -> tuple[str, int]:
        self._ready.wait(timeout)
        if self.address is None:
            raise RuntimeError("tetra serve did not start:\n"
                               + "".join(self.log[-20:]))
        return self.address

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=10)
        return code


class Client:
    """One HTTP connection, kept alive across calls."""

    def __init__(self, address: tuple[str, int]):
        self.address = address
        self.conn = http.client.HTTPConnection(*address, timeout=120)

    def connect(self) -> None:
        """Open the connection now, so a request's time excludes it only
        when the connection was already open (keep-alive)."""
        if self.conn.sock is None:
            self.conn.connect()

    def call(self, method: str, path: str, body: dict | None = None,
             tenant: str | None = None) -> tuple[int, dict]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"}
        if tenant:
            headers["X-Tetra-Tenant"] = tenant
        try:
            self.conn.request(method, path, data, headers)
            resp = self.conn.getresponse()
        except (http.client.HTTPException, ConnectionError):
            # The server may close an idle keep-alive connection.
            self.conn.close()
            self.conn = http.client.HTTPConnection(*self.address, timeout=120)
            self.conn.request(method, path, data, headers)
            resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")

    def close(self) -> None:
        self.conn.close()


def send(client: Client, op: dict) -> dict:
    """Send one request; returns its record (class seen, correctness,
    request id, worker wall time)."""
    t0 = time.perf_counter()
    try:
        client.connect()
        status, body = client.call("POST", "/api/run", op["request"],
                                   op["tenant"])
    except (OSError, http.client.HTTPException, ValueError) as exc:
        done = time.perf_counter()
        return {"cls": op["cls"], "ok": False, "id": None, "send_s": done - t0,
                "done": done, "worker_ms": None, "error": repr(exc)}
    done = time.perf_counter()
    if op["cls"] == "reject":
        ok = (status == 422 and body.get("phase") == "compile"
              and op["expect"] in (body.get("error") or ""))
        seen = "reject"
    else:
        ok = status == op["status"] and body.get("output") == op["expect"]
        cached = body.get("dedup") == "cache"
        seen = op["cls"]
        if seen == "hit" and not cached:
            seen = "miss"  # a resubmission the result cache did not serve
        elif seen != "hit" and cached:
            seen = "hit"
    executed = seen in ("small", "large", "miss")
    return {"cls": seen, "ok": ok, "id": body.get("id"),
            "send_s": done - t0, "done": done,
            "worker_ms": body.get("wall_ms") if executed else None,
            "error": None if ok else f"{status} {str(body)[:300]}"}


def warm_up(client: Client, ctx: Context) -> list[dict]:
    """Submit every resubmitted program once (so each timed resubmission
    is a result-cache hit) and a few fresh runs per worker."""
    records = [send(client, workloads.resubmission(s))
               for s in range(workloads.RESUBMITTERS)]
    fresh = (op for op in workloads.serve_ops(ctx.seed, "w")
             if op["cls"] in ("small", "large"))
    records += [send(client, next(fresh)) for _ in range(2 * ctx.nproc)]
    return records


def open_loop(address, ctx: Context, seconds: float, stream: str) -> dict:
    """Seeded Poisson arrivals at OPEN_RATE for ``seconds``; each record's
    lag is how late the generator sent it."""
    rng = random.Random(f"{ctx.seed}/arrivals/{stream}")
    due, t = [], rng.expovariate(OPEN_RATE)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(OPEN_RATE)
    ops = workloads.serve_ops(ctx.seed, stream)
    plan = [next(ops) for _ in due]
    records: list[dict | None] = [None] * len(plan)
    cursor = iter(range(len(plan)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            at = start + due[i]
            delay = at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            # Each arrival is a different student: its own connection.
            client = Client(address)
            try:
                rec = send(client, plan[i])
            finally:
                client.close()
            rec["lag_ms"] = (sent - at) * 1000.0
            records[i] = rec

    threads = [threading.Thread(target=sender) for _ in range(ctx.nproc)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return {"records": records, "elapsed": time.perf_counter() - start}


def closed_loop(address, ctx: Context, seconds: float) -> dict:
    """``nproc`` clients, each sending its next request on the reply over
    one keep-alive connection."""
    results: list[list[dict]] = [[] for _ in range(ctx.nproc)]
    deadline = time.perf_counter() + seconds

    def client_loop(k):
        client = Client(address)
        ops = workloads.serve_ops(ctx.seed, f"c{k}")
        try:
            while time.perf_counter() < deadline:
                results[k].append(send(client, next(ops)))
        finally:
            client.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(k,))
               for k in range(ctx.nproc)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return {"records": [r for rs in results for r in rs],
            "elapsed": time.perf_counter() - start}


def cold_start(ctx: Context, op: dict) -> tuple[float, bool]:
    """Seconds from spawning the server to its first correct answer."""
    t0 = time.perf_counter()
    server = Server(ctx)
    try:
        client = Client(server.wait_ready())
        rec = send(client, op)
        elapsed = time.perf_counter() - t0
        client.close()
    finally:
        code = server.stop()
    return elapsed, rec["ok"] and code == 0


def _summary(records: list[dict]) -> dict:
    lat = [r["send_s"] * 1000.0 for r in records]
    samples = [(r["send_s"], r["cls"]) for r in records]
    return {
        "p50": percentile(lat, 50),
        "p90": percentile(lat, 90),
        "guard": [class_position(samples, 50), class_position(samples, 90)],
        "mix": {c: sum(1 for r in records if r["cls"] == c)
                for c in sorted({r["cls"] for r in records})},
    }


def _failures(records: list[dict]) -> list[str]:
    return [r["error"] for r in records if not r["ok"]]


def measure(ctx: Context) -> dict:
    """End-to-end metrics (``--trace 0``), all from one closed loop."""
    colds = []
    for k in range(COLD_STARTS):
        op = next(op for op in workloads.serve_ops(ctx.seed, f"s{k}")
                  if op["cls"] == "small")
        colds.append(cold_start(ctx, op))
    server = Server(ctx)
    try:
        address = server.wait_ready()
        client = Client(address)
        warm = warm_up(client, ctx)
        client.close()
        closed = closed_loop(address, ctx, ctx.seconds)
        peak = tree_peak_rss_mb(server.proc.pid)
    finally:
        code = server.stop()
    records = warm + closed["records"]
    failures = _failures(records)
    failed = len(failures) + sum(1 for _, ok in colds if not ok) \
        + (code != 0)
    attempted = len(records) + len(colds)
    summary = _summary(closed["records"])
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median([c[0] for c in colds]),
            "latency_ms_p50": summary["p50"],
            "latency_ms_p90": summary["p90"],
            "throughput_ops_s": sum(1 for r in closed["records"] if r["ok"])
            / closed["elapsed"],
            "success_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": peak,
        },
        "report": {
            "closed_loop": {"clients": ctx.nproc,
                            "requests": len(closed["records"]),
                            "mix": summary["mix"]},
            "class_guard": summary["guard"],
            "error_rate": failed / attempted,
            "failures": failures[:5],
        },
    }


def _stats_delta(before: dict, after: dict) -> dict:
    def get(d, *path):
        for key in path:
            d = d[key]
        return d

    def delta(*path):
        return get(after, *path) - get(before, *path)

    requests = delta("requests_total") or 1
    return {
        "serve.executions_per_request": delta("dedup", "executions") / requests,
        "serve.result_cache_hit_ratio": delta("dedup", "cache_hits") / requests,
        "serve.coalesced_ratio": delta("dedup", "coalesced") / requests,
        "serve.compile_reject_ratio": delta("compile_rejects") / requests,
        "serve.shed": float(
            delta("overload", "admission", "shed_queue_full")
            + delta("overload", "admission", "shed_deadline")
            + delta("overload", "shed_expired")),
        "serve.retries": float(delta("overload", "infra_retried")),
        "api.cache_hit_ratio": (
            delta("program_cache", "hits")
            / ((delta("program_cache", "hits")
                + delta("program_cache", "misses")) or 1)),
    }


def _phase(ctx: Context, seconds: float, spans_path: str | None) -> dict:
    """One server: a closed loop like ``measure``'s, then (traced only)
    a seeded open loop, whose lag validates the load generator."""
    server = Server(ctx, spans_path)
    try:
        address = server.wait_ready()
        client = Client(address)
        warm = warm_up(client, ctx)
        _, before = client.call("GET", "/api/stats")
        closed = closed_loop(address, ctx, seconds)
        _, after = client.call("GET", "/api/stats")
        opened = open_loop(address, ctx, OPEN_SECONDS, "t") \
            if spans_path else {"records": []}
        client.close()
    finally:
        code = server.stop()
    return {"warm": warm, "closed": closed["records"],
            "open": opened["records"], "code": code,
            "stats": _stats_delta(before, after)}


def layer_metrics(spans: list[tracing.Span], records: list[dict]) -> dict:
    breakdown = tracing.op_breakdown(spans)
    by_id = {r["id"]: r for r in records if r.get("id")}
    ops = {i: b for i, b in breakdown.items() if i in by_id}
    rows = list(ops.values())

    def per_req_ms(name, kind="self"):
        return median([o[kind].get(name, 0.0) * 1000.0 for o in rows])

    frontend_calls = sum(1 for s, root in zip(spans, tracing.roots(spans))
                         if s.name == "frontend" and spans[root].op in ops)
    return {
        "frontend.ms": per_req_ms("frontend"),
        "frontend.calls": frontend_calls / len(rows),
        "serve.service_ms": per_req_ms("serve.service", "inclusive"),
        "serve.admit_ms": per_req_ms("serve.admit"),
        "serve.compile_ms": per_req_ms("serve.compile", "inclusive"),
        "serve.worker_ms": median([r["worker_ms"] for r in records
                                   if r["worker_ms"] is not None]),
        "serve.http_ms": median([by_id[i]["send_s"] * 1000.0
                                 - o["total"] * 1000.0
                                 for i, o in ops.items()]),
        "_selftime_failures": sum(1 for o in rows if not o["ok"]),
    }


def measure_traced(ctx: Context) -> dict:
    """Per-layer metrics (``--trace 1``): an untraced server, then a
    traced one, each running the closed loop for half of --seconds; the
    traced server then also takes a short open loop."""
    half = max(1.0, (ctx.seconds - OPEN_SECONDS) / 2)
    plain = _phase(ctx, half, None)
    traced = _phase(ctx, half, ctx.spans_path)
    spans = tracing.load(ctx.spans_path)
    metrics = layer_metrics(spans, traced["closed"])
    metrics.update(traced["stats"])
    metrics["loadgen.lag_ms_p90"] = percentile(
        [r["lag_ms"] for r in traced["open"]], 90)
    metrics["trace.overhead_ratio"] = (_summary(traced["closed"])["p50"]
                                       / _summary(plain["closed"])["p50"])
    records = [r for phase in (plain, traced)
               for part in ("warm", "closed", "open") for r in phase[part]]
    failed = len(_failures(records)) + (plain["code"] != 0) \
        + (traced["code"] != 0)
    return {"attempted": len(records), "failed": failed, "metrics": metrics}
