"""Start ``tetra serve`` with spans around each serve layer.

Usage: ``python3 serve_launcher.py SPANS.json -- <tetra serve args>``

Wraps the service's public entry points, then runs the ordinary
``tetra serve`` command line.  When the server drains on SIGTERM and
``serve()`` returns, the spans are written to ``SPANS.json``.  Sandbox
workers are forked from this process; tracing is switched off in them,
so every span is a server-side one.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def install(tracer) -> None:
    import repro.api as api
    import repro.serve.service as service
    from repro.serve.overload import AdmissionController, CircuitBreaker
    from repro.serve.pool import RunnerPool
    from repro.serve.quotas import TenantQuotas

    def request_id(span, result):
        span.op = result.get("id")

    tracer.wrap(service.ExecutionService, "run", "serve.service",
                on_result=request_id)
    tracer.wrap(service.ExecutionService, "submit", "serve.submit")
    tracer.wrap(CircuitBreaker, "admit", "serve.admit")
    tracer.wrap(AdmissionController, "check", "serve.admit")
    tracer.wrap(TenantQuotas, "admit", "serve.admit")
    tracer.wrap(service, "cached_program", "serve.compile")
    tracer.wrap(api, "compile_source", "frontend")
    tracer.wrap(RunnerPool, "submit", "serve.dispatch")


def main(argv: list[str]) -> int:
    from tetrabench.tracing import Tracer
    from repro.tools.cli import main as tetra

    spans_path, rest = argv[0], argv[1:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    tracer = Tracer()
    install(tracer)
    os.register_at_fork(
        after_in_child=lambda: setattr(tracer, "enabled", False))
    code = tetra(rest)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
