"""Shared fixtures and helpers for the Tetra test suite."""

from __future__ import annotations

import textwrap

import pytest

from repro.api import run_source


def run(text: str, inputs: list[str] | None = None, backend="thread",
        config=None, **kwargs):
    """Run dedented Tetra source and return its output lines."""
    result = run_source(textwrap.dedent(text), inputs=inputs,
                        backend=backend, config=config, **kwargs)
    return result.output_lines()


def run_output(text: str, inputs: list[str] | None = None, backend="thread",
               config=None, **kwargs) -> str:
    """Run dedented Tetra source and return raw output."""
    return run_source(textwrap.dedent(text), inputs=inputs, backend=backend,
                      config=config, **kwargs).output


def walker_differential(text: str, inputs: list[str] | None = None,
                        backend="sequential") -> str:
    """Run dedented Tetra source on the closure fast path and on the
    reference tree walker; assert byte-identical output and return it."""
    text = textwrap.dedent(text)
    fast = run_source(text, inputs=list(inputs or []), backend=backend).output
    walker = run_source(text, inputs=list(inputs or []), backend=backend,
                        fast=False, cache=False).output
    assert fast == walker, f"fast path {fast!r} != walker {walker!r}"
    return fast


@pytest.fixture(params=["thread", "sequential", "coop", "sim"])
def any_backend(request):
    """Parameterizes a test over every execution backend."""
    return request.param
