"""Independent Python oracles for every benchmark op.

None of these call into Tetra: each recomputes the answer with a
different algorithm than the Tetra program uses (iteration for recursion,
brute force for branch-and-bound, a sieve for trial division), so a
wrong answer from any Tetra tier shows up as a mismatch.
"""

from __future__ import annotations

import itertools


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def tsp(n: int, dist: list[int]) -> int:
    """Shortest closed tour from city 0 over all ``n`` cities, by brute
    force over every permutation; ``dist`` is the flat n*n table."""
    best = None
    for perm in itertools.permutations(range(1, n)):
        cost = 0
        here = 0
        for city in perm:
            cost += dist[here * n + city]
            here = city
        cost += dist[here * n]
        if best is None or cost < best:
            best = cost
    return best


class PrimeCounter:
    """Prime counts up to any limit <= ``top``, from one sieve."""

    def __init__(self, top: int):
        sieve = bytearray([1]) * (top + 1)
        sieve[0] = 0
        if top >= 1:
            sieve[1] = 0
        for p in range(2, int(top ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, top + 1, p)))
        counts = [0] * (top + 1)
        running = 0
        for i, flag in enumerate(sieve):
            running += flag
            counts[i] = running
        self._counts = counts

    def count(self, limit: int) -> int:
        return self._counts[limit]


def matmul_checksum(n: int, ma: int, mb: int) -> int:
    """The checksum the native-parfor program prints: C = A x B with
    A[i][k] = (i*n+k) % ma and B[k][j] = (k*n+j) % mb, weighted by
    (flat index % 7 + 1) — computed with nested Python lists."""
    a = [[(i * n + k) % ma for k in range(n)] for i in range(n)]
    b_cols = [[(k * n + j) % mb for k in range(n)] for j in range(n)]
    total = 0
    for i in range(n):
        row = a[i]
        for j in range(n):
            c = sum(x * y for x, y in zip(row, b_cols[j]))
            total += c * ((i * n + j) % 7 + 1)
    return total
