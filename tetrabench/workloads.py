"""Tetra programs and the seeded op streams of the three workloads.

Every op is a dict: ``cls`` (the request class percentiles are guarded
by), ``source``, ``inputs`` (the only place sizes reach a program — as
``read_int()`` lines), and ``expect`` (the oracle's answer).  The same
seed yields the same op sequence.

Each stream deals its classes from fixed-composition blocks (so every
seed has the same class mix, and every latency percentile lands inside
one class) and draws only work-neutral or narrow-range parameters from
the seed, so the work per op does not depend on the seed or the thread
schedule.
"""

from __future__ import annotations

import random

from . import oracles

WORKLOADS = ("fastpath-calls", "native-parfor", "classroom-serve")

# ----------------------------------------------------------------------
# fastpath-calls: recursive fib (default backend) and the paper's TSP
# branch-and-bound (sequential backend, so the pruning order is fixed).
# ----------------------------------------------------------------------
FIB_SOURCE = """\
def fib(n int) int:
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def main():
    n = read_int()
    print(fib(n))
"""

TSP_SOURCE = """\
# cost of the best tour visiting everything in 'remaining', starting at
# 'current', having already paid 'so_far'; 'best_known' prunes the search
def search(current int, remaining [int], so_far int, best_known int, d [int], n int) int:
    if so_far >= best_known:
        return best_known
    if len(remaining) == 0:
        return so_far + d[current * n]
    best = best_known
    i = 0
    while i < len(remaining):
        next_city = remaining[i]
        rest = array(len(remaining) - 1, 0)
        j = 0
        k = 0
        while j < len(remaining):
            if j != i:
                rest[k] = remaining[j]
                k += 1
            j += 1
        cost = search(next_city, rest, so_far + d[current * n + next_city], best, d, n)
        if cost < best:
            best = cost
        i += 1
    return best

# best tour whose first two hops are 0 -> first -> second
def tour_from_pair(p int, n int, bound int, d [int]) int:
    first = p / (n - 2) + 1
    second_index = p % (n - 2)
    second = 0
    k = 0
    c = 1
    while c < n:
        if c != first:
            if k == second_index:
                second = c
            k += 1
        c += 1
    rest = array(n - 3, 0)
    k = 0
    c = 1
    while c < n:
        if c != first and c != second:
            rest[k] = c
            k += 1
        c += 1
    return search(second, rest, d[first] + d[first * n + second], bound, d, n)

def solve(n int, d [int]) int:
    pairs = (n - 1) * (n - 2)
    best = 1000000
    results = array(pairs, 1000000)
    parallel for p in [0 ... pairs - 1]:
        results[p] = tour_from_pair(p, n, best, d)
        if results[p] < best:
            lock best:
                if results[p] < best:
                    best = results[p]
    return best

def main():
    n = read_int()
    d = array(n * n, 0)
    i = 0
    while i < n * n:
        d[i] = read_int()
        i += 1
    print(solve(n, d))
"""

FIB_N = 18
TSP_CITIES = 8
#: Per block of 10 ops: 7 fib then 3 TSP, shuffled.  fib is the cheaper
#: class, so p50 sits inside fib and p90 inside TSP.
FASTPATH_BLOCK = ("fib",) * 7 + ("tsp",) * 3


def tsp_table(n: int, scale: int) -> list[int]:
    """The paper's synthetic symmetric distances, times ``scale``.

    Scaling every distance by a positive integer preserves every
    comparison the branch-and-bound makes, so each scale explores the
    same search tree: the seed changes the answer, not the work.
    """
    table = []
    for a in range(n):
        for b in range(n):
            lo, hi = min(a, b), max(a, b)
            table.append(0 if a == b else scale * ((lo * 7 + hi * 13) % 29 + 1))
    return table


def fastpath_ops(seed: int):
    rng = random.Random(seed)
    fib_expect = f"{oracles.fib(FIB_N)}\n"
    tsp_expect: dict[int, str] = {}
    while True:
        block = list(FASTPATH_BLOCK)
        rng.shuffle(block)
        for cls in block:
            if cls == "fib":
                yield {"cls": "fib", "source": FIB_SOURCE,
                       "backend": "thread", "inputs": [str(FIB_N)],
                       "expect": fib_expect}
                continue
            scale = rng.randint(1, 9)
            table = tsp_table(TSP_CITIES, scale)
            if scale not in tsp_expect:
                tsp_expect[scale] = f"{oracles.tsp(TSP_CITIES, table)}\n"
            yield {"cls": "tsp", "source": TSP_SOURCE,
                   "backend": "sequential",
                   "inputs": [str(TSP_CITIES)] + [str(x) for x in table],
                   "expect": tsp_expect[scale]}


#: The paper's primes counter: trial division in a lock-reduction
#: ``parallel for`` (used by native-parfor and classroom-serve).
COUNT_PRIMES = """\
def is_prime(n int) bool:
    if n < 2:
        return false
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return false
        d += 2
    return true

def count_primes(limit int) int:
    count = 0
    parallel for n in [2 ... limit]:
        if is_prime(n):
            lock count:
                count += 1
    return count
"""

# ----------------------------------------------------------------------
# native-parfor: the primes-count parallel for plus an int matmul kernel
# over existing arrays, under native="require".
# ----------------------------------------------------------------------
PARFOR_SOURCE = COUNT_PRIMES + """
def row(a [int], b [int], c [int], n int, i int, ma int, mb int):
    j = 0
    while j < n:
        total = 0
        k = 0
        while k < n:
            total += (a[i * n + k] % ma) * (b[k * n + j] % mb)
            k += 1
        c[i * n + j] = total
        j += 1

def checksum(c [int]) int:
    s = 0
    i = 0
    while i < len(c):
        s += c[i] * (i % 7 + 1)
        i += 1
    return s

def main():
    limit = read_int()
    n = read_int()
    ma = read_int()
    mb = read_int()
    print(count_primes(limit))
    a = [0 ... n * n - 1]
    b = [0 ... n * n - 1]
    c = array(n * n, 0)
    parallel for r in [0 ... n - 1]:
        row(a, b, c, n, r, ma, mb)
    print(checksum(c))
"""

#: Prime limits, drawn per op from a narrow range per class (about 45 ms
#: and 90 ms per op on a 2-core host), so the work per op varies by under
#: 2% within a class.
PARFOR_LIMITS = {"base": (295_000, 305_000), "double": (595_000, 605_000)}
#: Per block of 10 ops: 8 base and 2 double, shuffled.  p50 falls inside
#: the base class and p90 at the median of the double one; with a single
#: class p90 would sit in its tail, which moves most with the host's load.
PARFOR_BLOCK = ("base",) * 8 + ("double",) * 2
MATMUL_N = 96
#: Distinct (ma, mb) modulus pairs per seed; ops cycle through them, so
#: the matmul oracle is computed once per pair before timing starts.
MODULI_PER_SEED = 4


def parfor_ops(seed: int):
    rng = random.Random(seed)
    primes = oracles.PrimeCounter(PARFOR_LIMITS["double"][1])
    pairs = [(rng.randint(11, 97), rng.randint(11, 97))
             for _ in range(MODULI_PER_SEED)]
    sums = {p: oracles.matmul_checksum(MATMUL_N, *p) for p in pairs}
    i = 0
    while True:
        block = list(PARFOR_BLOCK)
        rng.shuffle(block)
        for cls in block:
            ma, mb = pairs[i % len(pairs)]
            i += 1
            limit = rng.randint(*PARFOR_LIMITS[cls])
            yield {"cls": cls, "source": PARFOR_SOURCE,
                   "backend": "thread", "native": "require",
                   "inputs": [str(limit), str(MATMUL_N), str(ma), str(mb)],
                   "expect": f"{primes.count(limit)}\n{sums[(ma, mb)]}\n"}


# ----------------------------------------------------------------------
# classroom-serve: a class of students submitting to `tetra serve`.
# ----------------------------------------------------------------------
PRIMES_SOURCE = COUNT_PRIMES + """
def main():
    print(count_primes(read_int()))
"""

SUM_SOURCE = """\
# student {student}'s parallel sum
def sumr(nums [int], a int, b int) int:
    total = 0
    i = a
    while i <= b:
        total += nums[i]
        i += 1
    return total

def sum(nums [int]) int:
    mid = len(nums) / 2
    parallel:
        a = sumr(nums, 0, mid - 1)
        b = sumr(nums, mid, len(nums) - 1)
    return a + b

def main():
    print(sum([1 ... read_int()]))
"""

BROKEN_SOURCE = """\
def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = "num"
    return largest

def main():
    print(max([18, 32, 96, 48, 60]))
"""
BROKEN_MESSAGE = "cannot hold a string"

STUDENTS = 40
#: Students whose parallel-sum submission is resubmitted verbatim on the
#: sim backend; the benchmark submits each once before timing, so every
#: timed resubmission is a result-cache hit.
RESUBMITTERS = 8
#: Prime-count limits of the two fresh classes: small runs take about
#: 25 ms in a sandbox worker, large ones about twice that.
SERVE_SMALL = (2900, 3100)
SERVE_LARGE = (5900, 6100)
#: Per block of 10 requests: 5 small and 2 large fresh runs, 2 verbatim
#: resubmissions and 1 compile error.  The classes are ordered by cost
#: (reject, hit < small < large), so p50 falls inside the small class
#: (percentiles 30..80) and p90 in the middle of the large one (80..100):
#: a share of slow requests within a class moves them only when it
#: passes about a third of that class.
SERVE_BLOCK = ("small",) * 5 + ("large",) * 2 + ("hit",) * 2 + ("reject",)
#: Fresh runs use the deterministic sequential backend: on the thread
#: backend the cost of a run depends on how the host schedules the GIL
#: hand-offs between its workers.
FRESH_BACKEND = "sequential"


def resubmission(student: int) -> dict:
    n = 200 + 10 * student
    return {"cls": "hit", "tenant": f"student-{student}",
            "request": {"source": SUM_SOURCE.format(student=student),
                        "inputs": [str(n)], "backend": "sim"},
            "status": 200, "expect": f"{n * (n + 1) // 2}\n"}


def serve_ops(seed: int, stream: str = ""):
    """Requests of one client stream.  ``stream`` keeps the sources of
    concurrent streams (and of warm-up) distinct, so no two fresh
    requests anywhere in a run share a program."""
    rng = random.Random(f"{seed}/{stream}")
    primes = oracles.PrimeCounter(SERVE_LARGE[1])
    attempt = 0
    while True:
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        for cls in block:
            attempt += 1
            student = rng.randrange(STUDENTS)
            header = f"# student {student}, attempt {attempt}{stream}\n"
            op = {"cls": cls, "tenant": f"student-{student}", "status": 200}
            if cls == "hit":
                yield resubmission(rng.randrange(RESUBMITTERS))
                continue
            if cls == "reject":
                op.update(request={"source": header + BROKEN_SOURCE},
                          status=422, expect=BROKEN_MESSAGE)
            else:
                lo, hi = SERVE_SMALL if cls == "small" else SERVE_LARGE
                limit = rng.randint(lo, hi)
                op.update(request={"source": header + PRIMES_SOURCE,
                                   "inputs": [str(limit)],
                                   "backend": FRESH_BACKEND},
                          expect=f"{primes.count(limit)}\n")
            yield op
