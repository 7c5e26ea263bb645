"""What every workload shares: the run context, child-process
environments, provenance and memory readings."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Per-run scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = os.path.join(ROOT, ".bench_work")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    nproc: int
    work: str  # this run's scratch directory

    @property
    def spans_path(self) -> str:
        """Where a traced run writes its spans; kept after the run."""
        return os.path.join(WORK_ROOT,
                            f"spans-{self.workload}-seed{self.seed}.json")

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.work)

    def child_env(self, native_cache: str | None = None) -> dict:
        """Environment for a child Python that imports ``repro`` from this
        checkout and keeps its native artifacts inside the run's scratch
        directory (never in the user's cache)."""
        env = dict(os.environ)
        env["TMPDIR"] = self.work  # cc's temporary files too
        env["PYTHONPATH"] = SRC
        env["TETRA_NATIVE_CACHE"] = native_cache or self.fresh_dir("native-")
        return env


def make_context(workload: str, seed: int, seconds: float,
                 trace: bool) -> Context:
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
    return Context(workload, seed, seconds, trace,
                   os.cpu_count() or 1, work)


def remove_work(ctx: Context) -> None:
    shutil.rmtree(ctx.work, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only when no other run is using it
    except OSError:
        pass


def src_digest() -> str:
    """sha256 over every file under ``src/`` (path and content), skipping
    bytecode caches."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(ctx: Context) -> dict:
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        cc = None
    try:
        import cffi
        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = None
    return {
        "nproc": ctx.nproc,
        "python": platform.python_version(),
        "cc": cc,
        "cffi": cffi_version,
        "seed": ctx.seed,
        "src_sha256": src_digest(),
    }


def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(parents.get(p, ()))
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of each live process's peak resident set (VmHWM) over the
    process tree rooted at ``pid``, in MiB."""
    total = 0
    for p in descendants(pid):
        try:
            total += _status_kb(p, "VmHWM")
        except OSError:
            pass  # exited while we looked
    return total / 1024.0


def python() -> str:
    return sys.executable or "python3"
