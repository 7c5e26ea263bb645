"""``tetra compile``: Tetra source → a standalone Python module.

``tetra compile prog.ttr -o prog.py`` type-checks the program and writes
a short module that embeds the source and runs it through
:func:`repro.api.run_source` — the same pipeline, checks and diagnostics
as ``tetra run``.  (The paper's future-work compiler to native code is the
``--native`` C tier, DESIGN.md §2c.)  This script compiles Figure II and a
program that fails at run time, shows the emitted module, and checks that
``python prog.py`` and ``tetra run prog.ttr`` agree on stdout, stderr and
exit code.

Run with:  python examples/compile_and_run.py
"""

import os
import pathlib
import subprocess
import sys
import tempfile

import repro
from repro.programs import FIGURE_2_PARALLEL_SUM
from repro.tools.cli import main as tetra

OUT_OF_RANGE = """\
def main():
    xs = [1, 2, 3]
    i = 5
    print(xs[i])
"""


def python(*argv: str) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))


def compare(tmp: pathlib.Path, name: str, text: str) -> str:
    program = tmp / f"{name}.ttr"
    program.write_text(text)
    module = tmp / f"{name}.py"
    assert tetra(["compile", str(program), "-o", str(module)]) == 0
    compiled = python(str(module))
    interpreted = python("-m", "repro.tools.cli", "run", str(program))
    for label, result in (("python", compiled), ("tetra run", interpreted)):
        print(f"$ {label} {name}  -> exit {result.returncode}")
        print(result.stdout + result.stderr, end="")
    assert (compiled.stdout, compiled.stderr, compiled.returncode) == \
        (interpreted.stdout, interpreted.stderr, interpreted.returncode), \
        "the module must behave exactly like tetra run"
    return module.read_text()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        print("=== Figure II: compiled module vs tetra run ===")
        code = compare(tmp, "figure2", FIGURE_2_PARALLEL_SUM)
        print("\n=== a run-time error: same diagnostic, same exit code ===")
        compare(tmp, "out_of_range", OUT_OF_RANGE)

    print("\n=== the emitted module (Figure II) ===")
    for line in code.splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    main()
