"""Single-run rerun of the baseline table in ROADMAP.md ("Recent").

    python3 bench/recent.py

Times each row once through ``gzflows.cli.run`` in this process (one BLAS
thread, raw wall time), then runs it again under the layer spans of
``spans.py`` to say where the time goes.  ``import gzflows`` is timed in a
fresh interpreter.  Prints a Markdown table.
"""

from __future__ import annotations

import subprocess
import sys
import time

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import cli_call  # noqa: E402

ROWS = (
    ("verify-suite n=3", ["verify-suite", "--input", '{"n": 3}'], "verify.fd_gradient"),
    ("verify-suite n=8", ["verify-suite", "--input", '{"n": 8}'], "verify.fd_gradient"),
    ("kw-check n=4", ["kw-check", "--input", '{"n": 4}'], "verify.fd_gradient"),
    ("enumerate-orbits k=(3,)*8", ["enumerate-orbits", "--input", '{"k": [3, 3, 3, 3, 3, 3, 3, 3]}'],
     "ratmodel.isotropy_nullity"),
)


def inclusive_share(tracer: Tracer, name: str, wall: float) -> float:
    return sum(end - start for n, _, _, start, end in tracer.spans if n == name) / wall


def main() -> int:
    import gzflows.cli  # noqa: F401

    print("| run | time | where the time goes (traced rerun) |")
    print("| --- | --- | --- |")
    for label, argv, hot in ROWS:
        t = time.perf_counter()
        code, _ = cli_call(argv)
        wall = time.perf_counter() - t
        tracer = Tracer()
        tracer.install()
        t = time.perf_counter()
        cli_call(argv)
        traced = time.perf_counter() - t
        tracer.uninstall()
        summary = tracer.summary()
        where = f"{100 * inclusive_share(tracer, hot, traced):.0f}% in `{hot.split('.')[-1]}`"
        if label.startswith("enumerate"):
            where += (f"; {summary['cli.encode_ms'] + summary['cli.emit_ms']:.0f} ms "
                      f"encode and emit of {summary['cli.emit_bytes'] / 1e6:.1f} MB")
        print(f"| `{label}` | {wall:.2f} s{'' if code == 0 else f' (exit {code})'} | {where} |")
    cmd = [sys.executable, "-c", "import sys, time; t = time.perf_counter(); "
           "sys.path.insert(0, 'src'); import gzflows; print(time.perf_counter() - t)"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=run.ROOT)
    print(f"| `import gzflows` | {float(out.stdout):.2f} s | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
