"""Byte-identity fingerprints of the benchmark workloads.

    python3 tools/fingerprints.py

Run from the root of a gzflows checkout.  For each workload of
``bench/workloads.py`` it builds one round at each of seeds 0-4 in a
temporary directory, runs every request once, and prints

    workload count sha1

where count is the number of requests and sha1 is taken over the hex
``fingerprint`` of ``bench/run.py`` (exit code, stdout and any file
written) of every request in order.  Two checkouts that print the same
lines give the same bytes on all of these requests.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files in bench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench  # noqa: E402  (sets one BLAS thread before numpy loads)
import workloads  # noqa: E402

SEEDS = range(5)


def workload_digest(name: str) -> tuple[int, str]:
    """(request count, sha1 over the hex fingerprints) of one round per seed."""
    h = hashlib.sha1()
    count = 0
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            steps, _ = workloads.build(name, seed, workdir)
            for step in steps:
                if step.kind == "glue":
                    step.call()
                    continue
                if step.output and os.path.exists(step.output):
                    os.remove(step.output)
                h.update(bench.fingerprint(step, bench._call(step)).encode())
                count += 1
    return count, h.hexdigest()


def main() -> int:
    sys.path.insert(0, str(bench.ROOT / "src"))
    for name in workloads.WORKLOADS:
        count, digest = workload_digest(name)
        print(name, count, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
