"""Byte-identity fingerprints of the benchmark workloads.

    python3 tools/fingerprints.py [--by-request]

Run from the root of a gzflows checkout.  For each workload of
``bench/workloads.py`` it builds one round at each of seeds 0-4 in a
temporary directory, runs every request once, and prints

    workload count sha1

where count is the number of requests and sha1 is taken over the hex
``fingerprint`` of ``bench/run.py`` (exit code, stdout and any file
written) of every request in order.  Two checkouts that print the same
lines give the same bytes on all of these requests.

With ``--by-request`` it prints one line per request instead,

    workload seed index kind fault sha1

with index the request's place in its round (glue steps not counted),
fault its known-fault tag or ``-``, and sha1 its own fingerprint, so a
``diff`` of the output of two checkouts lists exactly the requests whose
bytes differ.
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


def request_fingerprints(name: str):
    """(seed, index, step, hex fingerprint) of every request of one round per seed."""
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            steps, _ = workloads.build(name, seed, workdir)
            index = 0
            for step in steps:
                if step.kind == "glue":
                    step.call()
                    continue
                if step.output and os.path.exists(step.output):
                    os.remove(step.output)
                yield seed, index, step, bench.fingerprint(step, bench._call(step))
                index += 1


def main(argv) -> int:
    by_request = argv == ["--by-request"]
    if argv and not by_request:
        print("usage: python3 tools/fingerprints.py [--by-request]", file=sys.stderr)
        return 64
    sys.path.insert(0, str(bench.ROOT / "src"))
    for name in workloads.WORKLOADS:
        h = hashlib.sha1()
        count = 0
        for seed, index, step, fp in request_fingerprints(name):
            if by_request:
                print(name, seed, index, step.kind, step.fault or "-", fp, flush=True)
            h.update(fp.encode())
            count += 1
        if not by_request:
            print(name, count, h.hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
