"""Median latency of each request kind of one benchmark workload.

    python3 tools/latency_by_kind.py WORKLOAD [--seed N] [--rounds R]

Run from the root of a gzflows checkout.  It builds the workload's round
for the seed in a temporary directory with ``bench/run.py``'s ``set_up``,
runs ``run_round`` R times (default 20), and prints one line per request
kind, slowest first:

    kind  per_round  median_ms

where per_round is how many requests of that kind one round holds and
median_ms is the median of their latencies, scaled to the reference pass
as ``bench/run.py`` scales them.  It shows which requests set
``req_tail_ms``, the 11th-largest latency in each block of whole rounds
holding at least 1000 requests: in doc-roundtrip, whose round holds 54,
that is the slowest kind with one request a round.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files in bench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench  # noqa: E402  (sets one BLAS thread before numpy loads)
import workloads  # noqa: E402


def latencies_by_kind(name: str, seed: int, rounds: int) -> tuple[Counter, dict]:
    """(requests per round of each kind, every scaled latency of each kind in seconds)."""
    with tempfile.TemporaryDirectory() as workdir:
        steps, _, _ = bench.set_up(name, seed, workdir)
        kinds = [s.kind for s in steps if s.kind != "glue"]
        by_kind = defaultdict(list)
        for _ in range(rounds):
            latencies, _, _ = bench.run_round(steps)
            for kind, t in zip(kinds, latencies):
                by_kind[kind].append(t)
    return Counter(kinds), by_kind


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=20)
    args = p.parse_args(argv)
    counts, by_kind = latencies_by_kind(args.workload, args.seed, args.rounds)
    medians = {kind: 1e3 * statistics.median(ts) for kind, ts in by_kind.items()}
    width = max(map(len, medians))
    for kind in sorted(medians, key=medians.get, reverse=True):
        print(f"{kind:<{width}}  {counts[kind]:4d}  {medians[kind]:9.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
