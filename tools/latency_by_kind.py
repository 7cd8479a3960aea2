"""Median latency of each request kind, or of each request, of one benchmark workload.

    python3 tools/latency_by_kind.py WORKLOAD [--seed N] [--rounds R] [--by-request] [--stages]
                                     [--calls NAME ...]

It times the checkout it sits in, that checkout's ``bench/`` and ``src/``
whatever the working directory, so run each checkout's own copy.  It
builds the workload's round for the seed in a temporary directory with
``bench/run.py``'s ``set_up``, runs one untimed round and replays
``check_round`` on its results, as ``bench/run.py`` checks its first round,
then runs ``run_round`` R times (default 20), and prints one line per group
of requests, the largest round_ms first:

    kind  n  per_round  median_ms  round_ms  marks

A group is a request kind at one size n, the size the step's spec records:
the order of its ``B``, or the number of its root lists (``-`` when the
spec records neither).  A kind whose spec has a ``generic`` flag is split
on it, as ``kind/generic`` and ``kind/non-generic``: query-mix's
non-generic ``sregular`` requests send a split B = b (+) B'.  per_round is
how many requests of the group one round holds, median_ms the median of
their latencies and round_ms the median over rounds of the group's total
latency in a round, each scaled to the reference pass as ``bench/run.py``
scales them.  marks names the metrics whose value, computed from these
rounds as ``bench/run.py`` computes it, is a latency of a request of the
group: ``p50`` for ``req_p50_ms`` and ``tail`` for ``req_tail_ms``, the
11th-largest latency in each block of whole rounds holding at least 1000
requests.  In doc-roundtrip, whose round holds 54, that is the slowest
kind with one request a round.  A median of two middle latencies marks
the requests of both.

The replay is there because the checks leave the allocator as the
benchmark's later rounds find it.  They allocate and free arrays above
glibc's initial 128 KiB mmap threshold, and freeing a mapped block
raises that threshold, and the heap's trim threshold with it, so after
them a request's large temporaries (the power stacks of an n = 12
``sregular``, say) reuse heap memory instead of faulting in fresh pages.
Without the replay the tool times a process the benchmark never runs: at
query-mix seed 0 (two runs each on a shared 2-CPU host) the n = 12
``sregular/generic`` median read 1.20-1.25 ms without it and 0.95 ms
with it, and ``MALLOC_MMAP_THRESHOLD_`` and ``MALLOC_TRIM_THRESHOLD_``
raised to 256 MiB moved that median by -20% to -24% without it and by
under 1% with it.

With ``--by-request`` it prints one line per request of the round, in
round order, its kind named as its group's is, and the same marks:

    index  kind  median_ms  marks

With ``--stages`` each line gains three columns, decode_ms, compute_ms and
emit_ms: the median over the line's requests of the unscaled time spent in
``cli._load_payload`` (reading and parsing the JSON input), in the
subcommand's handler (checking and decoding the payload, the computation and
building the answer) and in ``cli._emit`` (rendering and writing it).  A
group of library calls, which pass through none of them, reads ``-``.  The
three are timed by wrappers set in ``gzflows.cli`` for the rounds, whose own
cost lands in the latencies of these runs.  Being unscaled, they move with
the machine's speed between runs: compare two checkouts by runs whose
decode_ms, for code both share, agree.

With ``--calls NAME ...`` a first line per name gives the calls per round of
that ``gzflows`` function, private ones included, named from its module:
``serialize.decode_array``, ``gzcore._minor_frames`` or, for a method,
``gzcore.GZGroupElement.items``.  A wrapper that counts is set, for the
rounds, where the function is defined and in every ``gzflows`` module that
holds it by name (``gzcore`` holds its own ``matpoly._identities``) or in
a dict (``cli.HANDLERS``).  The wrappers' own cost lands in the latencies
of these runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files in bench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench  # noqa: E402  (sets one BLAS thread before numpy loads)
import workloads  # noqa: E402


class StageTimer:
    """Seconds each CLI request spends in ``cli._load_payload``, in its handler and in
    ``cli._emit``, through wrappers set in ``gzflows.cli`` while it is entered."""

    STAGES = ("decode", "compute", "emit")

    def __init__(self):
        self._current = None
        self.spent = []  # per request in run order: seconds per stage, or None

    def _wrap(self, stage: int, function):
        def timed(*args):
            if self._current is None:
                self._current = [0.0] * len(self.STAGES)
            start = time.perf_counter()
            try:
                return function(*args)
            finally:
                self._current[stage] += time.perf_counter() - start
        return timed

    def timed(self, call):
        """call, appending to spent the stage times of each of its runs."""
        def run():
            self._current = None
            try:
                return call()
            finally:
                self.spent.append(self._current)
        return run

    def __enter__(self):
        from gzflows import cli

        self._saved = cli._load_payload, cli.HANDLERS, cli._emit
        cli._load_payload = self._wrap(0, cli._load_payload)
        cli.HANDLERS = {name: self._wrap(1, handler) for name, handler in cli.HANDLERS.items()}
        cli._emit = self._wrap(2, cli._emit)
        return self

    def __exit__(self, *exc):
        from gzflows import cli

        cli._load_payload, cli.HANDLERS, cli._emit = self._saved


class CallCounter:
    """Calls of named ``gzflows`` functions, through counting wrappers set while it is
    entered: on the class of a method, or wherever a ``gzflows`` module holds the
    function."""

    def __init__(self, names):
        self.names = names
        self.counts = Counter()

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return function(*args, **kwargs)
        return counted

    def __enter__(self):
        self._saved = []
        modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "gzflows"]
        for name in self.names:
            module, *path, attr = name.split(".")
            owner = importlib.import_module(f"gzflows.{module}")
            for part in path:
                owner = getattr(owner, part)
            function = vars(owner)[attr]
            wrapped = self._wrap(name, function)
            if path:  # a method: only its class holds it
                self._saved.append((owner, attr, function))
                setattr(owner, attr, wrapped)
                continue
            # every gzflows module that holds it, and every dict in one (cli.HANDLERS)
            tables = [vars(m) for m in modules]
            tables += [t for table in tables for t in table.values() if type(t) is dict]
            for table in tables:
                for key in [key for key, value in table.items() if value is function]:
                    self._saved.append((table, key, function))
                    table[key] = wrapped
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._saved):
            if type(holder) is dict:
                holder[key] = value
            else:
                setattr(holder, key, value)


def kind_of(step) -> str:
    """The step's kind, split on its spec's generic flag where the spec has one."""
    if "generic" not in step.spec:
        return step.kind
    return f"{step.kind}/{'generic' if step.spec['generic'] else 'non-generic'}"


def size_of(spec: dict) -> int | None:
    """The size n a request's spec records: the order of its B, or its number of root lists."""
    if "B" in spec:
        return spec["B"].shape[0]
    if "roots" in spec:
        return len(spec["roots"])
    return None


def round_latencies(name: str, seed: int, rounds: int, stages: StageTimer | None = None,
                    calls: CallCounter | None = None) -> tuple[list, list]:
    """((kind_of, size_of) of each request of the round, every scaled latency in run order, in seconds).

    stages records the stage times of every request; calls counts the calls of its
    functions over the rounds.
    """
    with tempfile.TemporaryDirectory() as workdir, contextlib.ExitStack() as stack:
        steps, _, _ = bench.set_up(name, seed, workdir)
        groups = [(kind_of(s), size_of(s.spec)) for s in steps if s.kind != "glue"]
        # the check round of bench/run.py, untimed: see the module docstring
        bench.check_round([s for s in steps if s.kind != "glue"], bench.run_round(steps)[1])
        if stages is not None:
            steps = [s if s.kind == "glue" else dataclasses.replace(s, call=stages.timed(s.call)) for s in steps]
        for wrapper in (calls, stages):  # so stages wraps the counting handlers
            if wrapper is not None:
                stack.enter_context(wrapper)
        latencies = []
        for _ in range(rounds):
            latencies += bench.run_round(steps)[0]
    return groups, latencies


def _middle(indices: list, latencies: list) -> set:
    """The one or two indices at the median of their latencies."""
    ranked = sorted(indices, key=latencies.__getitem__)
    return {ranked[(len(ranked) - 1) // 2], ranked[len(ranked) // 2]}


def metric_holders(latencies: list, per_round: int) -> dict:
    """Positions in the round of the requests whose latencies give req_p50_ms and req_tail_ms."""
    # bench.tail's blocks of whole rounds, and the request with TAIL_BEYOND above it in each
    block = min(per_round * -(-bench.TAIL_BLOCK // per_round), len(latencies))
    picks = [
        sorted(range(i, i + block), key=latencies.__getitem__)[-bench.TAIL_BEYOND - 1]
        for i in range(0, len(latencies) - block + 1, block)
    ]
    return {
        "p50": {i % per_round for i in _middle(list(range(len(latencies))), latencies)},
        "tail": {i % per_round for i in _middle(picks, latencies)},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--by-request", action="store_true",
                   help="one line per request of the round, marking the p50 and tail holders")
    p.add_argument("--stages", action="store_true",
                   help="add the median unscaled ms of each CLI request in decoding its input, in its "
                        "handler and in emitting its answer")
    p.add_argument("--calls", nargs="+", default=[], metavar="NAME",
                   help="first print the calls per round of each named gzflows function, "
                        "as module.function or module.Class.method")
    args = p.parse_args(argv)
    stages = StageTimer() if args.stages else None
    calls = CallCounter(args.calls) if args.calls else None
    groups, latencies = round_latencies(args.workload, args.seed, args.rounds, stages, calls)
    per_round = len(groups)
    for name in args.calls:
        print(f"calls per round: {calls.counts[name] / args.rounds:.1f} {name}", flush=True)

    def stage_ms(at) -> str:
        """The decode_ms, compute_ms and emit_ms columns over the requests at those positions,
        if asked for."""
        if not args.stages:
            return ""
        spent = [stages.spent[i] for i in at if stages.spent[i] is not None]
        if not spent:
            return "".join(f"  {'-':>9}" for _ in StageTimer.STAGES)
        return "".join(f"  {1e3 * statistics.median(column):9.3f}" for column in zip(*spent))

    holders = metric_holders(latencies, per_round)

    def marks(at: set) -> str:
        """The metrics held by a request at one of those positions in the round."""
        return " ".join(m for m, held in holders.items() if held & at)

    if args.by_request:
        width = max(len(kind) for kind, _ in groups)
        for j, (kind, _) in enumerate(groups):
            median = 1e3 * statistics.median(latencies[j::per_round])
            at = range(j, len(latencies), per_round)
            print(f"{j:4d}  {kind:<{width}}  {median:9.3f}{stage_ms(at)}  {marks({j})}".rstrip(),
                  flush=True)
        return 0
    by_group = defaultdict(list)
    per_round_sums = defaultdict(lambda: [0.0] * args.rounds)
    for i, latency in enumerate(latencies):
        by_group[groups[i % per_round]].append(i)
        per_round_sums[groups[i % per_round]][i // per_round] += latency
    counts = Counter(groups)
    medians = {group: 1e3 * statistics.median(latencies[i] for i in at) for group, at in by_group.items()}
    totals = {group: 1e3 * statistics.median(sums) for group, sums in per_round_sums.items()}
    width = max(len(kind) for kind, _ in medians)
    for group in sorted(totals, key=totals.get, reverse=True):
        kind, n = group
        print(f"{kind:<{width}}  {'-' if n is None else n:>2}  {counts[group]:4d}  {medians[group]:9.3f}"
              f"  {totals[group]:9.3f}{stage_ms(by_group[group])}"
              f"  {marks({i % per_round for i in by_group[group]})}".rstrip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
