"""Benchmark for gzflows: three workloads, checked outputs, a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gzflows checkout.  The workload's fixed round of
requests is built from the seed and run max(5, S) times in this process;
every output of the first round is checked against a computation made
apart from the program, and every later round must reproduce it byte for
byte.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS thread: set before numpy loads, and inherited by the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from checks import CHECKERS  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 10
SETUP_PROBES = 5          # fresh interpreters that only set up; setup_s is the median
# Mean time of one reference pass on the reference host (see README); every
# time is reported as measured time * REF_SECONDS / mean reference pass.
REF_SECONDS = 0.0005
REF_INTERVAL = 0.02       # seconds of requests between two reference passes
TAIL_BEYOND = 10          # req_tail_ms has exactly this many requests above it
TAIL_BLOCK = 1000         # ... in each block of whole rounds holding at least this many
LIBRARY_CALLS = ("vn_gz_flow", "tilde_a_flow")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def set_up(workload: str, seed: int, workdir: str):
    """Import gzflows, build the inputs and warm up each request type once."""
    sys.path.insert(0, str(ROOT / "src"))
    import gzflows.cli  # noqa: F401

    steps, redraws = workloads.build(workload, seed, workdir)
    seen = set()
    for step in steps:
        if step.kind == "glue" or step.kind not in seen:
            seen.add(step.kind)
            _call(step)
    return steps, redraws, time.perf_counter() - T_START


def reference_pass() -> float:
    """Seconds for a fixed mix of interpreter work and small dense linear algebra."""
    t = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += (i * i) % 7
    A = (np.arange(36).reshape(6, 6) % 7 - 3) / 10 + 0.1j * (np.arange(36).reshape(6, 6) % 5 - 2)
    for _ in range(4):
        B = A @ A
        np.linalg.eigvals(A)
        np.linalg.svd(A, compute_uv=False)
        np.linalg.solve(A + np.eye(6), B)
    return time.perf_counter() - t


def speed(passes: int = 40) -> float:
    """Mean of back-to-back reference passes: the host's speed right now."""
    return statistics.fmean(reference_pass() for _ in range(passes))


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, scaled to the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    before = speed()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    ref = (before + speed()) / 2
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"] * REF_SECONDS / ref


def _call(step):
    try:
        return step.call()
    except Exception as exc:  # an uncaught error is a wrong answer, not a crash
        return "exception", repr(exc)


def run_round(steps):
    """Run every step once, with reference passes every REF_INTERVAL seconds.

    Each latency is scaled by the mean of the reference passes just before
    and just after its request.  Returns the scaled latencies, the results
    and the round's mean scale.
    """
    clock = time.perf_counter
    raw, results, between = [], [], []   # between[j]: passes made before request j
    refs = [reference_pass()]
    last = clock()
    for step in steps:
        if step.kind == "glue":
            step.call()
            continue
        if step.output and os.path.exists(step.output):
            os.remove(step.output)
        between.append(len(refs) - 1)
        t = clock()
        results.append(_call(step))
        raw.append(clock() - t)
        if clock() - last > REF_INTERVAL:
            refs.append(reference_pass())
            last = clock()
    refs.append(reference_pass())
    scales = [2 * REF_SECONDS / (refs[b] + refs[b + 1]) for b in between]
    latencies = [t * f for t, f in zip(raw, scales)]
    return latencies, results, sum(latencies) / sum(raw)


def _payload(step, res):
    code, out = res
    if step.kind in LIBRARY_CALLS or code == "exception":
        return out
    text = out
    if step.output:
        text = Path(step.output).read_text(encoding="utf-8") if os.path.exists(step.output) else ""
    return json.loads(text) if text.strip() else None


def fingerprint(step, res) -> str:
    code, out = res
    h = hashlib.sha1(repr(code).encode())
    if step.kind in LIBRARY_CALLS and code != "exception":
        for arr in vars(out).values():
            h.update(np.ascontiguousarray(arr).tobytes())
    else:
        h.update(str(out).encode())
        if step.output and os.path.exists(step.output):
            h.update(Path(step.output).read_bytes())
    return h.hexdigest()


def check_round(requests, results):
    """Check each answer; returns (problems per request, fault tags that failed)."""
    problems, faults = [], []
    for step, res in zip(requests, results):
        try:
            found = CHECKERS[step.kind](step.spec, res[0], _payload(step, res))
        except Exception as exc:  # a malformed answer fails its check
            found = [f"checker raised {exc!r}"]
        problems.append(found)
        if found and step.fault:
            faults.append(step.fault)
    return problems, faults


def measure(args, steps):
    requests = [s for s in steps if s.kind != "glue"]
    rounds = max(MIN_ROUNDS, workloads.ROUNDS_PER_SECOND[args.workload] * args.seconds)
    walls, traced_walls, latencies, summaries = [], [], [], []
    tracer = Tracer() if args.trace else None
    correct = True
    failed_per_round = 0
    reference = None
    for r in range(rounds):
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        lat, results, scale = run_round(steps)
        if traced:
            tracer.uninstall()
            summaries.append(tracer.summary(scale))
            traced_walls.append(sum(lat))
        else:
            walls.append(sum(lat))
            latencies += lat
        prints = [fingerprint(s, res) for s, res in zip(requests, results)]
        if reference is None:
            reference = prints
            problems, faults = check_round(requests, results)
            failed_per_round = len(faults)
            for step, found in zip(requests, problems):
                if found and not step.fault:
                    correct = False
                    print(f"WRONG {step.kind}: {'; '.join(found)}", file=sys.stderr)
            for tag in sorted(set(faults)):
                print(f"known fault ({tag}): {faults.count(tag)} failed per round", file=sys.stderr)
            shown = {s.fault for s in requests if s.fault}
            for tag in sorted(shown - set(faults)):
                print(f"known fault ({tag}) no longer shows", file=sys.stderr)
        elif prints != reference:
            correct = False
            changed = sum(a != b for a, b in zip(prints, reference))
            print(f"WRONG: {changed} outputs changed between rounds", file=sys.stderr)
    if tracer is not None and summaries:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    return {
        "correct": correct,
        "attempted": rounds * len(requests),
        "failed": rounds * failed_per_round,
        "walls": walls,
        "traced_walls": traced_walls,
        "latencies": latencies,
        "summaries": summaries,
    }


COUNT_UNITS = {"calls": "count", "fd_evals": "count", "rk4_steps": "count", "emit_bytes": "bytes"}


def layer_metrics(run) -> dict:
    summaries = run["summaries"]
    out = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        unit = COUNT_UNITS.get(key.rsplit(".", 1)[-1], "ms")
        if unit == "ms":
            out[key] = {"value": statistics.median(values), "unit": unit}
        else:
            if len(set(values)) != 1:
                print(f"WRONG: {key} differs between traced rounds: {values}", file=sys.stderr)
                run["correct"] = False
            out[key] = {"value": values[0], "unit": unit}
    overhead = statistics.median(run["traced_walls"]) - statistics.median(run["walls"])
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def tail(latencies, per_round: int):
    """Median over blocks of whole rounds of the latency with TAIL_BEYOND above it."""
    block = min(per_round * -(-TAIL_BLOCK // per_round), len(latencies))
    blocks = [sorted(latencies[i:i + block]) for i in range(0, len(latencies) - block + 1, block)]
    return statistics.median(b[-TAIL_BEYOND - 1] for b in blocks), block


def end_to_end(run, setups) -> dict:
    lat = run["latencies"]
    tail_s, block = tail(lat, len(lat) // len(run["walls"]))
    print(f"{len(lat)} timed requests; req_tail_ms is the median over blocks of {block} "
          f"of p{100 * (block - TAIL_BEYOND) / block:.2f}", file=sys.stderr)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(run["walls"]), "unit": "s"},
        "req_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "req_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gzflows" / "__init__.py").is_file():
        print(f"bench: no gzflows sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        steps, redraws, setup_s = set_up(args.workload, args.seed, str(workdir))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"set-up redraws: {redraws}", file=sys.stderr)
        setups = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
        run = measure(args, steps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = layer_metrics(run) if args.trace else end_to_end(run, setups)
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
