"""Paired benchmark runs of a change against its parent commit.

    python3 tools/pairs.py --name NAME --parent REV --workload W --seeds 101-110
        [--workload W2 --seeds 111-115 ...] [--seconds 10] [--traced W ...]
        --what TEXT --claim TEXT

Run from the root of a gzflows checkout.  The parent commit REV is exported
with ``git archive`` into a temporary directory, so the two sides share no
files and no cached bytecode; the change is the working tree.  For each
workload and each of its seeds, one run of

    python3 bench/run.py --workload W --seed S --seconds 10

is made on each side, alternating which side runs first (the parent first at
even positions, counted over all pairs).  Workloads run in the order given.
Every ``--traced`` workload then gets one traced run per side
(``--trace 1 --seconds 1`` at its first seed).

The result is written to ``BENCH_<NAME>.json`` at the root of the checkout:
``what``, ``command``, ``host``, ``pairing``, ``claim`` and ``runs`` (the last
line of every run, with its workload, seed and side), then ``medians``: per
workload and end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles over the runs and the number of pairs the change won, and
``traced`` with the per-layer figures of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 bench/run.py --workload WORKLOAD --seed SEED --seconds {seconds}"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    p.add_argument("--parent", required=True, help="git revision of the parent commit")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", action="append", required=True,
                   help="seeds of the matching --workload, as A-B or A,B,C")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--traced", action="append", default=[], help="workloads to trace once per side")
    p.add_argument("--what", required=True, help="what the change does")
    p.add_argument("--claim", required=True, help="the metric claimed, and which seeds are fresh")
    args = p.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        p.error("give one --seeds for each --workload")
    return args


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(v) for v in text.split("-"))
        return list(range(low, high + 1))
    return [int(v) for v in text.split(",")]


def export(rev: str, into: Path) -> None:
    """The tree of rev, written out by git archive."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def bench(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """The last line of one bench/run.py run in root, as JSON."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summary(runs: list[dict], workload: str, metrics: list[dict]) -> dict:
    """Each side's median and quartiles of every end-to-end metric, and the pairs won."""
    sides = {side: [r for r in runs if r["workload"] == workload and r["side"] == side]
             for side in ("parent", "change")}
    out = {"pairs": len(sides["change"]), "seeds": [r["seed"] for r in sides["change"]]}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["result"]["metrics"][name]["value"] for r in rows]
                  for side, rows in sides.items()}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        won = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "unit": metric["unit"],
            "parent": statistics.median(values["parent"]),
            "change": statistics.median(values["change"]),
            "parent_quartiles": quartiles(values["parent"]),
            "change_quartiles": quartiles(values["change"]),
            "change_better_pairs": won,
        }
    return out


def host() -> str:
    import numpy

    return (f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}; "
            "bench/run.py scales every time to its reference pass")


def main(argv=None) -> int:
    args = parse_args(argv)
    plan = [(w, s) for w, seeds in zip(args.workload, args.seeds) for s in seed_list(seeds)]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        sides = {"parent": parent, "change": ROOT}
        for position, (workload, seed) in enumerate(plan):
            order = ("parent", "change") if position % 2 == 0 else ("change", "parent")
            for side in order:
                result = bench(sides[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side, "result": result})
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        traced = {}
        for workload in args.traced:
            seed = next(s for w, s in plan if w == workload)
            traced[workload] = {}
            for side in ("parent", "change"):
                result = bench(sides[side], workload, seed, 1, trace=1)
                traced[workload][side] = {
                    **{k: v["value"] for k, v in result["metrics"].items()}, "correct": result["correct"]}
    workloads = list(dict.fromkeys(args.workload))
    doc = {
        "what": args.what,
        "command": COMMAND.format(seconds=args.seconds),
        "host": host(),
        "pairing": ("one parent run and one change run per seed, alternating which side runs "
                    "first (parent first at even positions, counted over all "
                    f"{len(plan)} pairs); workloads ran in the order " + ", ".join(workloads)
                    + "; the parent ran from a git archive export of "
                    f"{args.parent}, the change from the working tree, both without writing bytecode"),
        "claim": args.claim,
        "runs": runs,
        "medians": {w: summary(runs, w, metrics) for w in workloads},
    }
    if traced:
        doc["traced"] = {"what": "one traced run per side (--trace 1 --seconds 1, the workload's "
                                 "first seed); per-layer figures are per round", "runs": traced}
    path = ROOT / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
