"""Self-test of the output checkers.

    python3 bench/selftest.py

Runs one round of every workload at seed 0, then for each request type
takes a right answer, confirms that its checker accepts it, corrupts it
and confirms that the checker rejects the corrupted copy.  Exits 1 if any
checker accepts a corrupted answer or rejects a right one.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads
import workloads
from checks import CHECKERS


def _bump(pair, by=1e-6):
    pair[0] += by


def _raise_defect(doc):
    doc["reports"][0]["max_defect"] = 1e-3


# request type -> (exit code, payload) -> corrupted (exit code, payload)
CORRUPT = {
    "gz-map": lambda c, d: (c, _edit(d, lambda d: _bump(d["values"][-1]))),
    "gz-flow": lambda c, d: (c, _edit(d, lambda d: _bump(d["matrix"][0][-1], 1e-5))),
    "sregular": lambda c, d: (c, _edit(d, lambda d: d.update(rank=d["rank"] - 1))),
    "orbit-count": lambda c, d: (c, _edit(d, lambda d: d.update(t=d["t"] + 1, count=2 * d["count"]))),
    "strata": lambda c, d: (c, _edit(d, lambda d: d["signature"][0].update(multiplicities=[9]))),
    "vn_gz_flow": lambda c, r: (c, dataclasses.replace(r, b=r.b * (1 + 1e-6))),
    "tilde_a_flow": lambda c, r: (c, dataclasses.replace(r, g=r.g + 1e-6)),
    "enumerate-orbits": lambda c, d: (c, _edit(d, lambda d: d["representatives"][0]["sigma"].__setitem__(
        0, -d["representatives"][0]["sigma"][0]))),
    "md-validate": lambda c, d: (2 - c, _edit(d, lambda d: d.update(
        valid=not d["valid"], violations=[] if d["violations"] else ["planted"]))),
    "polar": lambda c, d: (c, _edit(d, lambda d: _bump(d["polys"][-1][0], 1e-4))),
    "ak-act": lambda c, d: (c, _edit(d, lambda d: _bump(d["data"]["g"][0][0][0]))),
    "lax-run": lambda c, d: (c, _edit(d, lambda d: _bump(d["path"]["beta"][len(d["path"]["beta"]) // 2][0][0]))),
    "lax-gauge": lambda c, d: (c, _edit(d, lambda d: _bump(d["g_end"][0][0]))),
    "verify-suite": lambda c, d: (c, _edit(d, _raise_defect)),
    "kw-check": lambda c, d: (c, _edit(d, _raise_defect)),
    "bracket-table": lambda c, d: (c, _edit(d, _raise_defect)),
}


def _edit(doc, change):
    doc = copy.deepcopy(doc)
    change(doc)
    return doc


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    bad = 0
    seen: set[tuple[str, bool]] = set()
    try:
        for name in workloads.WORKLOADS:
            steps, _ = workloads.build(name, 0, str(workdir))
            _, results, _ = run.run_round(steps)
            requests = [s for s in steps if s.kind != "glue"]
            for step, (code, out) in zip(requests, results):
                # md-validate is tested on a valid and on an invalid input
                key = (step.kind, step.kind == "md-validate" and "planted" in step.spec.get("input", ""))
                if step.fault or key in seen:
                    continue
                seen.add(key)
                check = CHECKERS[step.kind]
                payload = run._payload(step, (code, out))
                right = check(step.spec, code, payload)
                wrong = check(step.spec, *CORRUPT[step.kind](code, payload))
                ok = not right and bool(wrong)
                bad += not ok
                label = step.kind + (" (invalid input)" if key[1] else "")
                print(f"{'PASS' if ok else 'FAIL'} {label}: right answer "
                      f"{'accepted' if not right else 'rejected: ' + '; '.join(right)}, corrupted "
                      f"{'rejected (' + wrong[0] + ')' if wrong else 'accepted'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(CHECKERS) - {kind for kind, _ in seen}
    for kind in sorted(missing):
        print(f"FAIL {kind}: no request of this type was tested")
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.exit(main())
