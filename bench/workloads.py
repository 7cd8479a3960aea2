"""Seeded request lists for the three workloads.

``build(name, seed, workdir)`` returns the steps of one round: requests
(timed, checked) and glue (untimed file handling between requests).  A
round is the same list every time it runs, so counts of work and of
failures repeat exactly.  Each request carries the spec its checker needs
and, for the known faults, the fault's tag.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from checks import enc_matrix, enc_vector, monic_from_roots

QUERY_SIZES = (3, 6, 12)
# requests of each query type at each n, per round
QUERY_PER_N = 24


@dataclass
class Step:
    kind: str                      # subcommand or library call; "glue" for file handling
    call: Callable[[], Any]
    spec: dict = field(default_factory=dict)
    fault: str | None = None       # known-fault tag, see README
    output: str | None = None      # file the request writes, if any


def cli_call(argv: list[str]):
    """Run one CLI request in-process; returns (exit code, stdout text)."""
    from gzflows import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _cli(kind, argv, spec, fault=None) -> Step:
    output = argv[argv.index("--output") + 1] if "--output" in argv else None
    return Step(kind, lambda: cli_call(argv), spec, fault, output)


def circular(rng, n) -> np.ndarray:
    """Entries of variance 1/n: spectral radius near 1 at every n."""
    return (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / np.sqrt(2 * n / 3)


def _z(rng, scale=0.5) -> complex:
    return complex(scale * rng.uniform(-1, 1), scale * rng.uniform(-1, 1))


def lattice_roots(rng, count, spacing=0.25, radius=1.6) -> list[complex]:
    """Distinct roots at least 0.15 apart: jittered points of a square lattice."""
    r = int(radius / spacing)
    pts = [complex(a, b) * spacing for a in range(-r, r + 1) for b in range(-r, r + 1)
           if abs(complex(a, b)) * spacing <= radius]
    picks = rng.choice(len(pts), size=count, replace=False)
    return [pts[i] + complex(*rng.uniform(-0.05, 0.05, 2)) for i in picks]


def minor_roots(rng, n) -> list[list[complex]]:
    """Root lists for q_1..q_n (deg q_m = m), simple in each, shared by neighbours."""
    pool = iter(lattice_roots(rng, n * (n + 1) // 2))
    lists: list[list[complex]] = []
    for m in range(1, n + 1):
        prev = list(lists[-1]) if lists else []
        rs = []
        for _ in range(m):
            if prev and rng.uniform() < 0.5:
                rs.append(prev.pop(rng.integers(len(prev))))
            else:
                rs.append(next(pool))
        lists.append(rs)
    return lists


def _triples(rng, M, count, top: bool) -> list[tuple[int, int, complex]]:
    """Flow indices (m < n unless top) with |z| ||minor(M, m)^(i-1)|| <= 0.5 at M.

    The bound keeps each conjugating factor well conditioned, so that the
    expm reference and the program can be held to 1e-9.
    """
    n = M.shape[0]
    idx = [(m, i) for m in range(1, n + (1 if top else 0)) for i in range(1, m + 1)]
    picks = rng.choice(len(idx), size=min(count, len(idx)), replace=False)
    out = []
    for p in picks:
        m, i = idx[p]
        size = np.linalg.norm(np.linalg.matrix_power(M[:m, :m], i - 1), 2)
        out.append((m, i, _z(rng) / max(1.0, size)))
    return out


def _flows(triples) -> list[dict]:
    return [{"m": m, "i": i, "z": [z.real, z.imag]} for m, i, z in triples]


# ------------------------------------------------------------------ query-mix

def query_mix(seed: int, workdir: str, redraws: dict) -> list[Step]:
    from gzflows import spaces

    rng = np.random.default_rng([seed, 3])
    steps: list[Step] = []
    for n in QUERY_SIZES:
        for j in range(QUERY_PER_N):
            B = circular(rng, n)
            basis = ("tr-power", "charpoly")[j % 2]
            steps.append(_cli("gz-map", ["gz-map", "--input", json.dumps(
                {"matrix": enc_matrix(B), "basis": basis})], {"B": B, "basis": basis}))

            B = circular(rng, n)
            tri = _triples(rng, B, 1 + j % 3, top=False)
            steps.append(_cli("gz-flow", ["gz-flow", "--input", json.dumps(
                {"matrix": enc_matrix(B), "flows": _flows(tri)})], {"B": B, "triples": tri}))

            generic = j % 4 != 3
            B = circular(rng, n)
            if not generic:  # first basis vector split off: B = b (+) B'
                B[0, 1:] = B[1:, 0] = 0.0
            steps.append(_cli("sregular", ["sregular", "--input", json.dumps(
                {"matrix": enc_matrix(B)})], {"B": B, "generic": generic}))

            for kind in ("orbit-count", "strata"):
                roots = minor_roots(rng, n)
                polys = [enc_vector(monic_from_roots(rs)) for rs in roots]
                payload = {"polys": polys, "mode": "matrices"} if kind == "orbit-count" else {"polys": polys}
                steps.append(_cli(kind, [kind, "--input", json.dumps(payload)], {"roots": roots}))

            B, b = circular(rng, n), rng.normal(size=n) + 1j * rng.normal(size=n)
            tri = _triples(rng, B, 1 + j % 3, top=True)
            point = spaces.VnPoint(B=B, b=b / np.linalg.norm(b))
            steps.append(Step("vn_gz_flow", lambda p=point, t=tri: (0, spaces.vn_gz_flow(p, t)),
                              {"B": point.B, "b": point.b, "triples": tri}))

            g = np.eye(n) + 0.3 * circular(rng, n)
            B = circular(rng, n)
            left = _triples(rng, B, 1 + j % 2, top=True)
            right = _triples(rng, -np.linalg.solve(g, B @ g), 1 + j % 2, top=True)
            x = spaces.CotangentPoint(g=g, B=B)
            steps.append(Step("tilde_a_flow", lambda x=x, l=left, r=right: (0, spaces.tilde_a_flow(x, l, r)),
                              {"g": g, "B": B, "left": left, "right": right}))

    # (a) repeated root away from 0: chi_1 = z - 1, chi_2 = (z - 1)^2; t = 1, count 2
    roots = [[1.0 + 0j], [1.0 + 0j, 1.0 + 0j]]
    steps.append(_cli("orbit-count", ["orbit-count", "--input", json.dumps(
        {"polys": [enc_vector(monic_from_roots(rs)) for rs in roots], "mode": "matrices"})],
        {"roots": roots}, fault="a"))
    # (b) ill-conditioned flow factor, (m, i, z) = (2, 2, 4) on a fixed 3x3 matrix
    frng = np.random.default_rng(197)
    B = frng.uniform(-2, 2, (3, 3)) + 1j * frng.uniform(-2, 2, (3, 3))
    tri = [(2, 2, 4.0 + 0j)]
    steps.append(_cli("gz-flow", ["gz-flow", "--input", json.dumps(
        {"matrix": enc_matrix(B), "flows": _flows(tri)})], {"B": B, "triples": tri}, fault="b"))
    return steps


# ------------------------------------------------------------------ verify-battery

# (subcommand, n, samples) per round; the seed of each comes from the run seed
VERIFY_PLAN = (
    ("verify-suite", 3, 3), ("verify-suite", 4, 2), ("verify-suite", 5, 2),
    ("kw-check", 2, 4), ("kw-check", 3, 1), ("kw-check", 3, 2),
    ("bracket-table", 3, 4), ("bracket-table", 4, 3), ("bracket-table", 5, 2),
)


def verify_battery(seed: int, workdir: str, redraws: dict) -> list[Step]:
    steps = []
    for j, (cmd, n, samples) in enumerate(VERIFY_PLAN):
        argv = [cmd, "--input", json.dumps({"n": n}), "--samples", str(samples),
                "--seed", str(1000 * seed + j)]
        steps.append(_cli(cmd, argv, {"command": cmd, "samples": samples}))
    return steps


# ------------------------------------------------------------------ doc-roundtrip

def _model_doc(F) -> dict:
    """Wire form of a model point, written by the benchmark itself."""
    return {
        "k": list(F.k),
        "B_minus": [enc_matrix(M) for M in F.b_minus],
        "B_plus": [enc_matrix(M) for M in F.b_plus],
        "g": [enc_matrix(M) for M in F.g],
        "uw": [{"i": j + 1, "u": enc_vector(F.u[j]), "w": enc_vector(F.w[j])} for j in sorted(F.u)],
    }


def _write(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def safe_condition(k: int) -> float:
    """Largest cond(g) at which |det g| > 1e-12 ||g||_F^k holds for every g.

    |det g| >= sigma_min^k and ||g||_F <= sqrt(k) sigma_max, so below this
    bound the verdict of md-validate cannot hinge on its determinant test.
    """
    return 1e12 ** (1.0 / k) / np.sqrt(k)


def _akact_log_cond_bound(F, params) -> list[float]:
    """log cond(exp(A) g) <= 2 ||A||_2 + log cond(g), with A = p'(B_minus)."""
    out = []
    for Bm, g, lam in zip(F.b_minus, F.g, params):
        A = sum((j + 1) * c * np.linalg.matrix_power(Bm, j) for j, c in enumerate(lam))
        out.append(2 * np.linalg.norm(A, 2) + np.log(np.linalg.cond(g)))
    return out


def _fixture(rng, k, redraws):
    """A model point from known roots, with ak-act parameters it can take.

    Counts in ``redraws`` the points fixture_from_polar could not build and
    the ak-act outputs not sent because their condition could decide
    md-validate's verdict.
    """
    from gzflows import ratmodel
    from gzflows.errors import ValidationError

    while True:
        flat = lattice_roots(rng, sum(k), spacing=0.4, radius=2.0)
        roots, pos = [], 0
        for d in k:
            roots.append(flat[pos:pos + d])
            pos += d
        try:
            F = ratmodel.fixture_from_polar([monic_from_roots(rs) for rs in roots], rng=rng)
        except ValidationError:
            redraws["construction"] += 1
            continue
        params = [0.1 * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)) for d in k]
        bounds = _akact_log_cond_bound(F, params)
        if all(b <= np.log(safe_condition(d)) for b, d in zip(bounds, k)):
            return F, roots, params
        redraws["condition"] += 1


def fault_c_fixture():
    """(c): k = (4, 3), roots U(-1,1)^2 at least 0.1 apart, seed 0, params x 0.3."""
    from gzflows import ratmodel

    rng = np.random.default_rng(0)
    while True:
        r = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
        if (np.abs(r[:, None] - r[None, :]) + 9 * np.eye(7)).min() > 0.1:
            break
    roots = [list(r[:4]), list(r[4:])]
    F = ratmodel.fixture_from_polar([monic_from_roots(rs) for rs in roots], rng=rng)
    params = [0.3 * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)) for d in (4, 3)]
    return F, roots, params


ENUM_DEGREES = (1, 2, 3, 3, 2)
FIXTURE_DEGREES = ((2, 3), (3, 2, 2), (3, 3), (1, 2, 3))
LAX_N, LAX_STEPS, LAX_T = 5, 500, 1.5


def doc_roundtrip(seed: int, workdir: str, redraws: dict) -> list[Step]:
    rng = np.random.default_rng([seed, 2])
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    steps: list[Step] = []

    # the seed picks the orientation; both cost the same
    k = list(ENUM_DEGREES[::-1] if rng.integers(2) else ENUM_DEGREES)
    enum_out = path("enum.json")
    steps.append(_cli("enumerate-orbits", ["enumerate-orbits", "--input", json.dumps({"k": k}),
                                           "--output", enum_out], {"k": k}))
    reps = 2 ** (len(k) - 1)

    def split_reps():
        with open(enum_out, encoding="utf-8") as fh:
            doc = json.load(fh)
        for j, e in enumerate(doc["representatives"]):
            _write(path(f"rep{j}.json"), {"data": e["data"]})

    steps.append(Step("glue", split_reps))
    zero_roots = [[0j] * d for d in k]
    for j in range(reps):
        rep = path(f"rep{j}.json")
        steps.append(_cli("md-validate", ["md-validate", "--input", rep], {"input": rep}))
        steps.append(_cli("polar", ["polar", "--input", rep], {"roots": zero_roots}))

    fixtures = [_fixture(rng, d, redraws) for d in FIXTURE_DEGREES] + [fault_c_fixture()]
    for j, (F, roots, params) in enumerate(fixtures):
        fault = "c" if j == len(FIXTURE_DEGREES) else None
        data = _model_doc(F)
        src = _write(path(f"fix{j}.json"), {"data": data})
        act_in = _write(path(f"act{j}.json"), {"data": data, "params": [enc_vector(p) for p in params]})
        moved = path(f"moved{j}.json")
        if fault is None:
            steps.append(_cli("polar", ["polar", "--input", src], {"roots": roots}))
        steps.append(_cli("ak-act", ["ak-act", "--input", act_in, "--output", moved],
                          {"data": data, "params": params}))
        steps.append(_cli("md-validate", ["md-validate", "--input", moved], {"input": moved}, fault))
        if fault is None:
            steps.append(_cli("polar", ["polar", "--input", moved], {"roots": roots}))

    # a planted invalid document: B_plus[1] moved by 0.25 at one entry, which
    # breaks its junction matching and its conjugacy
    F, _, _ = fixtures[0]
    bad = _model_doc(F)
    bad["B_plus"][0][1][0][0] += 0.25
    planted = _write(path("planted.json"), {"data": bad})
    steps.append(_cli("md-validate", ["md-validate", "--input", planted], {"input": planted}))

    alpha, beta = circular(rng, LAX_N), circular(rng, LAX_N)
    lax_out, gauge_out = path("lax.json"), path("gauge.json")
    spec = {"alpha": alpha, "beta": beta, "t_start": 0.0, "t_end": LAX_T, "steps": LAX_STEPS}
    steps.append(_cli("lax-run", ["lax-run", "--output", lax_out, "--input", json.dumps({
        "alpha": {"type": "constant", "matrix": enc_matrix(alpha)}, "beta": enc_matrix(beta),
        "t_start": 0.0, "t_end": LAX_T, "steps": LAX_STEPS})], spec))
    steps.append(_cli("lax-gauge", ["lax-gauge", "--input", lax_out, "--output", gauge_out], spec))
    return steps


ROUND_MAKERS = {
    "verify-battery": verify_battery,
    "doc-roundtrip": doc_roundtrip,
    "query-mix": query_mix,
}
WORKLOADS = tuple(ROUND_MAKERS)
# Rounds per second of --seconds.  A doc-roundtrip round is half as long as
# the others, and its big JSON requests are the noisiest, so it runs twice
# as many.
ROUNDS_PER_SECOND = {"verify-battery": 2, "doc-roundtrip": 4, "query-mix": 2}


def build(name: str, seed: int, workdir: str) -> tuple[list[Step], dict]:
    """Steps of one round, and how many inputs set-up had to redraw."""
    redraws = {"construction": 0, "condition": 0}
    return ROUND_MAKERS[name](seed, workdir, redraws), redraws
