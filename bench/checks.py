"""Output checkers, each computed apart from the program under test.

Every checker takes the request's own description (what the inputs were
built from) and the program's answer, and returns a list of problems; an
empty list means the answer is right.  References come from numpy
(traces, spectra, conditioning), from ``scipy.linalg.expm`` (exponentials)
and from how the inputs were built (roots, multiplicities, t and 2**t).
None of them calls into ``gzflows``.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


def dec_matrix(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def dec_vector(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float).reshape(-1, 2)
    return a[:, 0] + 1j * a[:, 1]


def enc_complex(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def enc_vector(v) -> list:
    return [enc_complex(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def enc_matrix(M) -> list:
    return [enc_vector(row) for row in np.asarray(M, dtype=complex)]


def _expm(A):
    from scipy.linalg import expm  # only the checks need scipy

    return expm(A)


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))) if b.size else 0.0


def _exit(code, want, problems):
    if code != want:
        problems.append(f"exit code {code}, expected {want}")


# ---------------------------------------------------------------- gz-map

def gz_invariants(B: np.ndarray, basis: str) -> np.ndarray:
    """(m, i)-ordered invariants from the eigenvalues of each leading minor."""
    out = []
    for m in range(1, B.shape[0] + 1):
        lam = np.linalg.eigvals(B[:m, :m])
        if basis == "tr-power":
            out += [np.sum(lam ** i) for i in range(1, m + 1)]
        else:
            out += list(np.poly(lam)[::-1][:m])
    return np.array(out, dtype=complex)


def check_gz_map(spec, code, doc) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    if problems:
        return problems
    B, basis = spec["B"], spec["basis"]
    if doc.get("n") != B.shape[0] or doc.get("basis") != basis:
        problems.append("wrong n or basis echoed")
    err = _rel(dec_vector(doc["values"]), gz_invariants(B, basis))
    if err > 1e-9:
        problems.append(f"invariants off by {err:.3e}")
    return problems


# ---------------------------------------------------------------- flows

def _pad_exp(B, m, i, z):
    n = B.shape[0]
    h = np.eye(n, dtype=complex)
    h[:m, :m] = _expm(z * np.linalg.matrix_power(B[:m, :m], i - 1))
    return h


def _lex(triples):
    return sorted(triples, key=lambda t: (t[0], t[1]))


def reference_gz_flow(B, triples):
    n = B.shape[0]
    out = B.copy()
    for m, i, z in _lex(triples):
        if m == n:
            continue
        h = _pad_exp(out, m, i, z)
        out = h @ out @ np.linalg.inv(h)
    return out


def conservation(B, moved) -> float:
    before = gz_invariants(B, "tr-power")
    after = gz_invariants(moved, "tr-power")
    return float(np.max(np.abs(after - before) / (1.0 + np.abs(before))))


# A composite flow whose own invariants drift by more than this has failed
# numerically and must exit 3; seeded requests stay far below GZ_FLOW_OK.
GZ_FLOW_FAIL = 1e-6
GZ_FLOW_OK = 1e-9


def check_gz_flow(spec, code, doc) -> list[str]:
    problems: list[str] = []
    B, triples = spec["B"], spec["triples"]
    if code == 3:
        ref = reference_gz_flow(B, triples)
        if conservation(B, ref) <= GZ_FLOW_OK:
            problems.append("exit 3 on a well-conditioned flow")
        return problems
    _exit(code, 0, problems)
    if problems:
        return problems
    moved = dec_matrix(doc["matrix"])
    defect = conservation(B, moved)
    if defect > GZ_FLOW_FAIL:
        problems.append(f"exit 0 with conservation defect {defect:.3e} (expected exit 3)")
        return problems
    if defect > GZ_FLOW_OK:
        problems.append(f"conservation defect {defect:.3e} above {GZ_FLOW_OK:g}")
    err = _rel(moved, reference_gz_flow(B, triples))
    if err > 1e-9:
        problems.append(f"flowed matrix off the expm reference by {err:.3e}")
    if abs(doc["conservation_defect"] - defect) > 1e-9:
        problems.append("reported conservation defect disagrees with the output")
    return problems


def check_vn_flow(spec, code, result) -> list[str]:
    B, b = spec["B"].copy(), spec["b"].copy()
    n = B.shape[0]
    for m, i, z in _lex(spec["triples"]):
        h = _pad_exp(B, m, i, z)
        if m < n:
            B = h @ B @ np.linalg.inv(h)
        b = h @ b
    problems = []
    err = max(_rel(result.B, B), _rel(result.b, b))
    if err > 1e-9:
        problems.append(f"(B, b) off the expm reference by {err:.3e}")
    return problems


def check_tilde_a(spec, code, result) -> list[str]:
    g, B = spec["g"].copy(), spec["B"].copy()
    n = B.shape[0]
    for m, i, z in _lex(spec["left"]):
        h = _pad_exp(B, m, i, z)
        g = h @ g
        if m < n:
            B = h @ B @ np.linalg.inv(h)
    for m, i, z in _lex(spec["right"]):
        C = -np.linalg.solve(g, B @ g)
        g = g @ _pad_exp(C, m, i, -z)
    problems = []
    err = max(_rel(result.g, g), _rel(result.B, B))
    if err > 1e-9:
        problems.append(f"(g, B) off the expm reference by {err:.3e}")
    return problems


# ---------------------------------------------------------------- sregular

def check_sregular(spec, code, doc) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    if problems:
        return problems
    n = spec["B"].shape[0]
    need = n * (n - 1) // 2
    # Generic matrices are strongly regular.  For B = b (+) B' the generators
    # at level m are those of B' at level m - 1 with one more power, which
    # Cayley-Hamilton makes dependent: rank (n-1)(n-2)/2.
    want = (True, need) if spec["generic"] else (False, (n - 1) * (n - 2) // 2)
    got = (doc["strongly_regular"], doc["rank"])
    if got != want or doc["required_rank"] != need:
        problems.append(f"got {got} of {doc['required_rank']}, expected {want} of {need}")
    return problems


# ---------------------------------------------------------------- orbits

def orbit_truth(root_lists):
    """Distinct roots, per-poly vanishing orders, t and s from the build."""
    distinct: list[complex] = []
    for rs in root_lists:
        for r in rs:
            if not any(r == d for d in distinct):
                distinct.append(r)
    mult = [[sum(1 for r in rs if r == d) for rs in root_lists] for d in distinct]
    n = len(root_lists)
    t = sum(1 for row in mult for j in range(n - 1) if row[j] and row[j + 1])
    s = sum(1 for row in mult for j in range(n) if row[j])
    return distinct, mult, t, s


def _match_roots(got, want, tol):
    """Index of the expected root each reported root sits on (or None)."""
    out = []
    for z in got:
        dist = [abs(z - w) for w in want]
        j = int(np.argmin(dist)) if dist else -1
        out.append(j if j >= 0 and dist[j] <= tol else None)
    return out


def check_orbit_count(spec, code, doc) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    if problems:
        return problems
    distinct, _, t, s = orbit_truth(spec["roots"])
    total = sum(len(rs) for rs in spec["roots"])
    want = (t, s, 2 ** t, f"(C*)^{s} x C^{total - s}")
    got = (doc["t"], doc["s"], doc["count"], doc["shape"])
    if got != want:
        problems.append(f"(t, s, count, shape) = {got}, expected {want}")
    got_roots = dec_vector(doc["roots"]) if doc["roots"] else np.zeros(0)
    hits = _match_roots(got_roots, distinct, 1e-6)
    if len(got_roots) != len(distinct) or sorted(h for h in hits if h is not None) != list(range(len(distinct))):
        problems.append(f"{len(got_roots)} roots reported, expected {len(distinct)}")
    return problems


def check_strata(spec, code, doc) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    if problems:
        return problems
    distinct, mult, _, _ = orbit_truth(spec["roots"])
    sig = doc["signature"]
    got_roots = np.array([complex(*e["root"]) for e in sig])
    hits = _match_roots(got_roots, distinct, 1e-6)
    if len(sig) != len(distinct) or sorted(h for h in hits if h is not None) != list(range(len(distinct))):
        problems.append(f"{len(sig)} clusters, expected {len(distinct)}")
        return problems
    for e, j in zip(sig, hits):
        if e["multiplicities"] != mult[j]:
            problems.append(f"multiplicities {e['multiplicities']} at {distinct[j]:.3f}, expected {mult[j]}")
    return problems


# ---------------------------------------------------------------- model

def check_enumerate(spec, code, doc) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    if problems:
        return problems
    k = spec["k"]
    words = {tuple(e["sigma"]) for e in doc["representatives"]}
    want = set(itertools.product((-1, 1), repeat=len(k) - 1))
    if doc["k"] != k or doc["count"] != len(want) or len(doc["representatives"]) != len(want):
        problems.append("wrong k or count")
    if words != want:
        problems.append("sign words are not exactly {-1, +1}^(n-1)")
    if not all(e["strongly_regular"] is True for e in doc["representatives"]):
        problems.append("a representative is not strongly regular")
    for e in doc["representatives"]:
        for ki, Bm in zip(k, e["data"]["B_minus"]):
            if np.max(np.abs(np.linalg.eigvals(dec_matrix(Bm)))) > 1e-6:
                problems.append(f"a B_minus block of size {ki} is not nilpotent")
                return problems
    return problems


def monic_from_roots(rs) -> np.ndarray:
    """Ascending monic coefficients with the given roots (numpy.poly)."""
    return np.poly(np.asarray(rs, dtype=complex))[::-1].astype(complex)


def check_polar(spec, code, doc) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    if problems:
        return problems
    polys = doc["polys"]
    if len(polys) != len(spec["roots"]):
        return ["wrong number of polar polynomials"]
    for j, (p, rs) in enumerate(zip(polys, spec["roots"])):
        want = monic_from_roots(rs)
        got = dec_vector(p)
        if got.size != want.size or _rel(got, want) > 1e-7:
            problems.append(f"polar polynomial {j + 1} differs from the one built from its roots")
    return problems


def model_verdict(data) -> bool:
    """Validity of model data from cond(g_i) and the bullet residuals.

    Shapes and junction matching are structural, so they are read off the
    entries; the conjugacy bullet is decided from g_i and its condition
    number, never from a determinant threshold.
    """
    k = data["k"]
    bm = [dec_matrix(M) for M in data["B_minus"]]
    bp = [dec_matrix(M) for M in data["B_plus"]]
    g = [dec_matrix(M) for M in data["g"]]
    scale = 1.0 + max(
        [np.linalg.norm(M) for M in (*bm, *bp, *g)]
        + [np.linalg.norm(dec_vector(e[key])) for e in data.get("uw", []) for key in ("u", "w")]
    )
    tol = 1e-8 * scale
    uw = {e["i"] - 1: (dec_vector(e["u"]), dec_vector(e["w"])) for e in data.get("uw", [])}
    for i, ki in enumerate(k):
        left = k[i - 1] if i > 0 else 0
        right = k[i + 1] if i < len(k) - 1 else 0
        for M, m in ((bm[i], min(left, ki)), (bp[i], min(right, ki))):
            if not _companion_shape(M, m, tol):
                return False
    for j in range(len(k) - 1):
        m = min(k[j], k[j + 1])
        if k[j] > k[j + 1]:
            gap = np.linalg.norm(bp[j][:m, :m] - bm[j + 1])
        elif k[j] < k[j + 1]:
            gap = np.linalg.norm(bm[j + 1][:m, :m] - bp[j])
        else:
            u, w = uw[j]
            gap = np.linalg.norm(bp[j] - bm[j + 1] - np.outer(u, w))
        if gap > tol:
            return False
    for i, ki in enumerate(k):
        if ki == 0:
            continue
        if np.linalg.cond(g[i]) > 1e10:
            return False
        if np.linalg.norm(g[i] @ bp[i] - bm[i] @ g[i]) / np.linalg.norm(g[i]) > tol:
            return False
    return True


def _companion_shape(M, m, tol) -> bool:
    k = M.shape[0]
    if m >= k:
        return True
    free = np.zeros((k, k), dtype=bool)
    free[:m, :m] = True
    free[:m, k - 1] = True
    if m >= 1:
        free[m, :m] = True
    free[m:, k - 1] = True
    for j in range(k - m - 1):
        if abs(M[m + j + 1, m + j] - 1.0) > tol:
            return False
        free[m + j + 1, m + j] = True
    return not np.any(np.abs(M[~free]) > tol)


def check_md_validate(spec, code, doc) -> list[str]:
    """md-validate against the verdict read off its own input document."""
    with open(spec["input"], encoding="utf-8") as fh:
        obj = json.load(fh)
    problems: list[str] = []
    if model_verdict(obj.get("data", obj)):
        _exit(code, 0, problems)
        if not problems and (doc["valid"] is not True or doc["violations"]):
            problems.append("valid data reported invalid")
        if problems and doc:
            problems.append(f"violations: {doc.get('violations')}")
    else:
        _exit(code, 2, problems)
        if not problems and (doc["valid"] is not False or not doc["violations"]):
            problems.append("invalid data not reported with violations")
    return problems


def akact_reference(data, params):
    """g_i -> expm(p_i'(B_i^-)) g_i with p_i(z) = sum_j params_i[j] z^(j+1)."""
    out = []
    for Bm, g, lam in zip(data["B_minus"], data["g"], params):
        Bm, g = dec_matrix(Bm), dec_matrix(g)
        k = Bm.shape[0]
        deriv = sum(
            ((j + 1) * c * np.linalg.matrix_power(Bm, j) for j, c in enumerate(lam)),
            np.zeros((k, k), dtype=complex),
        )
        out.append(_expm(deriv) @ g if k else g)
    return out


def check_ak_act(spec, code, doc) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    if problems:
        return problems
    data, params = spec["data"], spec["params"]
    got = doc["data"]
    for key in ("k", "B_minus", "B_plus", "uw"):
        if got.get(key) != data.get(key):
            problems.append(f"ak-act changed {key}")
    for i, want in enumerate(akact_reference(data, params)):
        err = _rel(dec_matrix(got["g"][i]), want)
        if err > 1e-9:
            problems.append(f"g[{i + 1}] off the expm reference by {err:.3e}")
    return problems


# ---------------------------------------------------------------- Lax

def check_lax_run(spec, code, doc) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    if problems:
        return problems
    alpha, beta0, t0 = spec["alpha"], spec["beta"], spec["t_start"]
    path = doc["path"]
    grid = np.asarray(path["grid"])
    want_grid = t0 + (spec["t_end"] - t0) * np.arange(spec["steps"] + 1) / spec["steps"]
    if grid.shape != want_grid.shape or np.max(np.abs(grid - want_grid)) > 1e-12:
        return ["wrong time grid"]
    alphas = dec_matrix(path["alpha"])
    if np.max(np.abs(alphas - alpha)) != 0.0:
        problems.append("constant alpha not reproduced exactly")
    betas = dec_matrix(path["beta"])
    # closed form of d(beta)/dt = [beta, alpha]: exp(-t alpha) beta0 exp(t alpha)
    worst = max(
        _rel(b, _expm(-t * alpha) @ beta0 @ _expm(t * alpha))
        for t, b in zip(grid - t0, betas)
    )
    if worst > 1e-8:
        problems.append(f"path off the closed-form solution by {worst:.3e}")
    if not 0.0 <= doc["lax_residual"] <= 1e-6 or not 0.0 <= doc["isospectral_drift"] <= 1e-8:
        problems.append("residual or drift above the bound")
    return problems


def check_lax_gauge(spec, code, doc) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    if problems:
        return problems
    alpha, beta0 = spec["alpha"], spec["beta"]
    T = spec["t_end"] - spec["t_start"]
    err = _rel(dec_matrix(doc["g_end"]), _expm(T * alpha))
    if err > 1e-8:
        problems.append(f"g_end off exp(T alpha) by {err:.3e}")
    if _rel(dec_matrix(doc["constant_matrix"]), beta0) > 1e-12:
        problems.append("constant matrix is not beta(t_start)")
    if not 0.0 <= doc["drift"] <= 1e-8:
        problems.append(f"drift {doc['drift']:.3e} above the bound")
    conds = [np.linalg.cond(_expm(t * alpha)) for t in np.linspace(0.0, T, spec["steps"] + 1)]
    if abs(doc["max_condition"] - max(conds)) > 1e-6 * max(conds):
        problems.append("max_condition disagrees with cond(exp(t alpha))")
    return problems


# ---------------------------------------------------------------- verify

# Defect bounds per report line, fixed here and in the README, so that no
# check relies on the tolerance a report gives itself.
VERIFY_BOUNDS = {
    "lie-poisson-bracket-table": 1e-7,
    "flow-commutation": 1e-10,
    "flow-conservation": 1e-10,
    "kw-relations": 1e-7,
    "kw-fd-cross-check": 1e-7,
    "lax-isospectral": 1e-9,
}
VERIFY_TESTS = {
    "bracket-table": ["lie-poisson-bracket-table"],
    "kw-check": ["kw-relations", "kw-fd-cross-check"],
    "verify-suite": [
        "lie-poisson-bracket-table", "flow-commutation", "flow-conservation",
        "kw-relations", "kw-fd-cross-check", "lax-isospectral",
    ],
}


def check_verify(spec, code, doc) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    if problems:
        return problems
    reports = doc["reports"]
    if [r["test"] for r in reports] != VERIFY_TESTS[spec["command"]]:
        return [f"unexpected report lines {[r['test'] for r in reports]}"]
    for r in reports:
        want_samples = min(spec["samples"], 10) if r["test"] == "lax-isospectral" else spec["samples"]
        if r["samples"] != want_samples:
            problems.append(f"{r['test']}: {r['samples']} samples, expected {want_samples}")
        if not 0.0 <= r["max_defect"] <= VERIFY_BOUNDS[r["test"]]:
            problems.append(f"{r['test']}: defect {r['max_defect']:.3e} above {VERIFY_BOUNDS[r['test']]:g}")
        if r["pass"] is not (r["max_defect"] <= r["tolerance"]):
            problems.append(f"{r['test']}: pass flag disagrees with its own defect")
    if doc["pass"] is not all(r["pass"] for r in reports):
        problems.append("overall pass flag disagrees with the report lines")
    return problems


CHECKERS = {
    "gz-map": check_gz_map,
    "gz-flow": check_gz_flow,
    "sregular": check_sregular,
    "orbit-count": check_orbit_count,
    "strata": check_strata,
    "vn_gz_flow": check_vn_flow,
    "tilde_a_flow": check_tilde_a,
    "enumerate-orbits": check_enumerate,
    "md-validate": check_md_validate,
    "polar": check_polar,
    "ak-act": check_ak_act,
    "lax-run": check_lax_run,
    "lax-gauge": check_lax_gauge,
    "verify-suite": check_verify,
    "kw-check": check_verify,
    "bracket-table": check_verify,
}
