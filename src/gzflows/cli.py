"""Command-line surface: JSON in, JSON out, deterministic seeding.

Exit codes: 0 success, 2 validation failure, 3 numerical failure (a defect
above tolerance), 64 unknown subcommand or usage error, 65 malformed input.
Identical requests produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import gzcore, lax, ratmodel, serialize, verify
from .errors import InputError, ToleranceError, ValidationError
from .matpoly import as_matrix

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65


def _random_matrix(rng: np.random.Generator, n: int, unit_norm: bool = True) -> np.ndarray:
    M = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    if unit_norm:
        M = M / np.linalg.norm(M)
    return M


def _random_chart(rng: np.random.Generator, n: int) -> ratmodel.OpenStratumChart:
    # degrees (1, ..., n); poles drawn until pairwise separated
    while True:
        poles = [rng.uniform(-2, 2, i) + 1j * rng.uniform(-2, 2, i) for i in range(1, n + 1)]
        flat = np.concatenate(poles)
        gaps = [
            abs(flat[a] - flat[b])
            for a in range(flat.size)
            for b in range(a + 1, flat.size)
        ]
        if not gaps or min(gaps) > 1e-2:
            break
    residues = []
    for i in range(1, n + 1):
        r = rng.uniform(-2, 2, i) + 1j * rng.uniform(-2, 2, i)
        r[np.abs(r) < 0.1] += 0.5
        residues.append(r)
    return ratmodel.open_stratum_chart(poles, residues)


def _flow_triples(payload) -> list[tuple[int, int, complex]]:
    flows = payload.get("flows")
    if not isinstance(flows, list):
        raise InputError("expected a 'flows' list of {m, i, z} objects")
    out = []
    for entry in flows:
        if not isinstance(entry, dict) or not {"m", "i", "z"} <= set(entry):
            raise InputError("each flow needs keys m, i, z")
        if not isinstance(entry["m"], int) or not isinstance(entry["i"], int):
            raise InputError("flow indices must be integers")
        out.append((entry["m"], entry["i"], complex(serialize.decode_array(entry["z"], 0))))
    return out


def _require_matrix(payload, key: str = "matrix") -> np.ndarray:
    if key not in payload:
        raise InputError(f"missing key: {key}")
    return as_matrix(serialize.decode_array(payload[key], 2))


def _require_polys(payload) -> list[np.ndarray]:
    polys = payload.get("polys")
    if not isinstance(polys, list) or not polys:
        raise InputError("expected a nonempty 'polys' list")
    return [serialize.decode_array(p, 1) for p in polys]


def cmd_gz_map(payload, args):
    B = _require_matrix(payload)
    basis = payload.get("basis", args.mode or "tr-power")
    coords = gzcore.gz_map(B, basis=basis)
    return serialize.encode_coords(coords), EXIT_OK


def cmd_gz_flow(payload, args):
    B = _require_matrix(payload)
    triples = _flow_triples(payload)
    n = B.shape[0]
    lam = gzcore.GZGroupElement.from_pairs(n, triples)
    moved = gzcore.gz_flow(B, lam)
    defect = verify.conservation_defect(
        lambda M: gzcore.gz_flow(M, lam), lambda M: gzcore.gz_map(M).values, B
    )
    return {
        "matrix": serialize.encode_array(moved),
        "conservation_defect": float(defect),
    }, EXIT_OK


def cmd_sregular(payload, args):
    B = _require_matrix(payload)
    flag, rank = gzcore.strongly_regular(B)
    n = B.shape[0]
    return {
        "strongly_regular": bool(flag),
        "rank": int(rank),
        "required_rank": n * (n - 1) // 2,
    }, EXIT_OK


def cmd_orbit_count(payload, args):
    polys = _require_polys(payload)
    mode = payload.get("mode", args.mode or "matrices")
    data = gzcore.fiber_orbit_data(polys, mode=mode, tol=args.tol)
    return {
        "t": data.t,
        "s": data.s,
        "count": data.count,
        "shape": data.shape,
        "roots": serialize.encode_array(np.array(data.roots)),
    }, EXIT_OK


def cmd_strata(payload, args):
    if "coords" in payload:
        obj = payload["coords"]
        serialize._need_keys(obj, ("n", "basis", "values"))
        coords = gzcore.GZCoordinates(
            n=obj["n"], basis=obj["basis"], values=serialize.decode_array(obj["values"], 1)
        )
        sig = gzcore.stratum_signature(coords, tol=args.tol)
    else:
        sig = gzcore.stratum_signature(_require_polys(payload), tol=args.tol)
    return {
        "signature": serialize.encode_signature(sig),
        "cluster_tol": float(sig.cluster_tol),
    }, EXIT_OK


def cmd_enumerate_orbits(payload, args):
    k = payload.get("k")
    if not isinstance(k, list) or not all(isinstance(x, int) for x in k):
        raise InputError("expected 'k' as a list of integers")
    reps = ratmodel.enumerate_sr(k)
    entries = []
    for F in reps:
        sigma = ratmodel.sigma_of(F)
        entries.append({
            "sigma": list(sigma.values),
            "strongly_regular": bool(ratmodel.md_strongly_regular(F)),
            "data": serialize.encode_matricial(F),
        })
    return {"k": list(k), "count": len(reps), "representatives": entries}, EXIT_OK


def _payload_matricial(payload) -> ratmodel.MatricialData:
    return ratmodel.md_validate(serialize.decode_matricial(payload.get("data", payload)))


def cmd_md_validate(payload, args):
    F = serialize.decode_matricial(payload.get("data", payload))
    try:
        ratmodel.md_validate(F, tol=args.tol or ratmodel.VALIDATE_TOL)
    except ValidationError as exc:
        return {"valid": False, "violations": exc.violations}, EXIT_VALIDATION
    return {"valid": True, "violations": []}, EXIT_OK


def cmd_ak_act(payload, args):
    F = _payload_matricial(payload)
    params = payload.get("params")
    if not isinstance(params, list):
        raise InputError("expected 'params' as a list of coefficient vectors")
    coeffs = [serialize.decode_array(p, 1) for p in params]
    moved = ratmodel.ak_act(F, coeffs)
    return {"data": serialize.encode_matricial(moved)}, EXIT_OK


def cmd_polar(payload, args):
    F = _payload_matricial(payload)
    return {
        "polys": [serialize.encode_array(q) for q in ratmodel.polar(F)]
    }, EXIT_OK


def cmd_kw_check(payload, args):
    n = payload.get("n", 3)
    if not isinstance(n, int) or n < 1:
        raise InputError("'n' must be a positive integer")
    rng = np.random.default_rng(args.seed)
    tol = args.tol or 1e-6
    cross_tol = 1e-7
    worst = 0.0
    worst_cross = 0.0
    for _ in range(args.samples):
        chart = _random_chart(rng, n)
        N = chart.size
        x = chart.flat()
        rho = x[N:]
        cross_pi = ratmodel.chart_as_poisson_chart(chart).tensor_at(x)
        # one FD gradient per function: q_l = y[l] and s_l = 1 / rho_l
        dq = [verify.fd_gradient(lambda y, l=l: y[l], x) for l in range(N)]
        ds = [verify.fd_gradient(lambda y, l=l: 1.0 / y[N + l], x) for l in range(N)]
        for l in range(N):
            for m in range(N):
                val = ratmodel._chart_pairing(rho, dq[l], ds[m])
                expect = (1.0 / x[N + m]) if l == m else 0.0
                worst = max(worst, abs(val - expect) / (1.0 + abs(expect)))
                cross = complex(dq[l] @ cross_pi @ ds[m])
                worst_cross = max(worst_cross, abs(val - cross))
                worst = max(
                    worst,
                    abs(ratmodel._chart_pairing(rho, dq[l], dq[m])),
                    abs(ratmodel._chart_pairing(rho, ds[l], ds[m])),
                )
    reports = [
        verify.report("kw-relations", args.samples, worst, tol),
        verify.report("kw-fd-cross-check", args.samples, worst_cross, cross_tol),
    ]
    ok = all(r["pass"] for r in reports)
    return {"reports": reports, "pass": ok}, EXIT_OK if ok else EXIT_NUMERICAL


def cmd_bracket_table(payload, args):
    n = payload.get("n", 3)
    if not isinstance(n, int) or n < 1:
        raise InputError("'n' must be a positive integer")
    rng = np.random.default_rng(args.seed)
    tol = args.tol or 1e-6
    indices = gzcore.gz_indices(n)

    worst = 0.0
    for _ in range(args.samples):
        B = _random_matrix(rng, n, unit_norm=False)
        # exact trace-pairing gradient of tr(B_m^i): i * pad(B_m^(i-1))
        grads = [i * gzcore._padded_minor_power(B, m, i) for m, i in indices]
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                gf, gg = grads[a], grads[b]
                val = np.trace(B @ (gf @ gg - gg @ gf))
                scale = 1.0 + np.linalg.norm(B) * np.linalg.norm(gf) * np.linalg.norm(gg)
                worst = max(worst, abs(val) / scale)
    rep = verify.report("lie-poisson-bracket-table", args.samples, worst, tol)
    return {"reports": [rep], "pass": rep["pass"]}, (
        EXIT_OK if rep["pass"] else EXIT_NUMERICAL
    )


def _alpha_from_spec(spec):
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("alpha spec needs a 'type'")
    if spec["type"] == "constant":
        M = serialize.decode_array(spec.get("matrix"), 2)
        return lambda t: M
    if spec["type"] == "polynomial":
        coeffs = spec.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise InputError("polynomial alpha needs matrix coefficients")
        mats = serialize.decode_array(coeffs, 3)
        return lambda t: sum(mats[j] * t ** j for j in range(len(mats)))
    raise InputError(f"unknown alpha type {spec['type']!r}")


def cmd_lax_run(payload, args):
    serialize._need_keys(payload, ("alpha", "beta", "t_start", "t_end", "steps"))
    alpha_fn = _alpha_from_spec(payload["alpha"])
    beta = serialize.decode_array(payload["beta"], 2)
    path = lax.lax_integrate(
        alpha_fn, beta, float(payload["t_start"]), float(payload["t_end"]),
        int(payload["steps"]),
    )
    return {
        "path": serialize.encode_lax_path(path),
        "lax_residual": float(lax.lax_residual(path)),
        "isospectral_drift": float(lax.isospectral_drift(path)),
    }, EXIT_OK


def cmd_lax_gauge(payload, args):
    path = serialize.decode_lax_path(payload.get("path", payload))
    result = lax.gauge_fix_regular(path, residual_tol=args.tol or 1e-3)
    return {
        "g_end": serialize.encode_array(result.g_end),
        "constant_matrix": serialize.encode_array(result.constant_matrix),
        "drift": float(result.drift),
        "max_condition": float(result.max_condition),
    }, EXIT_OK


def cmd_verify_suite(payload, args):
    n = payload.get("n", 3)
    if not isinstance(n, int) or n < 2:
        raise InputError("'n' must be an integer >= 2")
    rng = np.random.default_rng(args.seed)
    reports = []

    table_doc, _ = cmd_bracket_table({"n": n}, args)
    reports += table_doc["reports"]

    indices = [(m, i) for m in range(1, n) for i in range(1, m + 1)]
    worst_comm = 0.0
    worst_cons = 0.0
    for _ in range(args.samples):
        B = _random_matrix(rng, n)
        m1, i1 = indices[rng.integers(len(indices))]
        m2, i2 = indices[rng.integers(len(indices))]
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        flow1 = lambda M: gzcore.gz_flow(M, [(m1, i1, z1)])
        flow2 = lambda M: gzcore.gz_flow(M, [(m2, i2, z2)])
        worst_comm = max(worst_comm, verify.commute_defect(flow1, flow2, B))
        worst_cons = max(
            worst_cons,
            verify.conservation_defect(flow1, lambda M: gzcore.gz_map(M).values, B),
        )
    reports.append(verify.report("flow-commutation", args.samples, worst_comm, 1e-9))
    reports.append(verify.report("flow-conservation", args.samples, worst_cons, 1e-9))

    kw_doc, _ = cmd_kw_check({"n": min(n, 3)}, args)
    reports += kw_doc["reports"]

    worst_iso = 0.0
    for _ in range(min(args.samples, 10)):
        alpha = _random_matrix(rng, n)
        beta = _random_matrix(rng, n)
        path = lax.lax_integrate(lambda t: alpha, beta, 0.0, 1.0, 200)
        worst_iso = max(worst_iso, lax.isospectral_drift(path))
    reports.append(verify.report("lax-isospectral", min(args.samples, 10), worst_iso, 1e-8))

    ok = all(r["pass"] for r in reports)
    return {"reports": reports, "pass": ok}, EXIT_OK if ok else EXIT_NUMERICAL


HANDLERS = {
    "gz-map": cmd_gz_map,
    "gz-flow": cmd_gz_flow,
    "sregular": cmd_sregular,
    "orbit-count": cmd_orbit_count,
    "strata": cmd_strata,
    "enumerate-orbits": cmd_enumerate_orbits,
    "md-validate": cmd_md_validate,
    "ak-act": cmd_ak_act,
    "polar": cmd_polar,
    "kw-check": cmd_kw_check,
    "bracket-table": cmd_bracket_table,
    "lax-run": cmd_lax_run,
    "lax-gauge": cmd_lax_gauge,
    "verify-suite": cmd_verify_suite,
}

USAGE = (
    "usage: gzflows SUBCOMMAND [--input PATH|JSON] [--output PATH] "
    "[--seed N] [--samples N] [--tol X] [--mode NAME]\n"
    "subcommands: " + ", ".join(sorted(HANDLERS))
)


def _sample_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (tol > 0 and np.isfinite(tol)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return tol


@functools.cache
def _build_parser(name: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"gzflows {name}", add_help=True)
    parser.add_argument("--input", default=None, help="input file path or inline JSON")
    parser.add_argument("--output", default=None, help="output file path (default stdout)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=_sample_count, default=50)
    parser.add_argument("--tol", type=_tolerance, default=None)
    parser.add_argument("--mode", default=None)
    return parser


def _load_payload(arg: str | None):
    if arg is None:
        return {}
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read input file: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("top-level input must be a JSON object")
    return payload


def _emit(doc, output: str | None) -> None:
    # render before opening: a refused document leaves an existing file untouched
    text = serialize._dumps(doc) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file: {exc}") from exc


def run(argv) -> int:
    if not argv:
        sys.stderr.write(USAGE + "\n")
        return EXIT_USAGE
    name = argv[0]
    if name in ("-h", "--help"):
        sys.stdout.write(USAGE + "\n")
        return EXIT_OK
    handler = HANDLERS.get(name)
    if handler is None:
        sys.stderr.write(f"unknown subcommand: {name}\n{USAGE}\n")
        return EXIT_USAGE
    parser = _build_parser(name)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        payload = _load_payload(args.input)
        doc, code = handler(payload, args)
        _emit(doc, args.output)
    except (InputError, ValueError, TypeError) as exc:
        # library code raises ValueError/TypeError on input it cannot take
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_BAD_INPUT
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        for item in exc.violations:
            sys.stderr.write(f"  - {item}\n")
        return EXIT_VALIDATION
    except ToleranceError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
