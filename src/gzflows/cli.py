"""Command-line surface: JSON in, JSON out, deterministic seeding.

Exit codes: 0 success, 2 validation failure, 3 numerical failure (a defect
above tolerance), 64 unknown subcommand or usage error, 65 malformed input or a
request too large to allocate.
Identical requests produce byte-identical output.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace

import numpy as np

from . import gzcore, lax, ratmodel, serialize, verify
from .errors import ToleranceError, ValidationError, _gate
from .matpoly import CLUSTER_TOL, _abs, _blocks, _coincident, _frobenius, as_matrix

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65

# Every tolerance an answer is judged by: the --tol default of each subcommand
# that reads it, then the reports whose tolerance --tol does not set.
_TOLERANCES = {
    "gz-flow": 1e-9, "md-validate": ratmodel.VALIDATE_TOL,
    "kw-check": 1e-6, "bracket-table": 1e-6, "verify-suite": 1e-6,
    "lax-run": 1e-3, "lax-gauge": 1e-3, "orbit-count": CLUSTER_TOL, "strata": CLUSTER_TOL,
    "kw-fd-cross-check": 1e-7, "flow-commutation": 1e-9, "lax-isospectral": 1e-8,
}


def _random_matrix(rng: np.random.Generator, n: int, unit_norm: bool = True) -> np.ndarray:
    M = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    if unit_norm:
        M = M / np.linalg.norm(M)
    return M


def _random_chart(rng: np.random.Generator, n: int) -> ratmodel.OpenStratumChart:
    """Degrees (1, ..., n), each family in one draw; poles drawn until pairwise separated.

    The chart holds all N poles as one level: its flat point, its brackets and the two
    refusals of open_stratum_chart (coincident poles, a zero residue) do not depend on
    how the values split into levels.
    """
    # level i = 1..n of the one draw of 2N uniforms holds i real parts, then i imaginary parts
    sizes = np.repeat(np.arange(1, n + 1), np.arange(1, n + 1))
    real = np.arange(sizes.size) + sizes * (sizes - 1) // 2
    imag = real + sizes
    while True:
        u = rng.uniform(-2, 2, 2 * real.size)
        poles = u[real] + 1j * u[imag]
        if not _coincident(poles, 1e-2):
            break
    u = rng.uniform(-2, 2, 2 * real.size)
    residues = u[real] + 1j * u[imag]
    residues[np.abs(residues) < 0.1] += 0.5
    return ratmodel.open_stratum_chart([poles], [residues])


def _flow_triples(payload) -> list[tuple[int, int, complex]]:
    flows = payload.get("flows")
    if not isinstance(flows, list):
        raise ValueError("expected a 'flows' list of {m, i, z} objects")
    out = []
    for entry in flows:
        serialize._need_keys(entry, ("m", "i", "z"))
        m, i = (serialize._need_int(entry[key], f"flow index {key}", 1) for key in ("m", "i"))
        out.append((m, i, complex(serialize.decode_array(entry["z"], 0))))
    return out


def _require_matrix(payload, key: str = "matrix") -> np.ndarray:
    serialize._need_keys(payload, (key,))
    return as_matrix(serialize.decode_array(payload[key], 2))


def _require_polys(payload) -> list[np.ndarray]:
    polys = payload.get("polys")
    if not isinstance(polys, list) or not polys:
        raise ValueError("expected a nonempty 'polys' list")
    return [serialize.decode_array(p, 1) for p in polys]


def _verdict(reports: list[dict]):
    """The verification document of reports, and exit 3 unless every report passes."""
    ok = all(r["pass"] for r in reports)
    return {"reports": reports, "pass": ok}, EXIT_OK if ok else EXIT_NUMERICAL


def cmd_gz_map(payload, args):
    B = _require_matrix(payload)
    basis = payload.get("basis", args.mode or "tr-power")
    coords = gzcore.gz_map(B, basis=basis)
    return serialize.encode_coords(coords), EXIT_OK


def _conservation_defect(B: np.ndarray, moved: np.ndarray, m: int) -> float:
    """The largest relative change of the invariants from B to moved over the levels above m,
    both matrices as one stack: moved is a flow of B whose smallest moved level is m, and
    such a flow keeps every level k <= m to the bit."""
    return verify._change(*gzcore._level_values(np.stack([B, moved]), "tr-power", m + 1))


def cmd_gz_flow(payload, args):
    B = _require_matrix(payload)
    lam = gzcore._as_group_element(B.shape[0], _flow_triples(payload))
    moved = gzcore.gz_flow(B, lam)
    # items() is lexicographic: the first has the smallest m; a flow at m = n moves no level
    defect = _conservation_defect(B, moved, next((m for m, _, _ in lam.items()), B.shape[0]))
    # the flows conserve every invariant exactly: a larger defect is a wrong answer
    _gate(defect, args.tol, "flow does not conserve the invariants (defect {defect:.3e} > {tol:.1e})")
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
        sig = gzcore.stratum_signature(serialize.decode_coords(payload["coords"]), tol=args.tol)
    else:
        sig = gzcore.stratum_signature(_require_polys(payload), tol=args.tol)
    return {
        "signature": serialize.encode_signature(sig),
        "cluster_tol": float(sig.cluster_tol),
    }, EXIT_OK


def cmd_enumerate_orbits(payload, args):
    k = serialize._need_degrees(payload.get("k"))
    reps = ratmodel.enumerate_sr(k)
    entries = [{
        "sigma": list(sigma.values),
        "strongly_regular": bool(regular),
        "data": serialize.encode_matricial(F),
    } for F, (sigma, regular) in zip(reps, ratmodel._classified(reps, isotropy=True, stacklevel=2))]
    return {"k": list(k), "count": len(reps), "representatives": entries}, EXIT_OK


def _payload_matricial(payload) -> ratmodel.MatricialData:
    return ratmodel.md_validate(serialize.decode_matricial(payload.get("data", payload)))


def cmd_md_validate(payload, args):
    F = serialize.decode_matricial(payload.get("data", payload))
    try:
        ratmodel.md_validate(F, tol=args.tol)
    except ValidationError as exc:
        return {"valid": False, "violations": exc.violations}, EXIT_VALIDATION
    return {"valid": True, "violations": []}, EXIT_OK


def cmd_ak_act(payload, args):
    F = _payload_matricial(payload)
    params = payload.get("params")
    if not isinstance(params, list):
        raise ValueError("expected 'params' as a list of coefficient vectors")
    coeffs = [serialize.decode_array(p, 1) for p in params]
    moved = ratmodel.ak_act(F, coeffs)
    return {"data": serialize.encode_matricial(moved)}, EXIT_OK


def cmd_polar(payload, args):
    F = _payload_matricial(payload)
    return {
        "polys": [serialize.encode_array(q) for q in ratmodel.polar(F)]
    }, EXIT_OK


def _tensor_pairings(df: np.ndarray, pi: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """df[..., l, :] @ pi @ dg[..., m, :] at [..., l, m], each with the bits of
    (df[l] @ pi) @ dg[m] for one sample.

    A (1, d) @ (d, d) product per row and a (1, d) @ (d, 1) product per pair
    take the one gemv and the one dot that the 1-d products take.
    """
    left = np.matmul(df[..., :, None, :], pi[..., None, :, :])
    return np.matmul(left[..., :, None, :, :], dg[..., None, :, :, None])[..., 0, 0]


def cmd_kw_check(payload, args):
    n = serialize._need_int(payload.get("n", 3), "'n'", 1)
    rng = np.random.default_rng(args.seed)
    N = n * (n + 1) // 2
    # one FD Jacobian per function family: q_l = y[l] and s_l = 1 / rho_l
    q = lambda y: y[..., :N]  # noqa: E731
    s = lambda y: 1.0 / y[..., N:]  # noqa: E731
    worst = 0.0
    worst_cross = 0.0
    # the largest stacked temporaries: 16 N^2 probe entries, N^3 pairing terms
    for count in _blocks(args.samples, max(16 * N * N, N ** 3)):
        charts = [_random_chart(rng, n) for _ in range(count)]
        x = np.array([chart.flat() for chart in charts])
        inverted = ratmodel.chart_as_poisson_chart(charts[0])
        cross_pi = inverted.poisson_tensor(x)
        # a failing sample raises what it raises alone: its tensor check, then its gradients
        checked, _ = verify._antisymmetric_count(cross_pi)
        dq = verify.fd_gradient(q, x[:checked])
        ds = verify.fd_gradient(s, x[:checked])
        if checked < count:
            inverted.tensor_at(x[checked])  # raises that sample's own message
        # every pairing of rows l and m of each sample at [sample, l, m]
        rho = x[:, None, None, N:]
        val = ratmodel._chart_pairing(rho, dq[:, :, None], ds[:, None, :])
        expect = np.zeros(val.shape, dtype=complex)
        expect.reshape(count, N * N)[:, :: N + 1] = 1.0 / x[:, N:]
        cross = _tensor_pairings(dq, cross_pi, ds)
        # np.max keeps a NaN that max() would drop
        worst = np.max([
            worst,
            np.max(_abs(val - expect) / (1.0 + _abs(expect))),
            np.max(_abs(ratmodel._chart_pairing(rho, dq[:, :, None], dq[:, None, :]))),
            np.max(_abs(ratmodel._chart_pairing(rho, ds[:, :, None], ds[:, None, :]))),
        ])
        worst_cross = np.maximum(worst_cross, np.max(_abs(val - cross)))
    return _verdict([
        verify.report("kw-relations", args.samples, worst, args.tol),
        verify.report("kw-fd-cross-check", args.samples, worst_cross, _TOLERANCES["kw-fd-cross-check"]),
    ])


def cmd_bracket_table(payload, args):
    n = serialize._need_int(payload.get("n", 3), "'n'", 1)
    pairs = n * (n + 1) // 2 * (n * (n + 1) // 2 - 1) // 2
    if pairs * n * n >= np.iinfo(np.intp).max:  # one sample's products, refused before any index list
        raise ValueError(f"n = {n} is too large: one sample's bracket products hold more entries than numpy can index")
    rng = np.random.default_rng(args.seed)
    indices = gzcore.gz_indices(n)
    a, b = np.triu_indices(len(indices), 1)
    worst = 0.0
    # the largest stacked temporaries: a product for every pair a < b of each sample
    for count in _blocks(args.samples, a.size * n * n):
        B = np.array([_random_matrix(rng, n, unit_norm=False) for _ in range(count)])
        # exact trace-pairing gradient of tr(B_m^i): i * pad(B_m^(i-1)), at [index, sample]
        grads = np.array([i * gzcore._padded_minor_power(B, m, i) for m, i in indices])
        norms = _frobenius(grads)
        # every pair a < b of every sample at once
        vals = np.trace(B @ (grads[a] @ grads[b] - grads[b] @ grads[a]), axis1=-2, axis2=-1)
        scales = 1.0 + _frobenius(B) * norms[a] * norms[b]
        worst = np.maximum(worst, np.max(_abs(vals) / scales, initial=0.0))
    return _verdict([verify.report("lie-poisson-bracket-table", args.samples, worst, args.tol)])


def _alpha_from_spec(spec):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("alpha spec needs a 'type'")
    if spec["type"] == "constant":
        M = serialize.decode_array(spec.get("matrix"), 2)
        return lambda t: M
    if spec["type"] == "polynomial":
        coeffs = spec.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise ValueError("polynomial alpha needs matrix coefficients")
        mats = serialize.decode_array(coeffs, 3)

        def polynomial(t):
            # finite coefficients at a finite time: a value that is not finite overflowed
            with np.errstate(over="ignore", invalid="ignore"):
                value = sum(mats[j] * t ** j for j in range(len(mats)))
            if not np.isfinite(value).all():
                raise ToleranceError(f"alpha overflowed (not finite at t = {t:.6g})")
            return value
        return polynomial
    raise ValueError(f"unknown alpha type {spec['type']!r}")


def cmd_lax_run(payload, args):
    serialize._need_keys(payload, ("alpha", "beta", "t_start", "t_end", "steps"))
    alpha_fn = _alpha_from_spec(payload["alpha"])
    beta = serialize.decode_array(payload["beta"], 2)
    t_start, t_end = (serialize._need_real(payload[key], f"'{key}'") for key in ("t_start", "t_end"))
    steps = serialize._need_int(payload["steps"], "'steps'", 1)
    path = lax.lax_integrate(alpha_fn, beta, t_start, t_end, steps)
    # lax-gauge's gate: no path is written that lax-gauge would refuse
    residual = _gate(lax.lax_residual(path), args.tol,
                     "Lax path is inaccurate (residual {defect:.3e} > {tol:.1e}); take more steps")
    return {
        "path": serialize.encode_lax_path(path),
        "lax_residual": float(residual),
        "isospectral_drift": float(lax.isospectral_drift(path)),
    }, EXIT_OK


def cmd_lax_gauge(payload, args):
    path = serialize.decode_lax_path(payload.get("path", payload))
    result = lax.gauge_fix_regular(path, residual_tol=args.tol)
    return {
        "g_end": serialize.encode_array(result.g_end),
        "constant_matrix": serialize.encode_array(result.constant_matrix),
        "drift": float(result.drift),
        "max_condition": float(result.max_condition),
    }, EXIT_OK


def cmd_verify_suite(payload, args):
    n = serialize._need_int(payload.get("n", 3), "'n'", 2)
    rng = np.random.default_rng(args.seed)
    reports = cmd_bracket_table({"n": n}, args)[0]["reports"]

    indices = gzcore.gz_indices(n - 1)
    worst_comm = 0.0
    worst_cons = 0.0
    for _ in range(args.samples):
        B = _random_matrix(rng, n)
        m1, i1 = indices[rng.integers(len(indices))]
        m2, i2 = indices[rng.integers(len(indices))]
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        # each flow of B once, for both checks; after the other flow a factor is taken again
        # only at the larger m, since a flow at m keeps B[:m, :m] to the bit and a factor
        # reads only its minor (a z of 0 gives exp(0) = I, which moves no reported figure)
        g1, g2 = gzcore.flow_factor(B, m1, i1, z1), gzcore.flow_factor(B, m2, i2, z2)
        moved1, moved2 = gzcore._move(B, g1, m1, i1), gzcore._move(B, g2, m2, i2)
        h1 = g1 if m1 <= m2 else gzcore.flow_factor(moved2, m1, i1, z1)
        h2 = g2 if m2 <= m1 else gzcore.flow_factor(moved1, m2, i2, z2)
        flow1 = lambda M: moved1 if M is B else gzcore._move(M, h1, m1, i1)
        flow2 = lambda M: moved2 if M is B else gzcore._move(M, h2, m2, i2)
        worst_comm = np.maximum(worst_comm, verify.commute_defect(flow1, flow2, B))
        worst_cons = np.maximum(worst_cons, _conservation_defect(B, moved1, m1))
    reports += [
        verify.report("flow-commutation", args.samples, worst_comm, _TOLERANCES["flow-commutation"]),
        # gz-flow's gate: a flow that passes here is one gz-flow answers
        verify.report("flow-conservation", args.samples, worst_cons, _TOLERANCES["gz-flow"]),
    ]
    reports += cmd_kw_check({"n": min(n, 3)}, args)[0]["reports"]

    # every (alpha, beta) first, then all paths in one integration
    paths = min(args.samples, 10)
    pairs = [(_random_matrix(rng, n), _random_matrix(rng, n)) for _ in range(paths)]
    alphas, betas = (np.array(x) for x in zip(*pairs))
    path = lax.lax_integrate(lambda t: alphas, betas, 0.0, 1.0, 200)
    worst_iso = np.max(lax.isospectral_drift(path))
    reports.append(verify.report("lax-isospectral", paths, worst_iso, _TOLERANCES["lax-isospectral"]))
    return _verdict(reports)


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


def _at_least(low: int):
    """The converter of an integer option of at least ``low``; below it is a usage error."""
    def integer(text: str) -> int:
        if (value := int(text)) < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return integer


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"must be positive and finite, got {text}")
    return tol


# Every option of every subcommand, as --name: its converter and its default (--tol's
# default is the subcommand's entry of _TOLERANCES).
_OPTIONS = {
    "input": (str, None),
    "output": (str, None),
    "seed": (_at_least(0), 0),
    "samples": (_at_least(1), 50),
    "tol": (_tolerance, None),
    "mode": (str, None),
}


def _parse_options(name: str, argv) -> SimpleNamespace | None:
    """The options of a ``name`` request, or None for -h/--help.

    Each option is ``--name value`` or ``--name=value`` with an exact name (a value that
    starts with ``--`` needs the second form); the last occurrence wins.  An unknown option, a missing value, a positional argument or a value
    its converter refuses raises ValueError (a usage error).
    """
    values = {key: default for key, (_, default) in _OPTIONS.items()}
    values["tol"] = _TOLERANCES.get(name)
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        option, eq, text = token.partition("=")
        key = option[2:]
        if not option.startswith("--") or key not in _OPTIONS:
            raise ValueError(f"unrecognized argument: {token}")
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ValueError(f"{option} expects a value")
        try:
            values[key] = _OPTIONS[key][0](text)
        except ValueError as exc:
            raise ValueError(f"{option}: {exc}") from None
    return SimpleNamespace(**values)


def _load_payload(arg: str | None):
    if arg is None:
        return {}
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read input file: {exc}") from exc
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to decode
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("top-level input must be a JSON object")
    return payload


def _emit(doc, output: str | None) -> None:
    # render every piece before opening: a refused document leaves an existing file untouched
    pieces = serialize._pieces(doc)
    pieces.append("\n")
    if output is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from exc


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
    try:
        args = _parse_options(name, argv[1:])
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n{USAGE}\n")
        return EXIT_USAGE
    if args is None:
        sys.stdout.write(USAGE + "\n")
        return EXIT_OK
    # a request's payload and answer die when it returns: no collection pass need scan
    # them, so the collector pauses for the request and resumes as the caller had it
    collecting = gc.isenabled()
    gc.disable()
    try:
        payload = _load_payload(args.input)
        doc, code = handler(payload, args)
        _emit(doc, args.output)
    except (ValueError, TypeError) as exc:
        # every intake raises ValueError or TypeError on input it cannot take
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_BAD_INPUT
    except MemoryError as exc:
        # numpy's text names the allocation that failed; a bare MemoryError has no text
        sys.stderr.write(f"input error: request too large: {str(exc) or 'out of memory'}\n")
        return EXIT_BAD_INPUT
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        for item in exc.violations:
            sys.stderr.write(f"  - {item}\n")
        return EXIT_VALIDATION
    except ToleranceError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    finally:
        if collecting:
            gc.enable()
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
