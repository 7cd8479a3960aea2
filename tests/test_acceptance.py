"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Run with ``pytest -s`` to see the
lines live; they also appear in captured output on failure.
"""

import time

import numpy as np

from gzflows.errors import ValidationError
from gzflows.gzcore import (
    fiber_orbit_data,
    gz_flow,
    gz_map,
    strongly_regular,
)
from gzflows.lax import gauge_apply, gauge_fix_regular, lax_integrate
from gzflows.matpoly import (
    charpoly,
    companion_of,
    matexp,
    newton_convert,
    poly_from_roots,
    roots,
)
from gzflows.ratmodel import (
    ak_act,
    chart_as_poisson_chart,
    chart_bracket,
    enumerate_sr,
    fixture_from_polar,
    gk_act,
    md_strongly_regular,
    md_validate,
    open_stratum_chart,
    polar,
    sigma_of,
)
from gzflows.spaces import cotangent_validate, tgl_flow
from gzflows.verify import commute_defect, conservation_defect
from oracles import lie_poisson_bracket, pairing_residual, poisson_bracket, trace

_MODULE_START = time.monotonic()


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def bidisk_matrix(rng, n, unit_norm=False):
    M = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return M / np.linalg.norm(M) if unit_norm else M


def separated_roots(rng, count, spread=2.0):
    while True:
        r = rng.uniform(-spread, spread, count) + 1j * rng.uniform(-spread, spread, count)
        gaps = [abs(r[a] - r[b]) for a in range(count) for b in range(a + 1, count)]
        if not gaps or min(gaps) > 0.3:
            return r


def test_criterion_1_poisson_commutativity():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for n in (3, 4):
        indices = [(m, i) for m in range(1, n + 1) for i in range(1, m + 1)]
        funcs = {
            (m, i): (lambda M, m=m, i=i: trace(np.linalg.matrix_power(M[..., :m, :m], i)))
            for (m, i) in indices
        }
        for _ in range(50):
            B = bidisk_matrix(rng, n)
            for a in range(len(indices)):
                for b in range(a + 1, len(indices)):
                    f, g = funcs[indices[a]], funcs[indices[b]]
                    val = lie_poisson_bracket(f, g, B)
                    m1, i1 = indices[a]
                    m2, i2 = indices[b]
                    scale = 1.0 + np.linalg.norm(B) ** (i1 + i2 - 1)
                    worst = max(worst, abs(val) / scale)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-6 and elapsed <= 10.0
    _report(1, "Poisson commutativity of the invariants", ok,
            f"max_scaled_defect={worst:.3e} runtime={elapsed:.1f}s")


def test_criterion_2_flow_commutativity_and_conservation():
    rng = np.random.default_rng(102)
    worst_comm = 0.0
    worst_cons = 0.0
    for trial in range(50):
        n = 2 + trial % 4  # n = 2..5
        B = bidisk_matrix(rng, n, unit_norm=True)
        idx = [(m, i) for m in range(1, n) for i in range(1, m + 1)]
        m1, i1 = idx[rng.integers(len(idx))]
        m2, i2 = idx[rng.integers(len(idx))]
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        flow1 = lambda M: gz_flow(M, [(m1, i1, z)])
        flow2 = lambda M: gz_flow(M, [(m2, i2, w)])
        worst_comm = max(worst_comm, commute_defect(flow1, flow2, B))
        worst_cons = max(
            worst_cons,
            conservation_defect(flow1, lambda M: gz_map(M).values, B),
        )
    ok = worst_comm <= 1e-9 and worst_cons <= 1e-9
    _report(2, "flow commutativity and conservation", ok,
            f"commute={worst_comm:.3e} conserve={worst_cons:.3e}")


# hand-built polynomial families: (mode, polynomials, expected t, expected s)
_Z = [0, 1]
ORBIT_FAMILIES = [
    ("matrices", [[0, 1], [0, 0, 1]], 1, 2),
    ("matrices", [poly_from_roots([1]), poly_from_roots([2, 3])], 0, 3),
    ("matrices", [poly_from_roots([1]), poly_from_roots([1, 5])], 1, 3),
    ("matrices", [poly_from_roots([7]), poly_from_roots([7, 7])], 1, 2),
    ("matrices", [[0, 1], [0, 0, 1], [0, 0, 0, 1]], 2, 3),
    ("matrices", [poly_from_roots([1]), poly_from_roots([1, 2]),
                  poly_from_roots([1, 2, 3])], 3, 6),
    ("matrices", [poly_from_roots([0]), poly_from_roots([0, 1]),
                  poly_from_roots([0, 0, 1])], 3, 5),
    ("matrices", [poly_from_roots([5]), poly_from_roots([1, -1]),
                  poly_from_roots([2, 3, 4])], 0, 6),
    ("matrices", [poly_from_roots([0]), poly_from_roots([1, 2]),
                  poly_from_roots([0, 1, 2])], 2, 6),
    ("matrices", [[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]], 3, 4),
    ("matrices", [poly_from_roots([1]), poly_from_roots([1, 1]),
                  poly_from_roots([2, 2, 2]), poly_from_roots([2, 2, 2, 2])], 2, 4),
    ("matrices", [poly_from_roots([0]), poly_from_roots([0, 3]),
                  poly_from_roots([3, 3, 4])], 2, 5),
    ("matrices", [poly_from_roots([-2]), poly_from_roots([-2, 1])], 1, 3),
    ("rational-maps", [_Z, _Z], 1, 2),
    ("rational-maps", [_Z, poly_from_roots([1])], 0, 2),
    ("rational-maps", [poly_from_roots([0, 1]), _Z], 1, 3),
    ("rational-maps", [_Z, [1], _Z], 0, 2),
    ("rational-maps", [[0, 0, 1], [0, 0, 1]], 1, 2),
    ("rational-maps", [_Z, [0, 0, 1], [0, 0, 0, 1]], 2, 3),
    ("rational-maps", [poly_from_roots([0, 1]), poly_from_roots([1, 2])], 1, 4),
]


def test_criterion_3_orbit_counts():
    failures = []
    for k in [(1, 1), (1, 1, 1), (1, 2), (2, 2), (1, 2, 3)]:
        reps = enumerate_sr(k)
        expected = 2 ** (len(k) - 1)
        sigmas = set()
        for F in reps:
            md_validate(F)
            sig = sigma_of(F).values
            sigmas.add(sig)
            if 0 in sig or not md_strongly_regular(F):
                failures.append(f"k={k}: representative not strongly regular")
        if len(reps) != expected or len(sigmas) != expected:
            failures.append(f"k={k}: {len(reps)} reps, {len(sigmas)} sign words")

    assert len(ORBIT_FAMILIES) == 20
    for mode, polys, t_want, s_want in ORBIT_FAMILIES:
        data = fiber_orbit_data(polys, mode=mode, tol=1e-3)
        if (data.t, data.s, data.count) != (t_want, s_want, 2 ** t_want):
            failures.append(
                f"{mode} family {polys}: got (t={data.t}, s={data.s}), "
                f"want (t={t_want}, s={s_want})"
            )

    # exhaustive 2x2 check on the nilpotent fiber chi = (z, z^2):
    # the fiber is {[[0,b],[a,0]] : ab = 0}; each punctured axis is one
    # maximal orbit of the single flow and the origin is fixed
    data = fiber_orbit_data([[0, 1], [0, 0, 1]], mode="matrices")
    if data.count != 2:
        failures.append("2x2 nilpotent fiber count is not 2")
    axis_a = [np.array([[0, 0], [a, 0]], dtype=complex) for a in (1.0, -2.0, 0.5j)]
    axis_b = [np.array([[0, b], [0, 0]], dtype=complex) for b in (1.0, 3.0, -1j)]
    for p in axis_a + axis_b:
        if strongly_regular(p) != (True, 1):
            failures.append("axis point not strongly regular")
    if strongly_regular(np.zeros((2, 2)))[0]:
        failures.append("origin misclassified")
    for pts in (axis_a, axis_b):
        for src, dst in zip(pts, pts[1:]):
            # the flow scales the upper slot by e^z and the lower by e^-z
            src_val = src[0, 1] + src[1, 0]
            dst_val = dst[0, 1] + dst[1, 0]
            sign = -1.0 if abs(src[1, 0]) > 0 else 1.0
            moved = gz_flow(src, [(1, 1, sign * np.log(dst_val / src_val))])
            if np.max(np.abs(moved - dst)) > 1e-10:
                failures.append("flow does not connect same-axis points")
    _report(3, "strongly regular orbit counts", not failures, "; ".join(failures))


def test_criterion_4_kostant_wallach_relations():
    rng = np.random.default_rng(104)
    worst_rel = 0.0
    worst_cross = 0.0
    for trial in range(50):
        n = 2 + trial % 3  # n = 2..4
        sizes = list(range(1, n + 1))
        flat = separated_roots(rng, sum(sizes))
        poles, pos = [], 0
        for s in sizes:
            poles.append(flat[pos : pos + s])
            pos += s
        residues = [rng.uniform(0.5, 1.5, s) + 1j * rng.uniform(-1, 1, s) for s in sizes]
        chart = open_stratum_chart(poles, residues)
        N = chart.size
        x = chart.flat()
        cross = chart_as_poisson_chart(chart)
        for l in range(N):
            for m in range(N):
                r_l = lambda y, l=l: y[..., l]
                s_m = lambda y, m=m: 1.0 / y[..., N + m]
                val = chart_bracket(chart, r_l, s_m)
                want = (1.0 / x[N + m]) if l == m else 0.0
                worst_rel = max(worst_rel, abs(val - want) / (1.0 + abs(want)))
                worst_rel = max(
                    worst_rel, abs(chart_bracket(chart, r_l, lambda y, m=m: y[..., m]))
                )
                worst_rel = max(
                    worst_rel,
                    abs(chart_bracket(chart, lambda y, l=l: 1.0 / y[..., N + l], s_m)),
                )
                if l == m or (l + m) % 5 == 0:  # cross-check a deterministic subset
                    fd = poisson_bracket(cross, r_l, s_m, x)
                    worst_cross = max(worst_cross, abs(val - fd))
    ok = worst_rel <= 1e-6 and worst_cross <= 1e-7
    _report(4, "Kostant-Wallach chart relations", ok,
            f"relations={worst_rel:.3e} fd_cross={worst_cross:.3e}")


def test_criterion_5_descent_and_right_flows():
    rng = np.random.default_rng(105)
    worst_cons = 0.0
    exact = True
    for trial in range(50):
        n = 2 + trial % 3
        g = np.eye(n) + 0.4 * bidisk_matrix(rng, n, unit_norm=True)
        B = bidisk_matrix(rng, n, unit_norm=True)
        x = cotangent_validate(g, B)
        for m in range(1, n + 1):
            for i in range(1, m + 1):
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                left = tgl_flow(x, "left", m, i, z)
                if not np.array_equal(left.B, gz_flow(B, [(m, i, z)])):
                    exact = False
                right = tgl_flow(x, "right", m, i, z)
                if right.B is not x.B and not np.array_equal(right.B, x.B):
                    exact = False
        moved = x
        before = gz_map(x.right_moment()).values
        for m in range(1, n):
            moved = tgl_flow(moved, "right", m, 1, complex(rng.uniform(-1, 1)))
        after = gz_map(moved.right_moment()).values
        worst_cons = max(worst_cons,
                         float(np.max(np.abs(after - before) / (1 + np.abs(before)))))
    ok = exact and worst_cons <= 1e-9
    _report(5, "descent of cotangent flows", ok,
            f"bit_exact={exact} right_conservation={worst_cons:.3e}")


def test_criterion_6_matricial_model_consistency():
    rng = np.random.default_rng(106)
    failures = []

    # constructive fixtures validate; polar survives both group actions
    for degrees in [(1, 1), (1, 2), (2, 2), (2, 1), (1, 2, 3)]:
        flat = separated_roots(rng, sum(degrees))
        polys, pos = [], 0
        for d in degrees:
            polys.append(poly_from_roots(flat[pos : pos + d]))
            pos += d
        F = fixture_from_polar(polys, rng=rng)
        md_validate(F)
        factors = []
        for j in range(len(degrees) - 1):
            m = min(degrees[j], degrees[j + 1])
            factors.append(np.eye(m) + 0.3 * bidisk_matrix(rng, m, unit_norm=True))
        params = [
            0.3 * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
            for d in degrees
        ]
        for moved in (gk_act(F, factors), ak_act(F, params)):
            for p, q in zip(polar(F), polar(moved)):
                if np.max(np.abs(p - q)) > 1e-9:
                    failures.append(f"polar moved under group action, k={degrees}")

    # single-bullet violations are rejected
    base = fixture_from_polar(
        [poly_from_roots(separated_roots(rng, 1)),
         poly_from_roots(separated_roots(rng, 2, spread=1.0) + 3.0)],
        rng=rng,
    )
    def rejected(mutate, bullet):
        F = base.copy()
        mutate(F)
        try:
            md_validate(F)
        except ValidationError as err:
            return any(bullet in v for v in err.violations)
        return False

    checks = [
        (lambda F: F.b_plus[1].__setitem__((1, 0), F.b_plus[1][1, 0] + 0.2), "shape"),
        (lambda F: F.b_minus[1].__setitem__((0, 0), F.b_minus[1][0, 0] + 0.2), "matching"),
        (lambda F: F.g.__setitem__(
            1, F.g[1] + 0.4 * np.linalg.norm(F.g[1]) * np.eye(2)
        ), "conjugacy"),
    ]
    for mutate, bullet in checks:
        if not rejected(mutate, bullet):
            failures.append(f"violation of {bullet} bullet not rejected")

    # sampled pairing identities on canonical nilpotent data
    for k in [(1, 1), (1, 2), (2, 2), (1, 2, 3)]:
        for F in enumerate_sr(k):
            if pairing_residual(F) > 1e-8:
                failures.append(f"pairing identity fails for k={k}")

    # the k = (1, 1) zero-fiber fixtures satisfy z2 - z1 = u w (both zero)
    for F in enumerate_sr((1, 1)):
        z1 = F.b_minus[0][0, 0]
        z2 = F.b_minus[1][0, 0]
        if z2 - z1 != F.u[0][0] * F.w[0][0]:
            failures.append("pole separation identity fails on the zero fiber")

    _report(6, "matricial model consistency", not failures, "; ".join(failures))


def test_criterion_7_lax_pipeline():
    rng = np.random.default_rng(107)
    worst_beta = 0.0
    worst_char = 0.0
    worst_round = 0.0
    for trial in range(20):
        n = 2 + trial % 3  # n = 2..4
        alpha = bidisk_matrix(rng, n, unit_norm=True)
        beta = bidisk_matrix(rng, n, unit_norm=True)
        path = lax_integrate(lambda t: alpha, beta, 0.0, 1.0, 200)
        exact = np.array([
            matexp(-t * alpha) @ beta @ matexp(t * alpha) for t in path.grid
        ])
        worst_beta = max(worst_beta, float(np.max(np.abs(path.beta - exact))))
        fix = gauge_fix_regular(path)
        worst_char = max(
            worst_char,
            float(np.max(np.abs(charpoly(fix.constant_matrix) - charpoly(beta)))),
        )
        straight = gauge_apply(fix.g_path, path)
        inverse = np.array([np.linalg.inv(g) for g in fix.g_path])
        back = gauge_apply(inverse, straight)
        worst_round = max(
            worst_round,
            float(np.max(np.abs(back.alpha - path.alpha))),
            float(np.max(np.abs(back.beta - path.beta))),
        )
    ok = worst_beta <= 1e-8 and worst_char <= 1e-8 and worst_round <= 1e-6
    _report(7, "Lax integration and gauge fixing", ok,
            f"beta={worst_beta:.3e} charpoly={worst_char:.3e} roundtrip={worst_round:.3e}")


def test_criterion_8_kernel_self_consistency():
    rng = np.random.default_rng(108)
    failures = []

    for deg in range(2, 11):
        p = np.append(rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg), 1.0)
        back = charpoly(companion_of(p))
        if np.max(np.abs(back - p) / (1 + np.abs(p))) > 1e-10:
            failures.append(f"companion round trip fails at degree {deg}")

    for n in (4, 6, 8):
        eigs = np.arange(1, n + 1) + 0.2j * rng.uniform(-1, 1, n)
        V = np.eye(n) + 0.3 * bidisk_matrix(rng, n, unit_norm=True)
        A = V @ np.diag(eigs) @ np.linalg.inv(V)
        got = np.array(sorted(roots(charpoly(A)), key=lambda z: (z.real, z.imag)))
        want = np.array(sorted(eigs, key=lambda z: (z.real, z.imag)))
        if np.max(np.abs(got - want)) > 1e-7:
            failures.append(f"eigenvalue multiset drift at n={n}")

    for deg in (3, 6):
        psums = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
        back = newton_convert(newton_convert(psums, "power-to-coeffs"), "coeffs-to-power")
        if np.max(np.abs(back - psums)) > 1e-11:
            failures.append(f"power-sum round trip fails at degree {deg}")

    for _ in range(10):
        A = bidisk_matrix(rng, 4)
        A = 2.0 * A / np.linalg.norm(A)
        if np.linalg.norm(matexp(A) @ matexp(-A) - np.eye(4)) > 1e-12:
            failures.append("exponential inverse identity fails at norm 2")

    elapsed = time.monotonic() - _MODULE_START
    if elapsed > 60.0:
        failures.append(f"acceptance module took {elapsed:.0f}s > 60s")

    _report(8, "kernel self-consistency", not failures,
            "; ".join(failures) or f"module_runtime={elapsed:.1f}s")
