"""Finite-difference Poisson brackets, the test suite's independent oracles.

The program computes bracket gradients in closed form; these helpers take
every gradient by finite differences, so a test can check one against the
other.  The model-point measures at the end serve only the tests; the isotropy
system, the validity check and the sign classification, each taken one point at
a time, are the references for the stacked ones, and the RK4 loop, the
Faddeev-LeVerrier recursion, the Pade step and the chain of powers, each as one
expression per operation with a fresh identity, are the references for the
buffered ones, and the full conjugation by an n-by-n flow factor is the reference
for the flows that move only the off-diagonal blocks, as the gauge action by embedded
factors is for the one that moves only the leading rows and columns.
"""

from __future__ import annotations

import warnings

import numpy as np

from gzflows.errors import ValidationError
from gzflows.matpoly import (
    _PADE_BOUNDS,
    _PADE_COEFFS,
    _abs,
    _coincident,
    _expm,
    _powers,
    as_matrix,
    charpoly,
    numerical_rank,
)
from gzflows.ratmodel import (
    NONZERO_RTOL,
    VALIDATE_TOL,
    MatricialData,
    OpenStratumChart,
    SigmaMap,
    _by_size,
    _free_mask,
    _kron,
    _minor_shapes,
    open_stratum_chart,
    polar,
    shift_matrix,
)
from gzflows.verify import DEFAULT_STEP, Chart, fd_gradient


def probe_loop_gradient(f, x, step: float | None = None) -> np.ndarray:
    """:func:`gzflows.verify.fd_gradient` one probe point at a time.

    The reference for the stacked probes: f is called 4d times, each on one
    flat point, and the columns are combined as the stacked form combines
    them.  For an f that acts entry by entry both give the same bits.
    """
    x = np.asarray(x, dtype=complex).reshape(-1)
    base = DEFAULT_STEP if step is None else step
    columns = []
    for j in range(x.size):
        h = base * (1.0 + abs(x[j]))
        e = np.zeros(x.size, dtype=complex)
        e[j] = h
        d_re = (f(x + e) - f(x - e)) / (2.0 * h)
        d_im = (f(x + 1j * e) - f(x - 1j * e)) / (2.0 * h)
        columns.append((d_re - 1j * d_im) / 2.0)
    grad = np.ascontiguousarray(np.array(columns, dtype=complex).T)
    if not np.all(np.isfinite(grad)):
        raise ValidationError("non-finite values in finite-difference gradient")
    return grad


def per_level_chart(rng: np.random.Generator, n: int) -> OpenStratumChart:
    """A random open-stratum chart of degrees (1, ..., n), drawn one level at a time.

    The reference for the whole-array draws of ``cli._random_chart``: level i
    draws i real parts, then i imaginary parts, first for the poles (again
    until they are pairwise separated), then for the residues.
    """
    while True:
        poles = [rng.uniform(-2, 2, i) + 1j * rng.uniform(-2, 2, i) for i in range(1, n + 1)]
        if not _coincident(np.concatenate(poles), 1e-2):
            break
    residues = []
    for i in range(1, n + 1):
        r = rng.uniform(-2, 2, i) + 1j * rng.uniform(-2, 2, i)
        r[np.abs(r) < 0.1] += 0.5
        residues.append(r)
    return open_stratum_chart(poles, residues)


def trace(M: np.ndarray) -> np.ndarray:
    """Trace over the last two axes: the stack of traces of a stack of matrices."""
    return np.trace(M, axis1=-2, axis2=-1)


def poisson_bracket(chart: Chart, f, g, x, step: float | None = None) -> complex:
    """{f, g} at x from the chart tensor with finite-difference gradients."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    pi = chart.tensor_at(x)
    df = fd_gradient(f, x, step=step)
    dg = fd_gradient(g, x, step=step)
    return complex(df @ pi @ dg)


def matrix_gradient(f, B, step: float | None = None) -> np.ndarray:
    """Trace-pairing gradient of a matrix function: df(D) = tr(grad @ D).

    f maps a stack of matrices, shape (..., n, n), to the stack of its values.
    """
    B = as_matrix(B)
    n = B.shape[0]
    flat = fd_gradient(lambda x: f(x.reshape(x.shape[:-1] + (n, n))), B.reshape(-1), step=step)
    return flat.reshape(n, n).T


def lie_poisson_bracket(f, g, B, step: float | None = None) -> complex:
    """{f, g}(B) = tr(B [grad f, grad g]) with trace-pairing gradients.

    The sign makes the flow of tr(minor(B, m)**i) / i the conjugation flow
    used by :func:`gzflows.gzcore.gz_flow`, with dF/dt = {F, H}.
    """
    B = as_matrix(B)
    gf = matrix_gradient(f, B, step)
    gg = matrix_gradient(g, B, step)
    return complex(np.trace(B @ (gf @ gg - gg @ gf)))


def lie_poisson_chart(n: int) -> Chart:
    """Entry-coordinate chart of gl(n,C) with the Lie-Poisson tensor.

    Coordinates are the matrix entries, row major; the tensor realizes
    {B_ab, B_cd} = delta_ad B_cb - delta_cb B_ad.
    """
    names = tuple(f"B{a + 1}{b + 1}" for a in range(n) for b in range(n))

    def tensor(x: np.ndarray) -> np.ndarray:
        # the second term is the first with (a, b) and (c, d) swapped
        first = np.einsum("ad,cb->abcd", np.eye(n), x.reshape(n, n)).reshape(n * n, n * n)
        return first - first.T

    return Chart(names=names, poisson_tensor=tensor)


def chart_symplectic_form(chart: OpenStratumChart, t1, t2) -> complex:
    """sum_l (drho_l / rho_l) ^ dq_l on flat tangent vectors."""
    N = chart.size
    t1 = np.asarray(t1, dtype=complex).reshape(-1)
    t2 = np.asarray(t2, dtype=complex).reshape(-1)
    rho = chart.flat()[N:]
    return complex(np.sum((t1[N:] * t2[:N] - t2[N:] * t1[:N]) / rho))


def pairing_residual(F: MatricialData) -> float:
    """Largest coefficient size of the junction pairing polynomials on zero-fiber data.

    For unequal sizes the polynomial is a adj(z - X) b of the larger matrix,
    for tied sizes w^T adj(z - B^+) u.  Its coefficients are row H[l] col
    with the exact adjugate coefficients H[l] of the Faddeev-LeVerrier
    recursion, so the value is max |row H[l] col|, zero iff every pairing
    polynomial vanishes.  F must be validated (md_validate); it is not
    re-checked.
    """
    tol = VALIDATE_TOL * F.scale()
    for i, q in enumerate(polar(F)):
        if np.max(np.abs(q[: F.k[i]])) > tol:
            raise ValidationError(f"block {i + 1} is not nilpotent")
    worst = 0.0
    for j in range(F.n - 1):
        m = min(F.k[j], F.k[j + 1])
        if m == 0:
            continue
        if F.k[j] == F.k[j + 1]:
            X, row, col = F.b_plus[j], F.w[j], F.u[j]
        else:
            big = _by_size(F.k, j, F.b_plus[j], F.b_minus[j + 1])[0]
            X, row, col = big[:m, :m], big[m, :m], big[:m, -1]
        for H in charpoly_adjugate(X)[1]:
            worst = max(worst, abs(row @ H @ col))
    return worst


def isotropy_system(F: MatricialData) -> tuple[np.ndarray, int]:
    """The isotropy system of one point, block by block, and its number of unknowns.

    The reference for ``ratmodel._isotropy_matrix``, which builds the systems
    of a whole stack of points at once: each stacked system must have these bits.
    """
    k = F.k
    n = F.n
    sizes = [F.junction_size(j) for j in range(n - 1)]
    lam_offsets = np.cumsum((0,) + k)
    xi_offsets = lam_offsets[-1] + np.cumsum([0] + [m * m for m in sizes])
    unknowns = int(xi_offsets[-1])

    def xi_cols(j):
        return slice(xi_offsets[j], xi_offsets[j + 1])

    rows: list[np.ndarray] = []
    for i in range(n):
        if k[i] == 0:
            continue
        block = np.zeros((k[i] * k[i], unknowns), dtype=complex)
        derivs = np.arange(1, k[i] + 1)[:, None, None] * _powers(F.b_minus[i], k[i])
        block[:, lam_offsets[i] : lam_offsets[i + 1]] = derivs.reshape(k[i], -1).T
        if i > 0 and sizes[i - 1] > 0:
            P = np.eye(k[i], sizes[i - 1], dtype=complex)
            block[:, xi_cols(i - 1)] -= _kron(P, P)
        if i < n - 1 and sizes[i] > 0:
            m = sizes[i]
            g_inv = np.linalg.inv(F.g[i])
            block[:, xi_cols(i)] += _kron(F.g[i][:, :m], g_inv[:m, :].T)
        rows.append(block)

    for j in range(n - 1):
        m = sizes[j]
        if m == 0:
            continue
        for B in (F.b_plus[j], F.b_minus[j + 1]):
            P = np.eye(B.shape[0], m, dtype=complex)
            comm = np.zeros((B.size, unknowns), dtype=complex)
            comm[:, xi_cols(j)] = _kron(P, (P.T @ B).T) - _kron(B @ P, P)
            rows.append(comm)
        if k[j] == k[j + 1]:
            fix = np.zeros((2 * m, unknowns), dtype=complex)
            fix[:m, xi_cols(j)] = _kron(np.eye(m), F.u[j][None, :])
            fix[m:, xi_cols(j)] = _kron(F.w[j][None, :], np.eye(m))
            rows.append(fix)

    return np.vstack(rows), unknowns


def _pattern_violations(M: np.ndarray, m: int, tol: float, label: str) -> list[str]:
    """Bullet (a) on one matrix M, shaped by m, entry by entry."""
    k = M.shape[0]
    out = []
    mask, ones = _free_mask(k, m)
    for i, j in ones:
        mask[i, j] = True
        if abs(M[i, j] - 1.0) > tol:
            out.append(f"shape: {label} subdiagonal entry ({i + 1},{j + 1}) != 1")
    off = np.abs(M[~mask])
    if off.size and off.max() > tol:
        out.append(f"shape: {label} has nonzero entries outside the displayed form")
    return out


def per_point_validate(F: MatricialData, tol: float = VALIDATE_TOL) -> MatricialData:
    """``ratmodel.md_validate`` one point at a time, each bullet matrix by matrix.

    The reference for the stacked check: the same structural ValueErrors, and
    the same violations in the same order, with the scale taken by
    ``np.linalg.norm`` of each matrix and vector.
    """
    k = F.k
    n = len(k)
    for name, mats in (("B_minus", F.b_minus), ("B_plus", F.b_plus), ("g", F.g)):
        if len(mats) != n:
            raise ValueError(f"{name} must have {n} blocks")
        for i, M in enumerate(mats):
            M = as_matrix(M)
            if M.shape != (k[i], k[i]):
                raise ValueError(f"{name}[{i + 1}] has shape {M.shape}, expected ({k[i]}, {k[i]})")
    tied = {j for j in range(n - 1) if k[j] == k[j + 1]}
    if set(F.u) != tied or set(F.w) != tied:
        where = ", ".join(str(j + 1) for j in sorted(tied)) or "none"
        raise ValueError(f"(u, w) pairs must sit exactly at the junctions of equal sizes ({where})")
    for j in sorted(tied):
        if any(v.size != k[j] or not np.all(np.isfinite(v)) for v in (F.u[j], F.w[j])):
            raise ValueError(f"(u, w) at junction {j + 1} must be finite with length {k[j]}")
    with np.errstate(over="ignore"):  # an overflow is reported below
        parts = [np.linalg.norm(M) for M in (*F.b_minus, *F.b_plus, *F.g)]
        parts += [np.linalg.norm(v) for v in (*F.u.values(), *F.w.values())]
    scale = 1.0 + max(parts, default=0.0)
    if not np.isfinite(scale):
        raise ValueError("model data too large: its scale overflows")

    eff = tol * scale
    violations: list[str] = []
    for i in range(n):
        m_minus, m_plus = _minor_shapes(k, i)
        violations += _pattern_violations(F.b_minus[i], m_minus, eff, f"B_minus[{i + 1}]")
        violations += _pattern_violations(F.b_plus[i], m_plus, eff, f"B_plus[{i + 1}]")
    for j in range(n - 1):
        m = min(k[j], k[j + 1])
        if k[j] == k[j + 1]:
            gap = np.linalg.norm(F.b_plus[j] - F.b_minus[j + 1] - np.outer(F.u[j], F.w[j]))
            fault = f"B_plus[{j + 1}] - B_minus[{j + 2}] is not u w^T"
        else:
            big, small = _by_size(k, j, F.b_plus[j], F.b_minus[j + 1])
            gap = np.linalg.norm(big[:m, :m] - small)
            big_label, small_label = _by_size(k, j, f"B_plus[{j + 1}]", f"B_minus[{j + 2}]")
            fault = f"X-block of {big_label} differs from {small_label}"
        if gap > eff:
            violations.append(f"matching: {fault}")
    for i in range(n):
        if k[i] == 0:
            continue
        if numerical_rank(F.g[i]) < k[i]:
            violations.append(f"conjugacy: g[{i + 1}] is numerically singular")
            continue
        resid = np.linalg.norm(F.g[i] @ F.b_plus[i] @ np.linalg.inv(F.g[i]) - F.b_minus[i])
        if resid > eff:
            violations.append(f"conjugacy: g[{i + 1}] B_plus[{i + 1}] g[{i + 1}]^-1 != B_minus[{i + 1}] "
                              f"(residual {resid:.3e})")
    if violations:
        raise ValidationError("matricial data rejected", violations=violations)
    return F


def _classify_point(F: MatricialData) -> tuple[list[int], list[str], Exception | None]:
    """(signs, warning texts, refusal) of one finite point, each test made where the loop
    over its levels and junctions reaches it: the loop stops at the first refusal, keeping
    the signs and warnings of the junctions before it."""
    k = F.k
    n = len(k)
    scale = 1.0 + max([np.linalg.norm(M) for M in (*F.b_minus, *F.b_plus, *F.g)]
                      + [np.linalg.norm(v) for v in (*F.u.values(), *F.w.values())])
    canon_tol, tol = VALIDATE_TOL * scale, NONZERO_RTOL * scale
    for i in range(n):
        if np.max(np.abs(charpoly(F.b_minus[i])[: k[i]])) > canon_tol:
            return [], [], ValidationError(f"block {i + 1} is not nilpotent; the sign "
                                           "classification is defined on the zero fiber only")
    signs, texts = [], []
    for j in range(n - 1):
        m = min(k[j], k[j + 1])
        if k[j] == k[j + 1]:
            anchor, label, pair = F.b_plus[j], f"B_plus[{j + 1}]", (F.w[j][m - 1], F.u[j][0])
        else:
            big, anchor = _by_size(k, j, F.b_plus[j], F.b_minus[j + 1])
            label = _by_size(k, j, f"B_plus[{j + 1}]", f"B_minus[{j + 2}]")[1]
            pair = (big[m, m - 1], big[0, -1])
        if np.linalg.norm(anchor - shift_matrix(m)) > canon_tol:
            return signs, texts, ValidationError(f"not in canonical position: {label} is not the plain shift")
        neg, pos = (abs(complex(v)) for v in pair)
        if neg > tol and pos > tol:
            return signs, texts, ValidationError(f"junction {j + 1} has both pairing entries nonzero; "
                                                 "data is not valid zero-fiber input")
        texts += [f"junction {j + 1}: entry magnitude {v:.3e} is near the nonzero threshold {tol:.3e}"
                  for v in (neg, pos) if tol / 10.0 < v <= tol * 10.0]
        signs.append(-1 if neg > tol else 1 if pos > tol else 0)
    return signs, texts, None


def per_point_classify(points: list[MatricialData], isotropy: bool) -> list[tuple[SigmaMap, bool]]:
    """``ratmodel._classified`` one point at a time, junction by junction.

    The reference for the classifier that takes every point's flags in one pass, on
    finite points.  Each point is scaled by ``np.linalg.norm`` of each matrix and vector;
    in turn, each point warns for its near-threshold entries junction by junction, and the
    first refused point raises its first refusal, so a point refused at junction j has
    warned for the junctions before j.  With ``isotropy`` and no point refused, each
    point's nullity, from ``isotropy_system``, is cross-checked against its sign map.
    """
    if any(x < 1 for x in points[0].k):
        raise ValidationError("sign classification needs all degrees >= 1")
    classified = [_classify_point(F) for F in points]
    refused = any(refusal is not None for _, _, refusal in classified)
    out = []
    for F, (signs, texts, refusal) in zip(points, classified):
        for text in texts:
            warnings.warn(text, stacklevel=2)
        if refusal is not None:
            raise refusal
        primary = all(signs)
        if isotropy and not refused:
            system, unknowns = isotropy_system(F)
            nullity = unknowns - numerical_rank(system)
            if (nullity == 0) != primary:
                warnings.warn(f"sign classification ({primary}) disagrees with linearized "
                              f"isotropy nullity {nullity}", stacklevel=2)
        out.append((SigmaMap(values=tuple(signs)), primary))
    return out


def classical_rk4(y, rhs, starts, mids, ends, h: float) -> np.ndarray:
    """Classical RK4 for y' = rhs(y, a(t)), one expression per stage, a fresh array per step.

    The reference for ``lax._rk4``'s buffered kernel: a given at each step's
    start, midpoint and end; a stack y of S matrices steps all S at once, and
    the samples come back on the axis before the matrix axes, ([S,] N, n, n).
    """
    ys = [y]
    for a0, am, a1 in zip(starts, mids, ends):
        k1 = rhs(y, a0)
        k2 = rhs(y + h / 2 * k1, am)
        k3 = rhs(y + h / 2 * k2, am)
        k4 = rhs(y + h * k3, a1)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ys.append(y)
    return np.stack(ys, axis=-3)


def faddeev_leverrier(A: np.ndarray):
    """The Faddeev-LeVerrier recursion with a fresh identity and ``np.trace`` per call.

    Yields (c, M) for k = 1, ..., n, the terms of z**(n-k) in det(zI - A) and
    in adj(zI - A), and forms M once more after the last coefficient.  Its c
    terms are the reference for ``matpoly._charpoly``; its M terms serve
    :func:`charpoly_adjugate`.
    """
    n = A.shape[-1]
    ident = np.eye(n)
    M = np.broadcast_to(np.eye(n, dtype=complex), A.shape)
    for k in range(1, n + 1):
        AM = A @ M
        c = -np.trace(AM, axis1=-2, axis2=-1) / k
        yield c, M
        M = AM + c[..., None, None] * ident


def charpoly_adjugate(A: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Coefficients of det(zI - A) and H with adj(zI - A) = sum_l z**l H[l], ascending,
    from :func:`faddeev_leverrier`."""
    pairs = list(faddeev_leverrier(A))[::-1]
    return np.array([c for c, _ in pairs] + [1.0], dtype=complex), [M for _, M in pairs]


def eye_powers(A: np.ndarray, count: int) -> np.ndarray:
    """I, A, ..., A**(count-1) from a fresh ``np.eye``, each power one product with A, indexed by k.

    The reference for ``matpoly._powers``, which seeds its chain from the shared
    identity and steps over pairs of its slices; a stack (..., n, n) gives
    (count, ..., n, n).
    """
    P = np.empty((count,) + A.shape, dtype=complex)
    P[:1] = np.eye(A.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, count):
            np.matmul(P[k - 1], A, out=P[k])
    return P


def pade_loops(A: np.ndarray, order: int) -> np.ndarray:
    """The [order/order] Pade approximant of exp(A) with a fresh identity, orders 3..9 from a
    list of powers of A @ A summed in two loops of single-matrix terms, U then V.

    The reference for ``matpoly._pade``, which sums U and V as one stack of
    two on the ``_powers`` chain of A @ A (order 13 is written out in both).
    """
    c = _PADE_COEFFS[order]
    ident = np.eye(A.shape[0], dtype=complex)
    if order == 13:
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (c[13] * A6 + c[11] * A4 + c[9] * A2)
                 + c[7] * A6 + c[5] * A4 + c[3] * A2 + c[1] * ident)
        V = (A6 @ (c[12] * A6 + c[10] * A4 + c[8] * A2)
             + c[6] * A6 + c[4] * A4 + c[2] * A2 + c[0] * ident)
    else:
        powers = [ident, A @ A]
        for _ in range(2, order // 2 + 1):
            powers.append(powers[-1] @ powers[1])
        U = np.zeros_like(A)
        for j in range(order, 0, -2):
            U = U + c[j] * powers[j // 2]
        U = A @ U
        V = np.zeros_like(A)
        for j in range(order - 1, -1, -2):
            V = V + c[j] * powers[(j + 1) // 2]
    return np.linalg.solve(V - U, V + U)


def expm_loops(A: np.ndarray) -> np.ndarray:
    """Scaling and squaring on :func:`pade_loops`, the 1-norm from ``np.linalg.norm``.

    The reference for ``matpoly._expm``, which sums the 1-norm's columns itself.
    """
    if A.shape[0] == 0:
        return A.copy()
    norm = np.linalg.norm(A, 1)
    if not np.isfinite(norm):
        return np.full(A.shape, np.nan, dtype=complex)
    if norm <= _PADE_BOUNDS[-1][1]:
        for order, bound in _PADE_BOUNDS:
            if norm <= bound:
                return pade_loops(A, order)
    squarings = max(0, int(np.ceil(np.log2(norm / _PADE_BOUNDS[-1][1]))))
    F = pade_loops(A / 2.0 ** squarings, 13)
    for _ in range(squarings):
        F = F @ F
    return F


def full_conjugation_flow(B: np.ndarray, m: int, i: int, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """(h, h B h^-1) with h = blockdiag(exp(z * minor(B, m)**(i-1)), I) built in full.

    The reference for ``gzcore._flow_step``, which moves only the two
    off-diagonal blocks of B by the (m, m) factor: here h is embedded in an
    n-by-n identity and B is conjugated with a full inverse.
    """
    h = np.eye(B.shape[0], dtype=complex)
    h[:m, :m] = _expm(z * np.linalg.matrix_power(B[:m, :m], i - 1))
    return h, h @ B @ np.linalg.inv(h)


def embedded_gk_act(F: MatricialData, factors) -> MatricialData:
    """The gauge action of ``ratmodel.gk_act`` with each factor h embedded in a full identity.

    The reference for ``gk_act``, which moves only the leading m rows and columns of each
    block: here junction j conjugates B_plus[j] and B_minus[j+1] by blockdiag(h, I) built
    in full, multiplies g[j] by its full inverse and g[j+1] by it, with no check.
    """
    def embed(h, size):
        out = np.eye(size, dtype=complex)
        out[: h.shape[0], : h.shape[0]] = h
        return out

    out = F.copy()
    for j, h in enumerate(factors):
        if h is None:
            continue
        h = as_matrix(h)
        h_inv = np.linalg.inv(h)
        left, left_inv = embed(h, F.k[j]), embed(h_inv, F.k[j])
        right, right_inv = embed(h, F.k[j + 1]), embed(h_inv, F.k[j + 1])
        out.b_plus[j] = left @ out.b_plus[j] @ left_inv
        out.b_minus[j + 1] = right @ out.b_minus[j + 1] @ right_inv
        out.g[j] = out.g[j] @ left_inv
        out.g[j + 1] = right @ out.g[j + 1]
        if j in out.u:
            out.u[j] = h @ out.u[j]
            out.w[j] = h_inv.T @ out.w[j]
    return out


def pair_distances(z: np.ndarray) -> np.ndarray:
    """|z[a] - z[b]| at [a, b] for the points z, each with the bits of Python's abs(); a
    difference past the largest float is an infinite distance."""
    with np.errstate(over="ignore"):
        return _abs(z[:, None] - z[None, :])


def mask_clusters(points, tol):
    """Single-linkage clusters of a complex multiset from the matrix of every pair's
    distance, with one boolean mask per cluster: the (mean, size) pairs in (re, im) order
    and each point's index, as ``matpoly._clusters`` gives them."""
    z = np.array([complex(p) for p in points], dtype=complex)
    perm = np.lexsort((z.imag, z.real))
    pts = z[perm]
    near = pair_distances(pts) <= tol
    labels = np.arange(z.size)
    while True:
        low = np.where(near, labels, z.size).min(axis=1, initial=z.size)
        if np.array_equal(low, labels):
            break
        labels = low
    heads, member = np.unique(labels, return_inverse=True)
    reps = [(sum(g) / len(g), len(g)) for g in (pts[labels == r].tolist() for r in heads)]
    order = sorted(range(len(reps)), key=lambda c: (reps[c][0].real, reps[c][0].imag))
    index = np.empty(z.size, dtype=int)
    index[perm] = np.argsort(order)[member]
    return [reps[c] for c in order], index
