"""Matricial model of based rational maps into full flag manifolds.

A model point over a multidegree k = (k_1, ..., k_n) is a tuple
(B_i^-, B_i^+, g_i, u_i, w_i) of generalized companion matrices: B_i^- is
shaped by m = min(k_(i-1), k_i) and B_i^+ by m = min(k_(i+1), k_i), the
X-blocks of adjacent matrices match (rank-one difference u w^T when the
sizes tie), and g_i conjugates B_i^+ to B_i^-.  The polar part is
q_i = det(z - B_i^-).

Bracket sign convention (fixed once, globally): on an open-stratum chart
with poles q_l and residues rho_l the bracket is

    {f, g} = sum_l rho_l (df/drho_l dg/dq_l - df/dq_l dg/drho_l),

so that {q_l, 1/rho_k} = delta_lk / rho_k, i.e. pole coordinates and
inverse residues satisfy {r_l, s_k} = delta_lk s_k with a plus sign.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ToleranceError, ValidationError
from .matpoly import (
    RANK_RTOL,
    _faddeev_leverrier,
    as_matrix,
    charpoly,
    companion_of,
    is_monic,
    krylov_matrix,
    matexp,
    numerical_rank,
    poly_degree,
    poly_divmod,
    poly_trim,
)
from .verify import fd_gradient, Chart

__all__ = [
    "MatricialData",
    "MdTangent",
    "SigmaMap",
    "OpenStratumChart",
    "shift_matrix",
    "relinked_shift",
    "generalized_companion",
    "md_validate",
    "gk_act",
    "ak_act",
    "polar",
    "md_symplectic",
    "md_tangent_violations",
    "sigma_of",
    "enumerate_sr",
    "md_strongly_regular",
    "isotropy_nullity",
    "open_stratum_chart",
    "chart_bracket",
    "chart_symplectic_form",
    "chart_as_poisson_chart",
    "fixture_from_polar",
    "pairing_residual",
]

# Residual tolerance for the validity bullets, times (1 + data scale).
VALIDATE_TOL = 1e-8
# Nonzero decisions in the sign classification, times (1 + data scale).
NONZERO_RTOL = 1e-10


@dataclass
class MatricialData:
    """Model tuple over a multidegree; junction j sits between blocks j, j+1."""

    k: tuple[int, ...]
    b_minus: list[np.ndarray]
    b_plus: list[np.ndarray]
    g: list[np.ndarray]
    u: dict[int, np.ndarray] = field(default_factory=dict)
    w: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.k)

    def junction_size(self, j: int) -> int:
        return min(self.k[j], self.k[j + 1])

    def scale(self) -> float:
        parts = [np.linalg.norm(m) for m in (*self.b_minus, *self.b_plus, *self.g)]
        parts += [np.linalg.norm(v) for v in (*self.u.values(), *self.w.values())]
        scale = 1.0 + max(parts, default=0.0)
        if not np.isfinite(scale):
            raise ValueError("model data too large: its scale overflows")
        return scale

    def as_vector(self) -> np.ndarray:
        pieces = [m.reshape(-1) for m in (*self.b_minus, *self.b_plus, *self.g)]
        for j in sorted(self.u):
            pieces.append(self.u[j])
        for j in sorted(self.w):
            pieces.append(self.w[j])
        return np.concatenate(pieces) if pieces else np.zeros(0, dtype=complex)

    def copy(self) -> "MatricialData":
        return MatricialData(
            k=self.k,
            b_minus=[m.copy() for m in self.b_minus],
            b_plus=[m.copy() for m in self.b_plus],
            g=[m.copy() for m in self.g],
            u={j: v.copy() for j, v in self.u.items()},
            w={j: v.copy() for j, v in self.w.items()},
        )


@dataclass
class MdTangent:
    """Tangent data at a model point, same layout as the point itself."""

    d_b_minus: list[np.ndarray]
    d_b_plus: list[np.ndarray]
    d_g: list[np.ndarray]
    d_u: dict[int, np.ndarray] = field(default_factory=dict)
    d_w: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class SigmaMap:
    """Junction signs in {-1, 0, +1}; nonvanishing means strongly regular."""

    values: tuple[int, ...]


def shift_matrix(k: int) -> np.ndarray:
    """Nilpotent matrix with a unit subdiagonal (companion of z**k)."""
    S = np.zeros((k, k), dtype=complex)
    for j in range(k - 1):
        S[j + 1, j] = 1.0
    return S


def relinked_shift(k: int, m: int) -> np.ndarray:
    """Shift with the chain link moved: entry (m+1, m) cleared, (1, k) set.

    Regular nilpotent for every 1 <= m < k; its single Jordan chain starts
    at basis vector m+1.
    """
    if not 1 <= m < k:
        raise ValueError(f"need 1 <= m < k, got m={m}, k={k}")
    E = shift_matrix(k)
    E[m, m - 1] = 0.0
    E[0, k - 1] = 1.0
    return E


def generalized_companion(X, a, b, c) -> np.ndarray:
    """Assemble the block form: X upper-left, b-column, a-row, companion tail."""
    X = as_matrix(X)
    m = X.shape[0]
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    c = np.asarray(c, dtype=complex).reshape(-1)
    if a.size != m or b.size != m:
        raise ValueError("a and b must have the X-block size")
    km = c.size
    k = m + km
    if km < 1:
        raise ValueError("tail length must be >= 1")
    B = np.zeros((k, k), dtype=complex)
    B[:m, :m] = X
    B[:m, k - 1] = b
    B[m, :m] = a
    for j in range(km - 1):
        B[m + j + 1, m + j] = 1.0
    B[m:, k - 1] = c
    return B


def _free_mask(k: int, m: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Entries that may vary in the m-shaped form, plus the fixed-one spots."""
    mask = np.zeros((k, k), dtype=bool)
    if m >= k:
        mask[:] = True
        return mask, []
    mask[:m, :m] = True
    if m >= 1:
        mask[:m, k - 1] = True
        mask[m, :m] = True
    mask[m:, k - 1] = True
    ones = [(m + j + 1, m + j) for j in range(k - m - 1)]
    return mask, ones


def _pattern_violations(M: np.ndarray, m: int, tol: float, label: str) -> list[str]:
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


def _minor_shapes(k: tuple[int, ...], i: int) -> tuple[int, int]:
    """(m for B_i^-, m for B_i^+) with the k_0 = k_(n+1) = 0 convention."""
    left = k[i - 1] if i > 0 else 0
    right = k[i + 1] if i < len(k) - 1 else 0
    return min(left, k[i]), min(right, k[i])


def md_validate(F: MatricialData, tol: float = VALIDATE_TOL) -> MatricialData:
    """The one validity check of a model point; every violated bullet is reported.

    Structural faults raise ValueError: shapes, non-finite entries or scale,
    and (u, w) pairs not exactly at the tied junctions.  Bullets: (a)
    generalized companion shapes, (b) X-block matching across junctions with
    unequal sizes, (c) rank-one matching u w^T at tied sizes, (d) the
    conjugacy g_i B_i^+ g_i^-1 = B_i^- up to tol * scale.
    """
    k = F.k
    n = len(k)
    for name, mats in (("B_minus", F.b_minus), ("B_plus", F.b_plus), ("g", F.g)):
        if len(mats) != n:
            raise ValueError(f"{name} must have {n} blocks")
        for i, M in enumerate(mats):
            M = as_matrix(M)
            if M.shape != (k[i], k[i]):
                raise ValueError(f"{name}[{i}] has shape {M.shape}, expected ({k[i]}, {k[i]})")
    tied = {j for j in range(n - 1) if k[j] == k[j + 1]}
    if set(F.u) != tied or set(F.w) != tied:
        where = ", ".join(str(j + 1) for j in sorted(tied)) or "none"
        raise ValueError(f"(u, w) pairs must sit exactly at the junctions of equal sizes ({where})")
    for j in sorted(tied):
        if any(v.size != k[j] or not np.all(np.isfinite(v)) for v in (F.u[j], F.w[j])):
            raise ValueError(f"(u, w) at junction {j + 1} must be finite with length {k[j]}")

    eff = tol * F.scale()
    violations: list[str] = []
    for i in range(n):
        m_minus, m_plus = _minor_shapes(k, i)
        violations += _pattern_violations(F.b_minus[i], m_minus, eff, f"B_minus[{i + 1}]")
        violations += _pattern_violations(F.b_plus[i], m_plus, eff, f"B_plus[{i + 1}]")
    for j in range(n - 1):
        m = min(k[j], k[j + 1])
        if k[j] > k[j + 1]:
            gap = np.linalg.norm(F.b_plus[j][:m, :m] - F.b_minus[j + 1])
            if gap > eff:
                violations.append(f"matching: X-block of B_plus[{j + 1}] differs from B_minus[{j + 2}]")
        elif k[j] < k[j + 1]:
            gap = np.linalg.norm(F.b_minus[j + 1][:m, :m] - F.b_plus[j])
            if gap > eff:
                violations.append(f"matching: X-block of B_minus[{j + 2}] differs from B_plus[{j + 1}]")
        else:
            gap = np.linalg.norm(F.b_plus[j] - F.b_minus[j + 1] - np.outer(F.u[j], F.w[j]))
            if gap > eff:
                violations.append(f"matching: B_plus[{j + 1}] - B_minus[{j + 2}] is not u w^T")
    for i in range(n):
        if k[i] == 0:
            continue
        if numerical_rank(F.g[i]) < k[i]:
            violations.append(f"conjugacy: g[{i + 1}] is numerically singular")
            continue
        resid = np.linalg.norm(
            F.g[i] @ F.b_plus[i] @ np.linalg.inv(F.g[i]) - F.b_minus[i]
        )
        if resid > eff:
            violations.append(
                f"conjugacy: g[{i + 1}] B_plus[{i + 1}] g[{i + 1}]^-1 != B_minus[{i + 1}] "
                f"(residual {resid:.3e})"
            )
    if violations:
        raise ValidationError("matricial data rejected", violations=violations)
    return F


def _embed(h: np.ndarray, size: int) -> np.ndarray:
    out = np.eye(size, dtype=complex)
    out[: h.shape[0], : h.shape[0]] = h
    return out


def gk_act(F: MatricialData, factors) -> MatricialData:
    """Gauge action: one invertible factor per junction, None where empty.

    Junction j conjugates B_plus[j] and B_minus[j+1] by the embedded
    factor, multiplies g_j on the right by its inverse and g_(j+1) on the
    left, and rescales (u_j, w_j) at tied sizes.  The output revalidates.
    """
    n = F.n
    factors = list(factors)
    if len(factors) != n - 1:
        raise ValueError(f"need {n - 1} factors, got {len(factors)}")
    hs: list[np.ndarray | None] = []
    for j, h in enumerate(factors):
        m = F.junction_size(j)
        if m == 0:
            hs.append(None)
            continue
        h = as_matrix(h)
        if h.shape != (m, m):
            raise ValueError(f"factor {j + 1} has shape {h.shape}, expected ({m}, {m})")
        if numerical_rank(h) < m:
            raise ValidationError(f"factor {j + 1} is not invertible")
        hs.append(h)
    out = F.copy()
    for j, h in enumerate(hs):
        if h is None:
            continue
        h_inv = np.linalg.inv(h)
        left = _embed(h, F.k[j])
        left_inv = _embed(h_inv, F.k[j])
        right = _embed(h, F.k[j + 1])
        right_inv = _embed(h_inv, F.k[j + 1])
        out.b_plus[j] = left @ out.b_plus[j] @ left_inv
        out.b_minus[j + 1] = right @ out.b_minus[j + 1] @ right_inv
        out.g[j] = out.g[j] @ left_inv
        out.g[j + 1] = right @ out.g[j + 1]
        if j in out.u:
            out.u[j] = h @ out.u[j]
            out.w[j] = h_inv.T @ out.w[j]
    return md_validate(out)


def ak_act(F: MatricialData, params) -> MatricialData:
    """Abelian action: g_i -> exp(p_i'(B_i^-)) g_i, everything else fixed.

    ``params`` holds one coefficient vector per block, the coefficients of
    z, z^2, ..., z^(k_i) of a polynomial with zero constant term.  The
    exponential factor commutes with B_i^-, so the conjugacy bullet is
    untouched and the polar part is preserved: a valid F stays valid and is
    not re-checked.  A g_i that overflows raises ToleranceError.
    """
    n = F.n
    params = list(params)
    if len(params) != n:
        raise ValueError(f"need {n} coefficient vectors, got {len(params)}")
    out = F.copy()
    for i, lam in enumerate(params):
        lam = np.asarray(lam, dtype=complex).reshape(-1)
        if lam.size > F.k[i]:
            raise ValueError(f"polynomial {i + 1} has degree > {F.k[i]}")
        if lam.size == 0 or not lam.any():
            continue
        deriv = np.zeros((F.k[i], F.k[i]), dtype=complex)
        power = np.eye(F.k[i], dtype=complex)
        for j, coeff in enumerate(lam, start=1):
            deriv = deriv + j * coeff * power
            power = power @ out.b_minus[i]
        out.g[i] = matexp(deriv) @ out.g[i]
        if not np.all(np.isfinite(out.g[i])):
            raise ToleranceError(f"exp(p_{i + 1}'(B_minus[{i + 1}])) g[{i + 1}] overflows")
    return out


def polar(F: MatricialData) -> list[np.ndarray]:
    """Monic polynomials q_i = det(z - B_i^-), ascending coefficients."""
    return [charpoly(B) for B in F.b_minus]


def md_tangent_violations(F: MatricialData, t: MdTangent, tol: float = VALIDATE_TOL) -> list[str]:
    """Linearized validity bullets for a tangent at F."""
    k = F.k
    n = F.n
    scale = F.scale() + max(
        [np.linalg.norm(m) for m in (*t.d_b_minus, *t.d_b_plus, *t.d_g)]
        + [np.linalg.norm(v) for v in (*t.d_u.values(), *t.d_w.values())]
        + [0.0]
    )
    eff = tol * scale
    out: list[str] = []
    for i in range(n):
        m_minus, m_plus = _minor_shapes(k, i)
        for M, m, label in (
            (t.d_b_minus[i], m_minus, f"dB_minus[{i + 1}]"),
            (t.d_b_plus[i], m_plus, f"dB_plus[{i + 1}]"),
        ):
            mask, ones = _free_mask(k[i], m)
            for pos in ones:
                mask[pos] = False
            off = np.abs(M[~mask])
            if off.size and off.max() > eff:
                out.append(f"tangent shape: {label} moves structural entries")
    for j in range(n - 1):
        m = min(k[j], k[j + 1])
        if k[j] > k[j + 1]:
            gap = np.linalg.norm(t.d_b_plus[j][:m, :m] - t.d_b_minus[j + 1])
        elif k[j] < k[j + 1]:
            gap = np.linalg.norm(t.d_b_minus[j + 1][:m, :m] - t.d_b_plus[j])
        else:
            gap = np.linalg.norm(
                t.d_b_plus[j] - t.d_b_minus[j + 1]
                - np.outer(t.d_u[j], F.w[j]) - np.outer(F.u[j], t.d_w[j])
            )
        if gap > eff:
            out.append(f"tangent matching violated at junction {j + 1}")
    for i in range(n):
        if k[i] == 0:
            continue
        g_inv = np.linalg.inv(F.g[i])
        conj = F.g[i] @ F.b_plus[i] @ g_inv
        lin = (
            t.d_g[i] @ F.b_plus[i] @ g_inv
            + F.g[i] @ t.d_b_plus[i] @ g_inv
            - conj @ t.d_g[i] @ g_inv
        )
        if np.linalg.norm(lin - t.d_b_minus[i]) > eff:
            out.append(f"tangent conjugacy violated at block {i + 1}")
    return out


def md_symplectic(F: MatricialData, t1: MdTangent, t2: MdTangent,
                  check: bool = True, tol: float = VALIDATE_TOL) -> complex:
    """Evaluate the model symplectic form on a tangent pair.

    omega = sum_i tr(dg_i g_i^-1 ^ dB_i^- - B_i^- (dg_i g_i^-1)^2)
            - sum_(tied j) dw_j^T ^ du_j,

    antisymmetrized over the two slots.  Tangents violating the linearized
    constraints are rejected when ``check`` is set.
    """
    if check:
        bad = md_tangent_violations(F, t1, tol) + md_tangent_violations(F, t2, tol)
        if bad:
            raise ValidationError("tangent pair rejected", violations=bad)
    val = 0.0 + 0j
    for i in range(F.n):
        if F.k[i] == 0:
            continue
        g_inv = np.linalg.inv(F.g[i])
        rho1 = t1.d_g[i] @ g_inv
        rho2 = t2.d_g[i] @ g_inv
        val += np.trace(rho1 @ t2.d_b_minus[i]) - np.trace(rho2 @ t1.d_b_minus[i])
        val -= np.trace(F.b_minus[i] @ (rho1 @ rho2 - rho2 @ rho1))
    for j in F.u:
        val -= t1.d_w[j] @ t2.d_u[j] - t2.d_w[j] @ t1.d_u[j]
    return complex(val)


def _require_nilpotent_fiber(F: MatricialData, tol: float) -> None:
    for i, q in enumerate(polar(F)):
        if F.k[i] and np.max(np.abs(q[: F.k[i]])) > tol:
            raise ValidationError(
                f"block {i + 1} is not nilpotent; the sign classification "
                "is defined on the zero fiber only"
            )


def _canonical_junction(F: MatricialData, j: int, tol: float):
    """Return (negative-entry, positive-entry) read off junction j.

    Requires the canonical gauge: the designated matrix at the junction is
    the plain shift.  For unequal sizes the pair is (a_m, b_1) of the larger
    matrix; for tied sizes it is (w_last, u_first).
    """
    k = F.k
    if k[j] > k[j + 1]:
        anchor, label = F.b_minus[j + 1], f"B_minus[{j + 2}]"
        big, m, size = F.b_plus[j], k[j + 1], k[j]
    elif k[j] < k[j + 1]:
        anchor, label = F.b_plus[j], f"B_plus[{j + 1}]"
        big, m, size = F.b_minus[j + 1], k[j], k[j + 1]
    else:
        anchor, label = F.b_plus[j], f"B_plus[{j + 1}]"
        big = None
        m = size = k[j]
    if np.linalg.norm(anchor - shift_matrix(anchor.shape[0])) > tol:
        raise ValidationError(
            f"not in canonical position: {label} is not the plain shift"
        )
    if big is None:
        return F.w[j][m - 1], F.u[j][0]
    return big[m, m - 1], big[0, size - 1]


def sigma_of(F: MatricialData, rtol: float = NONZERO_RTOL) -> SigmaMap:
    """Junction sign map of canonical zero-fiber data.

    -1 when the trailing row entry (or w) survives, +1 when the leading
    column entry (or u) survives, 0 when both vanish.  Both surviving
    contradicts validity on the zero fiber and is rejected.  Decisions
    within a decade of the threshold raise a warning instead of silently
    classifying.  F must be validated (md_validate); it is not re-checked.
    """
    if any(x < 1 for x in F.k):
        raise ValidationError("sign classification needs all degrees >= 1")
    scale = F.scale()
    canon_tol = VALIDATE_TOL * scale
    nz_tol = rtol * scale
    _require_nilpotent_fiber(F, canon_tol)
    signs = []
    for j in range(F.n - 1):
        neg, pos = _canonical_junction(F, j, canon_tol)
        if abs(neg) > nz_tol and abs(pos) > nz_tol:
            raise ValidationError(
                f"junction {j + 1} has both pairing entries nonzero; "
                "data is not valid zero-fiber input"
            )
        for val in (neg, pos):
            if nz_tol / 10.0 < abs(val) <= nz_tol * 10.0:
                warnings.warn(
                    f"junction {j + 1}: entry magnitude {abs(val):.3e} is near "
                    f"the nonzero threshold {nz_tol:.3e}",
                    stacklevel=2,
                )
        if abs(neg) > nz_tol:
            signs.append(-1)
        elif abs(pos) > nz_tol:
            signs.append(1)
        else:
            signs.append(0)
    return SigmaMap(values=tuple(signs))


def _chain_permutation(M: np.ndarray) -> np.ndarray:
    """Permutation P with P M P^-1 = shift, for M a shift or relinked shift."""
    size = M.shape[0]
    S = shift_matrix(size)
    if np.array_equal(M, S):
        return np.eye(size, dtype=complex)
    start = None
    for m in range(1, size):
        if np.array_equal(M, relinked_shift(size, m)):
            start = m
            break
    if start is None:
        raise ValueError("matrix is neither the shift nor a relinked shift")
    inv = np.zeros((size, size), dtype=complex)
    order = list(range(start, size)) + list(range(start))
    for col, row in enumerate(order):
        inv[row, col] = 1.0
    return inv.T


def enumerate_sr(k) -> list[MatricialData]:
    """Canonical strongly regular representatives over the zero fiber.

    One representative per sign word in {-1, +1}^(n-1): each junction gets
    either the trailing-row unit (sign -1) or the leading-column unit
    (sign +1), with permutation conjugators g_i.  All outputs validate,
    have polar part (z^k_1, ..., z^k_n), and reproduce their sign word.
    """
    k = tuple(int(x) for x in k)
    if any(x < 1 for x in k):
        raise ValidationError(
            "all degrees must be >= 1; factor the problem at zero entries "
            "(the count is then sr_orbit_count_zero_fiber)"
        )
    n = len(k)
    reps = []
    for signs in itertools.product((-1, 1), repeat=n - 1):
        b_minus: list[np.ndarray | None] = [None] * n
        b_plus: list[np.ndarray | None] = [None] * n
        u: dict[int, np.ndarray] = {}
        w: dict[int, np.ndarray] = {}
        b_minus[0] = shift_matrix(k[0])
        b_plus[n - 1] = shift_matrix(k[n - 1])
        for j in range(n - 1):
            if k[j] > k[j + 1]:
                b_minus[j + 1] = shift_matrix(k[j + 1])
                b_plus[j] = (
                    shift_matrix(k[j]) if signs[j] == -1
                    else relinked_shift(k[j], k[j + 1])
                )
            elif k[j] < k[j + 1]:
                b_plus[j] = shift_matrix(k[j])
                b_minus[j + 1] = (
                    shift_matrix(k[j + 1]) if signs[j] == -1
                    else relinked_shift(k[j + 1], k[j])
                )
            else:
                b_plus[j] = shift_matrix(k[j])
                b_minus[j + 1] = shift_matrix(k[j + 1])
                u[j] = np.zeros(k[j], dtype=complex)
                w[j] = np.zeros(k[j], dtype=complex)
                if signs[j] == -1:
                    w[j][-1] = 1.0
                else:
                    u[j][0] = 1.0
        g = []
        for i in range(n):
            p_minus = _chain_permutation(b_minus[i])
            p_plus = _chain_permutation(b_plus[i])
            g.append(p_minus.conj().T @ p_plus)
        reps.append(md_validate(MatricialData(
            k=k, b_minus=b_minus, b_plus=b_plus, g=g, u=u, w=w,
        )))
    return reps


def _isotropy_matrix(F: MatricialData) -> tuple[np.ndarray, int]:
    """Linear system whose kernel is the infinitesimal isotropy at F.

    Unknowns: the flow coefficients (k_i per block) and one centralizer
    candidate per junction (min(k_j, k_(j+1))^2 each).  Equations: the
    intertwining p_i'(B_i^-) = xi_(i-1) - g_i xi_i g_i^-1 per block, the
    two embedded-commutant conditions per junction, and the u/w fixing at
    tied sizes.
    """
    k = F.k
    n = F.n
    sizes = [F.junction_size(j) for j in range(n - 1)]
    lam_offsets = np.cumsum((0,) + k)
    xi_offsets = lam_offsets[-1] + np.cumsum([0] + [m * m for m in sizes])
    unknowns = int(xi_offsets[-1])

    def xi_cols(j):
        return slice(xi_offsets[j], xi_offsets[j + 1])

    # Row-major vec identity: (A X C).reshape(-1) = kron(A, C.T) @ X.reshape(-1).
    # The m-by-m centralizer xi embeds in a size-k block as P xi P^T, P = eye(k, m).
    rows: list[np.ndarray] = []
    for i in range(n):
        if k[i] == 0:
            continue
        block = np.zeros((k[i] * k[i], unknowns), dtype=complex)
        power = np.eye(k[i], dtype=complex)
        for jdx in range(1, k[i] + 1):
            block[:, lam_offsets[i] + jdx - 1] = (jdx * power).reshape(-1)
            power = power @ F.b_minus[i]
        if i > 0 and sizes[i - 1] > 0:
            P = np.eye(k[i], sizes[i - 1], dtype=complex)
            block[:, xi_cols(i - 1)] -= np.kron(P, P)
        if i < n - 1 and sizes[i] > 0:
            m = sizes[i]
            g_inv = np.linalg.inv(F.g[i])
            block[:, xi_cols(i)] += np.kron(F.g[i][:, :m], g_inv[:m, :].T)
        rows.append(block)

    for j in range(n - 1):
        m = sizes[j]
        if m == 0:
            continue
        for B in (F.b_plus[j], F.b_minus[j + 1]):
            P = np.eye(B.shape[0], m, dtype=complex)
            comm = np.zeros((B.size, unknowns), dtype=complex)
            comm[:, xi_cols(j)] = np.kron(P, (P.T @ B).T) - np.kron(B @ P, P)
            rows.append(comm)
        if k[j] == k[j + 1]:
            fix = np.zeros((2 * m, unknowns), dtype=complex)
            fix[:m, xi_cols(j)] = np.kron(np.eye(m), F.u[j][None, :])
            fix[m:, xi_cols(j)] = np.kron(F.w[j][None, :], np.eye(m))
            rows.append(fix)

    return np.vstack(rows), unknowns


def isotropy_nullity(F: MatricialData, rtol: float = RANK_RTOL) -> int:
    """Dimension of the linearized isotropy (0 means discrete, continuous otherwise)."""
    system, unknowns = _isotropy_matrix(F)
    return unknowns - numerical_rank(system, rtol=rtol)


def md_strongly_regular(F: MatricialData, rtol: float = RANK_RTOL) -> bool:
    """Sign classification with a linearized-isotropy cross-check.

    The answer is whether the junction sign map avoids zero; the nullity of
    the linearized isotropy system is computed independently and any
    disagreement raises a warning.
    """
    sigma = sigma_of(F)
    primary = all(v != 0 for v in sigma.values)
    nullity = isotropy_nullity(F, rtol=rtol)
    if (nullity == 0) != primary:
        warnings.warn(
            f"sign classification ({primary}) disagrees with linearized "
            f"isotropy nullity {nullity}",
            stacklevel=2,
        )
    return primary


@dataclass(frozen=True)
class OpenStratumChart:
    """Distinct poles with nonzero residual values, per level.

    The flat coordinate order is all poles (level by level), then all
    residues in the same order.
    """

    poles: tuple[np.ndarray, ...]
    residues: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        return sum(p.size for p in self.poles)

    def flat(self) -> np.ndarray:
        return np.concatenate(
            [p for p in self.poles] + [r for r in self.residues]
        )


def open_stratum_chart(poles, residues, tol: float = 1e-10) -> OpenStratumChart:
    poles = tuple(np.asarray(p, dtype=complex).reshape(-1) for p in poles)
    residues = tuple(np.asarray(r, dtype=complex).reshape(-1) for r in residues)
    if len(poles) != len(residues) or any(
        p.size != r.size for p, r in zip(poles, residues)
    ):
        raise ValueError("poles and residues must match level by level")
    allp = np.concatenate(poles) if poles else np.zeros(0, dtype=complex)
    scale = 1.0 + (np.max(np.abs(allp)) if allp.size else 0.0)
    for a in range(allp.size):
        for b in range(a + 1, allp.size):
            if abs(allp[a] - allp[b]) <= tol * scale:
                raise ValidationError("coincident poles are outside the open stratum")
    for r in residues:
        if r.size and np.min(np.abs(r)) <= tol:
            raise ValidationError("residual values must be nonzero")
    return OpenStratumChart(poles=poles, residues=residues)


def chart_symplectic_form(chart: OpenStratumChart, t1, t2) -> complex:
    """sum_l (drho_l / rho_l) ^ dq_l on flat tangent vectors."""
    N = chart.size
    t1 = np.asarray(t1, dtype=complex).reshape(-1)
    t2 = np.asarray(t2, dtype=complex).reshape(-1)
    rho = chart.flat()[N:]
    return complex(np.sum((t1[N:] * t2[:N] - t2[N:] * t1[:N]) / rho))


def chart_bracket(chart: OpenStratumChart, f, g, step: float | None = None) -> complex:
    """Poisson bracket of two chart functions via the closed-form tensor.

    Functions take the flat coordinate vector.  The convention is the one
    in the module header: {q_l, 1/rho_k} = delta_lk / rho_k.
    """
    x = chart.flat()
    N = chart.size
    df = fd_gradient(f, x, step=step)
    dg = fd_gradient(g, x, step=step)
    rho = x[N:]
    return complex(np.sum(rho * (df[N:] * dg[:N] - df[:N] * dg[N:])))


def chart_as_poisson_chart(chart: OpenStratumChart) -> Chart:
    """Chart whose tensor is the numerically inverted symplectic matrix.

    Used as an independent cross-check of :func:`chart_bracket`: the matrix
    of the two-form is assembled from the closed form and inverted, rather
    than writing the bracket tensor down directly.
    """
    N = chart.size
    names = tuple(f"q{l + 1}" for l in range(N)) + tuple(f"rho{l + 1}" for l in range(N))

    def tensor(x: np.ndarray) -> np.ndarray:
        rho = x[N:]
        omega = np.zeros((2 * N, 2 * N), dtype=complex)
        for l in range(N):
            omega[N + l, l] = 1.0 / rho[l]
            omega[l, N + l] = -1.0 / rho[l]
        return -np.linalg.inv(omega)

    return Chart(names=names, poisson_tensor=tensor)


def _conjugator(b_plus: np.ndarray, b_minus: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Some g with g b_plus g^-1 = b_minus, via Krylov bases (both cyclic)."""
    size = b_plus.shape[0]
    for _ in range(20):
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        K_plus = krylov_matrix(b_plus, x)
        K_minus = krylov_matrix(b_minus, v)
        if (
            numerical_rank(K_plus) == size
            and numerical_rank(K_minus) == size
            and np.linalg.cond(K_plus) < 1e8
            and np.linalg.cond(K_minus) < 1e8
        ):
            g = K_minus @ np.linalg.inv(K_plus)
            if np.linalg.norm(g @ b_plus @ np.linalg.inv(g) - b_minus) < 1e-7 * (
                1.0 + np.linalg.norm(b_minus)
            ):
                return g
    raise ValidationError("could not build a well-conditioned conjugator")


def _charpoly_adjugate(A: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Coefficients of det(zI - A) and H with adj(zI - A) = sum_l z**l H[l]."""
    pairs = list(_faddeev_leverrier(A))[::-1]
    return np.array([c for c, _ in pairs] + [1.0], dtype=complex), [M for _, M in pairs]


def _solve_gcomp(X: np.ndarray, target: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Generalized companion with X-block X and characteristic polynomial target.

    Uses det(z - B) = det(z - X) r_c(z) - a adj(z - X) b: a random b fixes
    the b-column, the a-row is solved from the remainder of target modulo
    char(X), and the tail column from the exact quotient.
    """
    m = X.shape[0]
    k = poly_degree(target)
    qx, H = _charpoly_adjugate(X)
    _, rem = poly_divmod(target, qx)
    rhs = np.zeros(m, dtype=complex)
    rhs[: rem.size] = -rem
    for _ in range(20):
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        M = np.zeros((m, m), dtype=complex)
        for l in range(m):
            M[l, :] = H[l] @ b
        if numerical_rank(M) < m or np.linalg.cond(M) > 1e10:
            continue
        a = np.linalg.solve(M, rhs)
        cross = np.zeros(k + 1, dtype=complex)
        for l in range(m):
            cross[l] = a @ H[l] @ b
        quotient, leftover = poly_divmod(np.asarray(target, dtype=complex) + cross, qx)
        if poly_degree(leftover) >= 0 and np.max(np.abs(leftover)) > 1e-8:
            continue
        r_c = np.zeros(k - m + 1, dtype=complex)
        r_c[: quotient.size] = quotient
        c = -r_c[: k - m]
        B = generalized_companion(X, a, b, c)
        if np.max(np.abs(charpoly(B) - target)) < 1e-8 * (1 + np.max(np.abs(target))):
            return B
    raise ValidationError("could not realize the requested polar polynomial")


def _solve_rank_one(b_plus: np.ndarray, target: np.ndarray, rng: np.random.Generator):
    """(u, w) with char(b_plus - u w^T) = target, via the adjugate identity."""
    k = b_plus.shape[0]
    base, H = _charpoly_adjugate(b_plus)
    gap = np.zeros(k, dtype=complex)
    diff = np.asarray(target, dtype=complex) - base
    gap[: k] = diff[:k]
    for _ in range(20):
        u = rng.normal(size=k) + 1j * rng.normal(size=k)
        M = np.zeros((k, k), dtype=complex)
        for l in range(k):
            M[l, :] = H[l] @ u
        if numerical_rank(M) < k or np.linalg.cond(M) > 1e10:
            continue
        w = np.linalg.solve(M, gap)
        if np.max(np.abs(charpoly(b_plus - np.outer(u, w)) - target)) < 1e-8 * (
            1 + np.max(np.abs(target))
        ):
            return u, w
    raise ValidationError("could not realize the requested rank-one update")


def fixture_from_polar(polys, rng=None) -> MatricialData:
    """Construct a valid model point with the prescribed polar part.

    The polynomials must be monic with simple generic roots (every block is
    then cyclic).  Junctions are resolved left to right: the smaller side
    is a plain companion matrix, the larger side is solved as a generalized
    companion, and tied sizes get a rank-one update.  Conjugators come from
    random Krylov bases.  The output is validated before return.
    """
    rng = np.random.default_rng(rng)
    polys = [poly_trim(p) for p in polys]
    for j, p in enumerate(polys):
        if poly_degree(p) >= 1 and not is_monic(p, tol=1e-9):
            raise ValidationError(f"polynomial {j + 1} is not monic")
    k = tuple(max(poly_degree(p), 0) for p in polys)
    n = len(k)
    b_minus: list[np.ndarray | None] = [None] * n
    b_plus: list[np.ndarray | None] = [None] * n
    u: dict[int, np.ndarray] = {}
    w: dict[int, np.ndarray] = {}

    def plain(i):
        return (
            companion_of(polys[i]) if k[i] >= 1 else np.zeros((0, 0), dtype=complex)
        )

    b_minus[0] = plain(0)
    b_plus[n - 1] = plain(n - 1)
    for j in range(n - 1):
        m = min(k[j], k[j + 1])
        if m == 0:
            if b_plus[j] is None:
                b_plus[j] = plain(j)
            if b_minus[j + 1] is None:
                b_minus[j + 1] = plain(j + 1)
        elif k[j] > k[j + 1]:
            b_minus[j + 1] = plain(j + 1)
            b_plus[j] = _solve_gcomp(b_minus[j + 1], polys[j], rng)
        elif k[j] < k[j + 1]:
            b_plus[j] = plain(j)
            b_minus[j + 1] = _solve_gcomp(b_plus[j], polys[j + 1], rng)
        else:
            b_plus[j] = plain(j)
            u[j], w[j] = _solve_rank_one(b_plus[j], polys[j + 1], rng)
            b_minus[j + 1] = b_plus[j] - np.outer(u[j], w[j])
    g = []
    for i in range(n):
        if k[i] == 0:
            g.append(np.zeros((0, 0), dtype=complex))
        else:
            g.append(_conjugator(b_plus[i], b_minus[i], rng))
    return md_validate(MatricialData(k=k, b_minus=b_minus, b_plus=b_plus, g=g, u=u, w=w))


def _chebyshev_nodes(count: int, lo: float = 1.0, hi: float = 2.0) -> np.ndarray:
    angles = (2 * np.arange(1, count + 1) - 1) * np.pi / (2 * count)
    return (lo + hi) / 2.0 + (hi - lo) / 2.0 * np.cos(angles)


def pairing_residual(F: MatricialData) -> float:
    """Max sampled value of the junction pairing polynomials on zero-fiber data.

    For unequal sizes this is a adj(z - X) b of the larger matrix, for tied
    sizes w^T adj(z - B^+) u; each has degree below the block size, so
    evaluation at that many Chebyshev-spaced points (away from the nilpotent
    spectrum) certifies the identity without symbolic adjugates.  F must be
    validated (md_validate); it is not re-checked.
    """
    _require_nilpotent_fiber(F, VALIDATE_TOL * F.scale())
    worst = 0.0
    for j in range(F.n - 1):
        m = min(F.k[j], F.k[j + 1])
        if m == 0:
            continue
        if F.k[j] > F.k[j + 1]:
            big, size = F.b_plus[j], F.k[j]
            X = big[:m, :m]
            row = big[m, :m]
            col = big[:m, size - 1]
        elif F.k[j] < F.k[j + 1]:
            big, size = F.b_minus[j + 1], F.k[j + 1]
            X = big[:m, :m]
            row = big[m, :m]
            col = big[:m, size - 1]
        else:
            X = F.b_plus[j]
            row = F.w[j]
            col = F.u[j]
            m = F.k[j]
        for z in _chebyshev_nodes(m):
            zi = z * np.eye(X.shape[0], dtype=complex) - X
            adj = np.linalg.det(zi) * np.linalg.inv(zi)
            worst = max(worst, abs(row @ adj @ col))
    return worst
