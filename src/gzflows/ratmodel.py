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

import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ToleranceError, ValidationError
from .gzcore import _checked_monic
from .matpoly import (
    _abs,
    _coincident,
    _expm,
    _blocks,
    _faddeev_leverrier,
    _frobenius,
    _powers,
    _shift,
    as_matrix,
    charpoly,
    companion_of,
    krylov_matrix,
    numerical_rank,
    poly_degree,
    poly_divmod,
)
from .verify import fd_gradient, Chart

__all__ = [
    "MatricialData",
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
    "chart_as_poisson_chart",
    "fixture_from_polar",
]

# Residual tolerance for the validity bullets, times (1 + data scale).
VALIDATE_TOL = 1e-8
# Nonzero decisions in the sign classification, times (1 + data scale).
NONZERO_RTOL = 1e-10
# Open-stratum chart: pole separation (times 1 + max |pole|) and residue size.
_OPEN_STRATUM_TOL = 1e-10


@dataclass
class MatricialData:
    """Model tuple over a multidegree; junction j sits between blocks j, j+1.

    A tangent vector at a point F is a MatricialData over F.k in the same layout.
    """

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
        return _intake([self])[1].item()

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


@dataclass(frozen=True)
class SigmaMap:
    """Junction signs in {-1, 0, +1}; nonvanishing means strongly regular."""

    values: tuple[int, ...]


def shift_matrix(k: int) -> np.ndarray:
    """Nilpotent matrix with a unit subdiagonal (companion of z**k)."""
    return _shift(k).copy()


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
    B[m:, m:] = _shift(km)
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


def _minor_shapes(k: tuple[int, ...], i: int) -> tuple[int, int]:
    """(m for B_i^-, m for B_i^+) with the k_0 = k_(n+1) = 0 convention."""
    left = k[i - 1] if i > 0 else 0
    right = k[i + 1] if i < len(k) - 1 else 0
    return min(left, k[i]), min(right, k[i])


def _by_size(k: tuple[int, ...], j: int, a, b):
    """(larger, smaller) from (item at B_plus[j], item at B_minus[j+1]), and back.

    At a junction of unequal sizes the larger block is the generalized
    companion carrying the smaller one as its X-block (tied sizes differ by
    u w^T instead).  The swap is its own inverse, so the same call reads a
    junction and fills one.
    """
    return (b, a) if k[j] < k[j + 1] else (a, b)


def md_validate(F: MatricialData, tol: float = VALIDATE_TOL) -> MatricialData:
    """The one validity check of a model point; every violated bullet is reported.

    Structural faults raise ValueError: first shapes and (u, w) pairs not exactly at
    the tied junctions, then non-finite entries or scale.  Bullets: (a)
    generalized companion shapes, (b) X-block matching across junctions with
    unequal sizes, (c) rank-one matching u w^T at tied sizes, (d) the
    conjugacy g_i B_i^+ g_i^-1 = B_i^- up to tol * scale.
    """
    _validated_scales([F], tol)
    return F


def _check_structure(F: MatricialData, k: tuple[int, ...]) -> None:
    """ValueError for the first structural fault of F as a point over k, read off its shapes alone."""
    n = len(k)
    if F.k != k:
        raise ValueError(f"a stack holds points of one k: {F.k} is not {k}")
    for name, mats in (("B_minus", F.b_minus), ("B_plus", F.b_plus), ("g", F.g)):
        if len(mats) != n:
            raise ValueError(f"{name} must have {n} blocks")
        for i, M in enumerate(mats):
            shape = np.shape(M)
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"expected a square matrix, got shape {shape}")
            if shape != (k[i], k[i]):
                raise ValueError(f"{name}[{i + 1}] has shape {shape}, expected ({k[i]}, {k[i]})")
    tied = {j for j in range(n - 1) if k[j] == k[j + 1]}
    if set(F.u) != tied or set(F.w) != tied:
        where = ", ".join(str(j + 1) for j in sorted(tied)) or "none"
        raise ValueError(f"(u, w) pairs must sit exactly at the junctions of equal sizes ({where})")
    for j in sorted(tied):
        if np.shape(F.u[j]) != (k[j],) or np.shape(F.w[j]) != (k[j],):
            raise ValueError(f"(u, w) at junction {j + 1} must be finite with length {k[j]}")


@functools.cache
def _sizes(k: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Each size of k with the levels of that size."""
    return tuple((d, tuple(i for i, x in enumerate(k) if x == d)) for d in sorted(set(k)))


@dataclass
class _Stack:
    """Points over one k as stacks, S points deep.

    ``blocks[d]`` holds B_minus, B_plus and g of the levels of size d, in level order,
    as one (3, L, S, d, d) array; ``b_minus[i]``, ``b_plus[i]`` and ``g[i]`` are its
    (S, k_i, k_i) views at level i.  Likewise ``uw[j]`` holds u and w of the tied
    junction j as one (2, S, m) array, and ``u[j]``, ``w[j]`` are its (S, m) views.
    """

    k: tuple[int, ...]
    count: int
    blocks: dict[int, np.ndarray]
    uw: dict[int, np.ndarray]
    b_minus: list[np.ndarray] = field(default_factory=list)
    b_plus: list[np.ndarray] = field(default_factory=list)
    g: list[np.ndarray] = field(default_factory=list)
    u: dict[int, np.ndarray] = field(default_factory=dict)
    w: dict[int, np.ndarray] = field(default_factory=dict)


def _stack(points: list[MatricialData]) -> _Stack:
    """Points over one k (checked by _check_structure) as one _Stack."""
    k = points[0].k
    blocks = {d: np.array([getattr(P, name)[i] for name in ("b_minus", "b_plus", "g") for i in levels
                           for P in points]).reshape(3, len(levels), len(points), d, d)
              for d, levels in _sizes(k)}
    D = _Stack(k=k, count=len(points), blocks=blocks,
               uw={j: np.array([[P.u[j] for P in points], [P.w[j] for P in points]]) for j in points[0].u})
    D.b_minus, D.b_plus, D.g = [None] * len(k), [None] * len(k), [None] * len(k)
    for d, levels in _sizes(k):
        for l, i in enumerate(levels):
            D.b_minus[i], D.b_plus[i], D.g[i] = blocks[d][:, l]
    for j, pair in D.uw.items():
        D.u[j], D.w[j] = pair
    return D


def _scales(D: _Stack) -> np.ndarray:
    """MatricialData.scale of each point of the stack D, to the bit; an overflow is not
    finite here.  Each size of block takes one stacked norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [_frobenius(b[..., None]).reshape(-1, D.count) for b in D.uw.values()]
        parts += [_frobenius(b).reshape(-1, D.count) for b in D.blocks.values()]
    return 1.0 + np.maximum.reduce(np.concatenate(parts))


def _intake(points: list[MatricialData]) -> tuple[_Stack, np.ndarray]:
    """The one intake of model points (or tangents) over one k: (their stack, their scales).

    Every point is structure-checked first; then the first point with a non-finite
    entry or scale raises its ValueError.
    """
    k = points[0].k
    for F in points:
        _check_structure(F, k)
    D = _stack(points)
    scales = _scales(D)
    finite = np.isfinite(scales)
    if not finite.all():
        # a non-finite entry, or else an overflow
        F = points[int(np.argmin(finite))]
        if not all(np.isfinite(M).all() for M in (*F.b_minus, *F.b_plus, *F.g)):
            raise ValueError("matrix entries must be finite")
        for j in sorted(F.u):
            if not (np.isfinite(F.u[j]).all() and np.isfinite(F.w[j]).all()):
                raise ValueError(f"(u, w) at junction {j + 1} must be finite with length {k[j]}")
        raise ValueError("model data too large: its scale overflows")
    return D, scales


def _validated_scales(points: list[MatricialData], tol: float) -> np.ndarray:
    """The scale of each point of a list over one k, validated as one stack.

    After the intake, the first refused point raises the ValidationError md_validate
    raises for it alone.
    """
    D, scales = _intake(points)
    faults = _violations(D, tol * scales)
    refused = np.concatenate(faults[:-1]).any(axis=0)
    if refused.any():
        raise ValidationError("matricial data rejected",
                              violations=_report(D.k, int(np.argmax(refused)), *faults))
    return scales


def _violations(D: _Stack, eff: np.ndarray) -> tuple[np.ndarray, ...]:
    """md_validate's bullets over the stack D at the tolerances eff (S,).

    (pattern, matching, singular, far, resid), a row per fault and a column per point:
    pattern a row per run of _shape_table, matching one per junction, and singular (g
    numerically singular), far (g B_plus g^-1 - B_minus above eff) and resid (its norm)
    one per level, the levels of each size of _sizes in turn.
    """
    k = D.k
    n = len(k)
    # bullet (a): the largest distance of each run of _shape_table from its target (k = (1,) has none)
    at, target, starts, _ = _shape_table(k)
    flat = np.concatenate([M.reshape(D.count, -1) for i in range(n) for M in (D.b_minus[i], D.b_plus[i])],
                          axis=1)
    worst = np.maximum.reduceat(_abs(flat[:, at] - target), starts, axis=1) if starts.size else np.zeros((D.count, 0))
    pattern = (worst > eff[:, None]).T
    gaps = np.zeros((n - 1, D.count))
    for j in range(n - 1):
        if k[j] == k[j + 1]:
            gaps[j] = _frobenius(D.b_plus[j] - D.b_minus[j + 1] - D.u[j][:, :, None] * D.w[j][:, None, :])
        else:
            m = min(k[j], k[j + 1])
            big, small = _by_size(k, j, D.b_plus[j], D.b_minus[j + 1])
            gaps[j] = _frobenius(big[:, :m, :m] - small)
    # conjugacy: the levels of one size share one rank, one inverse and one norm
    singular, resid = [], []
    for d, levels in _sizes(k):
        b_minus, b_plus, g = D.blocks[d]
        rank_short = numerical_rank(g) < d
        if rank_short.any():
            # a singular g is left out of the inverses: the identity stands in, its residual unread
            g = np.where(rank_short[..., None, None], np.eye(d), g)
        singular.append(rank_short)
        resid.append(_frobenius(g @ b_plus @ np.linalg.inv(g) - b_minus))
    singular, resid = np.concatenate(singular), np.concatenate(resid)
    return pattern, gaps > eff, singular, (resid > eff) & ~singular, resid


def _report(k: tuple[int, ...], s: int, pattern, matching, singular, far, resid) -> list[str]:
    """The violations of point s among the faults of _violations, in md_validate's order."""
    out = [_shape_table(k)[-1][c] for c in np.flatnonzero(pattern[:, s])]
    for j in np.flatnonzero(matching[:, s]):
        if k[j] == k[j + 1]:
            out.append(f"matching: B_plus[{j + 1}] - B_minus[{j + 2}] is not u w^T")
        else:
            big, small = _by_size(k, j, f"B_plus[{j + 1}]", f"B_minus[{j + 2}]")
            out.append(f"matching: X-block of {big} differs from {small}")
    levels = [i for _, of_size in _sizes(k) for i in of_size]
    for i, row in sorted((i, row) for row, i in enumerate(levels)):
        if singular[row, s]:
            out.append(f"conjugacy: g[{i + 1}] is numerically singular")
        elif far[row, s]:
            out.append(f"conjugacy: g[{i + 1}] B_plus[{i + 1}] g[{i + 1}]^-1 != B_minus[{i + 1}] "
                       f"(residual {resid[row, s]:.3e})")
    return out


@functools.cache
def _shape_table(k: tuple[int, ...]) -> tuple:
    """Bullet (a) over k as runs of B_minus[1], B_plus[1], B_minus[2], ... flattened and joined.

    (at, target, starts, texts): run c holds the entries at[starts[c]:starts[c + 1]], which
    must equal their entries of target, and texts[c] is its fault as md_validate reports it.
    Each fixed one is a run, target 1, and each matrix's entries that must vanish are one run,
    target 0, in md_validate's order.  The arrays are read-only: every call shares them.
    """
    at, target, starts, texts = [], [], [], []
    base = 0
    for i, d in enumerate(k):
        for m, label in zip(_minor_shapes(k, i), (f"B_minus[{i + 1}]", f"B_plus[{i + 1}]")):
            free, spots = _free_mask(d, m)
            for r, c in spots:
                free[r, c] = True
                starts.append(len(at))
                at.append(base + r * d + c)
                target.append(1.0)
                texts.append(f"shape: {label} subdiagonal entry ({r + 1},{c + 1}) != 1")
            if not free.all():
                starts.append(len(at))
                zeros = (base + np.flatnonzero(~free)).tolist()
                at += zeros
                target += [0.0] * len(zeros)
                texts.append(f"shape: {label} has nonzero entries outside the displayed form")
            base += d * d
    table = (np.array(at, dtype=int), np.array(target), np.array(starts, dtype=int))
    for frame in table:
        frame.flags.writeable = False
    return table + (tuple(texts),)


def gk_act(F: MatricialData, factors) -> MatricialData:
    """Gauge action: one invertible factor per junction, None where empty.

    Junction j conjugates B_plus[j] and B_minus[j+1] by blockdiag(h, I),
    multiplies g_j on the right by its inverse and g_(j+1) on the left,
    moving only leading rows and columns, and rescales (u_j, w_j) at tied
    sizes.  F must be validated (md_validate); the output revalidates.
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
        m = h.shape[0]
        # a validated point may hold list or integer blocks: each moved block becomes complex
        blocks = [np.asarray(M, dtype=complex) for M in (out.b_plus[j], out.b_minus[j + 1], out.g[j], out.g[j + 1])]
        out.b_plus[j], out.b_minus[j + 1], out.g[j], out.g[j + 1] = plus, minus, left, right = blocks
        plus[:m], minus[:m], right[:m] = h @ plus[:m], h @ minus[:m], h @ right[:m]
        plus[:, :m], minus[:, :m], left[:, :m] = plus[:, :m] @ h_inv, minus[:, :m] @ h_inv, left[:, :m] @ h_inv
        if j in out.u:
            out.u[j] = h @ out.u[j]
            out.w[j] = h_inv.T @ out.w[j]
    return md_validate(out)


def ak_act(F: MatricialData, params) -> MatricialData:
    """Abelian action: g_i -> exp(p_i'(B_i^-)) g_i, everything else fixed.

    ``params`` holds one coefficient vector per block, the coefficients of
    z, z^2, ..., z^(k_i) of a polynomial with zero constant term.  The
    exponential factor commutes with B_i^-, so the conjugacy bullet is
    untouched and the polar part is preserved: F must be validated
    (md_validate), and stays valid without a re-check.  A g_i that overflows
    raises ToleranceError.
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
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            for j, (coeff, power) in enumerate(zip(lam, _powers(out.b_minus[i], lam.size)), start=1):
                deriv = deriv + j * coeff * power
            out.g[i] = _expm(deriv) @ out.g[i]
        if not np.all(np.isfinite(out.g[i])):
            raise ToleranceError(f"exp(p_{i + 1}'(B_minus[{i + 1}])) g[{i + 1}] overflows")
    return out


def polar(F: MatricialData) -> list[np.ndarray]:
    """Monic polynomials q_i = det(z - B_i^-), ascending coefficients, of a validated F."""
    return [charpoly(B) for B in F.b_minus]


def _refuse_singular_g(D: _Stack) -> None:
    """ValidationError, with md_validate's text, for the first numerically singular g of
    the stack's first point: the model point that the functions inverting g take first."""
    for i, g in enumerate(D.g):
        if numerical_rank(g[0]) < D.k[i]:
            raise ValidationError(f"conjugacy: g[{i + 1}] is numerically singular")


def md_tangent_violations(F: MatricialData, t: MatricialData) -> list[str]:
    """Linearized validity bullets for a tangent t at F, both taken as one stack by the
    intake; a numerically singular g of F is refused."""
    D, scales = _intake([F, t])
    _refuse_singular_g(D)
    k = F.k
    n = F.n
    # the tangent's own norm on top of F's scale
    eff = VALIDATE_TOL * (scales[0] + (scales[1] - 1.0))
    out: list[str] = []
    for i in range(n):
        for M, m, label in zip((D.b_minus[i][1], D.b_plus[i][1]), _minor_shapes(k, i),
                               (f"dB_minus[{i + 1}]", f"dB_plus[{i + 1}]")):
            off = np.abs(M[~_free_mask(k[i], m)[0]])
            if off.size and off.max() > eff:
                out.append(f"tangent shape: {label} moves structural entries")
    for j in range(n - 1):
        m = min(k[j], k[j + 1])
        if k[j] == k[j + 1]:
            (u, du), (w, dw) = D.u[j], D.w[j]
            gap = np.linalg.norm(D.b_plus[j][1] - D.b_minus[j + 1][1] - np.outer(du, w) - np.outer(u, dw))
        else:
            big, small = _by_size(k, j, D.b_plus[j][1], D.b_minus[j + 1][1])
            gap = np.linalg.norm(big[:m, :m] - small)
        if gap > eff:
            out.append(f"tangent matching violated at junction {j + 1}")
    for i in range(n):
        if k[i] == 0:
            continue
        (b_plus, db_plus), (g, dg) = D.b_plus[i], D.g[i]
        g_inv = np.linalg.inv(g)
        lin = dg @ b_plus @ g_inv + g @ db_plus @ g_inv - g @ b_plus @ g_inv @ dg @ g_inv
        if np.linalg.norm(lin - D.b_minus[i][1]) > eff:
            out.append(f"tangent conjugacy violated at block {i + 1}")
    return out


def md_symplectic(F: MatricialData, t1: MatricialData, t2: MatricialData, check: bool = True) -> complex:
    """Evaluate the model symplectic form on a tangent pair.

    omega = sum_i tr(dg_i g_i^-1 ^ dB_i^- - B_i^- (dg_i g_i^-1)^2)
            - sum_(tied j) dw_j^T ^ du_j,

    antisymmetrized over the two slots.  F and the tangents go through the
    intake as one stack, and a numerically singular g of F is refused; tangents
    violating the linearized constraints are rejected when ``check`` is set.
    """
    D = _intake([F, t1, t2])[0]
    _refuse_singular_g(D)
    if check:
        bad = md_tangent_violations(F, t1) + md_tangent_violations(F, t2)
        if bad:
            raise ValidationError("tangent pair rejected", violations=bad)
    val = 0.0 + 0j
    for i in range(F.n):
        if F.k[i] == 0:
            continue
        (b_minus, db1, db2), (g, dg1, dg2) = D.b_minus[i], D.g[i]
        g_inv = np.linalg.inv(g)
        rho1, rho2 = dg1 @ g_inv, dg2 @ g_inv
        val += np.trace(rho1 @ db2) - np.trace(rho2 @ db1)
        val -= np.trace(b_minus @ (rho1 @ rho2 - rho2 @ rho1))
    for j in D.u:
        (_, du1, du2), (_, dw1, dw2) = D.u[j], D.w[j]
        val -= dw1 @ du2 - dw2 @ du1
    return complex(val)


def sigma_of(F: MatricialData) -> SigmaMap:
    """Junction sign map of canonical zero-fiber data.

    -1 when the trailing row entry (or w) survives, +1 when the leading
    column entry (or u) survives, 0 when both vanish.  Both surviving
    contradicts validity on the zero fiber and is rejected.  Decisions
    within a decade of the threshold raise a warning instead of silently
    classifying.  The intake checks F's structure and finiteness; the
    validity bullets are not re-checked (F should pass md_validate).
    """
    return _classified([F], isotropy=False, stacklevel=3)[0][0]


def _classified(points: list[MatricialData], isotropy: bool, stacklevel: int) -> list[tuple[SigmaMap, bool]]:
    """(sigma_of(F), whether sigma avoids zero) for each point of a list over one k, as one stack.

    Every flag is taken for all points at once.  The points before the first refused
    point then warn in turn, for their near-threshold entries and, with ``isotropy``
    and no point refused, for a linearized isotropy nullity that disagrees with the
    sign map; the warnings name the frame ``stacklevel`` levels up from here.  Last,
    the first refused point raises its first refusal.
    """
    k = points[0].k
    n = len(k)
    if any(x < 1 for x in k):
        raise ValidationError("sign classification needs all degrees >= 1")
    D, scales = _intake(points)
    canon_tol = VALIDATE_TOL * scales
    tol = NONZERO_RTOL * scales
    # refusal rows in the order one point meets them, texts[r] the refusal of row r: each
    # level's nilpotency, then each junction's plain-shift and both-entries tests
    refusals = np.zeros((3 * n - 2, D.count), dtype=bool)
    texts = [f"block {i + 1} is not nilpotent; the sign classification is defined on the zero fiber only"
             for i in range(n)]
    with np.errstate(over="ignore", invalid="ignore"):  # a large finite point may overflow a power
        # the levels of one size as one stack of characteristic polynomials
        for d, levels in _sizes(k):
            q = charpoly(D.blocks[d][0])[..., :d]
            refusals[list(levels)] = np.max(np.abs(q), axis=-1) > canon_tol
        # the canonical gauge: the designated matrix at each junction is the plain shift;
        # the pair read off it is (a_m, b_1) of the larger matrix, or (w_last, u_first)
        pairs = np.zeros((n - 1, 2, D.count), dtype=complex)
        for j in range(n - 1):
            m = min(k[j], k[j + 1])
            if k[j] == k[j + 1]:
                anchor, label = D.b_plus[j], f"B_plus[{j + 1}]"
                pairs[j] = D.w[j][:, m - 1], D.u[j][:, 0]
            else:
                big, anchor = _by_size(k, j, D.b_plus[j], D.b_minus[j + 1])
                label = _by_size(k, j, f"B_plus[{j + 1}]", f"B_minus[{j + 2}]")[1]
                pairs[j] = big[:, m, m - 1], big[:, 0, -1]
            refusals[n + 2 * j] = _frobenius(anchor - _shift(m)) > canon_tol
            texts += [f"not in canonical position: {label} is not the plain shift",
                      f"junction {j + 1} has both pairing entries nonzero; data is not valid zero-fiber input"]
        mags = _abs(pairs)
    nonzero = mags > tol
    refusals[n + 1 :: 2] = nonzero.all(axis=1)
    signs = np.where(nonzero[:, 0], -1, np.where(nonzero[:, 1], 1, 0))
    near = (tol / 10.0 < mags) & (mags <= tol * 10.0)
    refused = refusals.any(axis=0)
    accepted = int(np.argmax(refused)) if refused.any() else D.count
    nullities = _nullities(points).tolist() if isotropy and accepted == D.count else None
    out = []
    for s in range(accepted):
        for j, side in zip(*np.nonzero(near[:, :, s])):
            warnings.warn(f"junction {j + 1}: entry magnitude {mags[j, side, s]:.3e} is near "
                          f"the nonzero threshold {tol[s]:.3e}", stacklevel=stacklevel)
        word = tuple(signs[:, s].tolist())
        primary = all(word)
        if nullities is not None and (nullities[s] == 0) != primary:
            warnings.warn(f"sign classification ({primary}) disagrees with linearized "
                          f"isotropy nullity {nullities[s]}", stacklevel=stacklevel)
        out.append((SigmaMap(values=word), primary))
    if accepted < D.count:
        raise ValidationError(texts[int(np.argmax(refusals[:, accepted]))])
    return out


def enumerate_sr(k) -> list[MatricialData]:
    """Canonical strongly regular representatives over the zero fiber.

    One representative per sign word in {-1, +1}^(n-1): each junction gets
    either the trailing-row unit (sign -1) or the leading-column unit
    (sign +1), with permutation conjugators g_i.  All outputs validate,
    have polar part (z^k_1, ..., z^k_n), and reproduce their sign word.
    """
    k = tuple(int(x) for x in k)
    if not k:
        raise ValueError("k must hold at least one degree")
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
        # the basis vector each block's Jordan chain starts at: 0 for the plain shift
        start_minus = [0] * n
        start_plus = [0] * n
        u: dict[int, np.ndarray] = {}
        w: dict[int, np.ndarray] = {}
        b_minus[0] = shift_matrix(k[0])
        b_plus[n - 1] = shift_matrix(k[n - 1])
        for j in range(n - 1):
            size, m = _by_size(k, j, k[j], k[j + 1])
            start = m if signs[j] == 1 and m < size else 0
            big = relinked_shift(size, start) if start else shift_matrix(size)
            b_plus[j], b_minus[j + 1] = _by_size(k, j, big, shift_matrix(m))
            start_plus[j], start_minus[j + 1] = _by_size(k, j, start, 0)
            if m == size:
                u[j] = np.zeros(m, dtype=complex)
                w[j] = np.zeros(m, dtype=complex)
                if signs[j] == -1:
                    w[j][-1] = 1.0
                else:
                    u[j][0] = 1.0
        # g_i = P_minus^-1 P_plus, where P = eye[roll(arange, -s)] takes the shift
        # relinked at start s to the shift: the identity with its columns rolled by the
        # starts' difference
        g = [np.eye(size, dtype=complex)[:, (np.arange(size) - (plus - minus)) % size]
             for size, minus, plus in zip(k, start_minus, start_plus)]
        reps.append(MatricialData(k=k, b_minus=b_minus, b_plus=b_plus, g=g, u=u, w=w))
    _validated_scales(reps, VALIDATE_TOL)
    return reps


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, or of each pair of two broadcast stacks (..., p, q) and
    (..., r, t): the same products, to the bit, without its generic set-up."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _isotropy_shape(k: tuple[int, ...]) -> tuple[int, int]:
    """(equations, unknowns) of the isotropy system over k (see _isotropy_matrix)."""
    sizes = [min(a, b) for a, b in zip(k, k[1:])]
    equations = sum(d * d for d in k) + sum(
        k[j] ** 2 + k[j + 1] ** 2 + (2 * m if k[j] == k[j + 1] else 0)
        for j, m in enumerate(sizes) if m
    )
    return equations, sum(k) + sum(m * m for m in sizes)


def _isotropy_matrix(D: _Stack) -> np.ndarray:
    """Linear systems whose kernels are the infinitesimal isotropy at the points of the
    stack D, shape (S, equations, unknowns).

    Unknowns: the flow coefficients (k_i per block) and one centralizer
    candidate per junction (min(k_j, k_(j+1))^2 each).  Equations: the
    intertwining p_i'(B_i^-) = xi_(i-1) - g_i xi_i g_i^-1 per block, the
    two embedded-commutant conditions per junction, and the u/w fixing at
    tied sizes.  Each point's system has the bits it gets alone.
    """
    k = D.k
    n = len(k)
    sizes = [min(a, b) for a, b in zip(k, k[1:])]
    lam_offsets = np.cumsum((0,) + k)
    xi_offsets = lam_offsets[-1] + np.cumsum([0] + [m * m for m in sizes])
    count = D.count
    system = np.zeros((count,) + _isotropy_shape(k), dtype=complex)
    row = 0

    def rows(height, j):
        """The next height equations of every system, at the columns of junction j."""
        nonlocal row
        row += height
        return system[:, row - height : row, xi_offsets[j] : xi_offsets[j + 1]]

    # Row-major vec identity: (A X C).reshape(-1) = kron(A, C.T) @ X.reshape(-1).
    # The m-by-m centralizer xi embeds in a size-k block as P xi P^T, P = eye(k, m).
    for i in range(n):
        if k[i] == 0:
            continue
        block = system[:, row : row + k[i] * k[i]]
        derivs = np.arange(1, k[i] + 1)[:, None, None, None] * _powers(D.b_minus[i], k[i])
        block[:, :, lam_offsets[i] : lam_offsets[i + 1]] = derivs.reshape(k[i], count, -1).transpose(1, 2, 0)
        if i > 0 and sizes[i - 1] > 0:
            P = np.eye(k[i], sizes[i - 1], dtype=complex)
            block[:, :, xi_offsets[i - 1] : xi_offsets[i]] -= _kron(P, P)
        if i < n - 1 and sizes[i] > 0:
            m = sizes[i]
            g_inv = np.linalg.inv(D.g[i])
            block[:, :, xi_offsets[i] : xi_offsets[i + 1]] += _kron(
                D.g[i][:, :, :m], g_inv[:, :m, :].swapaxes(-1, -2))
        row += k[i] * k[i]

    for j in range(n - 1):
        m = sizes[j]
        if m == 0:
            continue
        for B in (D.b_plus[j], D.b_minus[j + 1]):
            P = np.eye(B.shape[-1], m, dtype=complex)
            rows(B.shape[-1] ** 2, j)[...] = _kron(P, (P.T @ B).swapaxes(-1, -2)) - _kron(B @ P, P)
        if k[j] == k[j + 1]:
            rows(m, j)[...] = _kron(np.eye(m), D.u[j][:, None, :])
            rows(m, j)[...] = _kron(D.w[j][:, None, :], np.eye(m))
    return system


def _nullities(points: list[MatricialData]) -> np.ndarray:
    """isotropy_nullity of each point of a list over one k, in blocks that keep each
    stacked system under the matpoly block bound."""
    equations, unknowns = _isotropy_shape(points[0].k)
    out, start = [], 0
    for size in _blocks(len(points), equations * unknowns):
        # each block's systems are freed before the next block's are built
        out.append(unknowns - numerical_rank(_isotropy_matrix(_stack(points[start : start + size]))))
        start += size
    return np.concatenate(out)


def isotropy_nullity(F: MatricialData) -> int:
    """Dimension of the linearized isotropy (0 means discrete, continuous otherwise).

    The intake checks F's structure and finiteness first; a numerically singular g
    is refused.
    """
    _refuse_singular_g(_intake([F])[0])
    return int(_nullities([F])[0])


def md_strongly_regular(F: MatricialData) -> bool:
    """Sign classification with a linearized-isotropy cross-check.

    The answer is whether the junction sign map avoids zero; the nullity of
    the linearized isotropy system is computed independently and any
    disagreement raises a warning.  The intake checks F's structure and
    finiteness, and a numerically singular g is refused; the other validity
    bullets are not re-checked.
    """
    _refuse_singular_g(_intake([F])[0])
    return _classified([F], isotropy=True, stacklevel=3)[0][1]


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


def open_stratum_chart(poles, residues) -> OpenStratumChart:
    poles = tuple(np.asarray(p, dtype=complex).reshape(-1) for p in poles)
    residues = tuple(np.asarray(r, dtype=complex).reshape(-1) for r in residues)
    if len(poles) != len(residues) or any(
        p.size != r.size for p, r in zip(poles, residues)
    ):
        raise ValueError("poles and residues must match level by level")
    allp = np.concatenate(poles) if poles else np.zeros(0, dtype=complex)
    if not np.isfinite(np.concatenate((allp, *residues))).all():
        raise ValueError("poles and residues must be finite")
    scale = 1.0 + (np.max(np.abs(allp)) if allp.size else 0.0)
    if _coincident(allp, _OPEN_STRATUM_TOL * scale):
        raise ValidationError("coincident poles are outside the open stratum")
    for r in residues:
        if r.size and np.min(np.abs(r)) <= _OPEN_STRATUM_TOL:
            raise ValidationError("residual values must be nonzero")
    return OpenStratumChart(poles=poles, residues=residues)


def chart_bracket(chart: OpenStratumChart, f, g) -> complex:
    """Poisson bracket of two chart functions via the closed-form tensor.

    Functions map a stack of flat coordinate vectors, shape (..., 2N), to
    the stack of their values, shape (...); each is called once, by
    :func:`gzflows.verify.fd_gradient`.  The convention is the one in the
    module header: {q_l, 1/rho_k} = delta_lk / rho_k.
    """
    x = chart.flat()
    N = chart.size
    return complex(_chart_pairing(x[N:], fd_gradient(f, x), fd_gradient(g, x)))


def _chart_pairing(rho: np.ndarray, df: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """{f, g} from flat gradients (poles first, then residues) at residues rho.

    Leading axes of rho and of the gradients broadcast: stacks give the stack of brackets.
    """
    N = rho.shape[-1]
    terms = df[..., N:] * dg[..., :N] - df[..., :N] * dg[..., N:]
    # rho at the full shape: a broadcast size-1 rho takes another multiply kernel
    full = np.empty(terms.shape, dtype=complex)
    full[...] = rho
    return np.sum(full * terms, axis=-1)


def chart_as_poisson_chart(chart: OpenStratumChart) -> Chart:
    """Chart whose tensor is the numerically inverted symplectic matrix.

    Used as an independent cross-check of :func:`chart_bracket`: the matrix
    of the two-form is assembled from the closed form and inverted, rather
    than writing the bracket tensor down directly.
    """
    N = chart.size
    names = tuple(f"q{l + 1}" for l in range(N)) + tuple(f"rho{l + 1}" for l in range(N))
    q, r = np.arange(N), np.arange(N, 2 * N)

    def tensor(x: np.ndarray) -> np.ndarray:
        # one flat point or a stack of them: the stack of tensors
        rho = x[..., N:]
        omega = np.zeros(rho.shape[:-1] + (2 * N, 2 * N), dtype=complex)
        omega[..., r, q] = 1.0 / rho
        omega[..., q, r] = -1.0 / rho
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
        # with unit columns the condition does not grow with the scale of the roots
        if all(np.linalg.cond(K / np.linalg.norm(K, axis=0)) < 1e8 for K in (K_plus, K_minus)):
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


def _adjugate_attempt(H: list[np.ndarray], rhs: np.ndarray, rng: np.random.Generator):
    """(v, x) for a random v and the solution x of M x = rhs with rows M[l] = H[l] v.

    x is None when M is numerically singular; otherwise cond(M) < 1e10 / size.
    """
    size = len(H)
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    M = np.array([h @ v for h in H])
    if numerical_rank(M) < size:
        return v, None
    return v, np.linalg.solve(M, rhs)


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
    scale = 1 + np.max(np.abs(target))
    for _ in range(20):
        b, a = _adjugate_attempt(H, rhs, rng)
        if a is None:
            continue
        cross = np.zeros(k + 1, dtype=complex)
        for l in range(m):
            cross[l] = a @ H[l] @ b
        quotient, leftover = poly_divmod(np.asarray(target, dtype=complex) + cross, qx)
        if poly_degree(leftover) >= 0 and np.max(np.abs(leftover)) > 1e-8 * scale:
            continue
        r_c = np.zeros(k - m + 1, dtype=complex)
        r_c[: quotient.size] = quotient
        c = -r_c[: k - m]
        B = generalized_companion(X, a, b, c)
        if np.max(np.abs(charpoly(B) - target)) < 1e-8 * scale:
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
        u, w = _adjugate_attempt(H, gap, rng)
        if w is None:
            continue
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
    polys = _checked_monic(polys)
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
        if min(k[j], k[j + 1]) == 0:
            b_plus[j], b_minus[j + 1] = plain(j), plain(j + 1)
            if k[j] == k[j + 1]:
                # two empty blocks tie: their (u, w) pair is empty
                u[j], w[j] = np.zeros(0, dtype=complex), np.zeros(0, dtype=complex)
        elif k[j] == k[j + 1]:
            b_plus[j] = plain(j)
            u[j], w[j] = _solve_rank_one(b_plus[j], polys[j + 1], rng)
            b_minus[j + 1] = b_plus[j] - np.outer(u[j], w[j])
        else:
            big, small = _by_size(k, j, j, j + 1)
            X = plain(small)
            b_plus[j], b_minus[j + 1] = _by_size(k, j, _solve_gcomp(X, polys[big], rng), X)
    g = []
    for i in range(n):
        if k[i] == 0:
            g.append(np.zeros((0, 0), dtype=complex))
        else:
            g.append(_conjugator(b_plus[i], b_minus[i], rng))
    return md_validate(MatricialData(k=k, b_minus=b_minus, b_plus=b_plus, g=g, u=u, w=w))
