"""Isospectral Lax flows d(beta)/dt = [beta, alpha] on an interval.

Paths live on a uniform grid.  Integration is classical fourth-order
one-step; grid derivatives (for gauge transformations and residuals) use
fourth-order centered stencils with one-sided stencils at the endpoints,
so the differencing error stays far below the gauge round-trip tolerances
at the default resolutions.  Only regular boundary behavior is handled:
solutions analytic at both ends of the interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError, ValidationError
from .matpoly import _check_square, as_matrix, charpoly

__all__ = [
    "LaxPath",
    "GaugeFixResult",
    "lax_integrate",
    "lax_residual",
    "isospectral_drift",
    "gauge_apply",
    "gauge_fix_regular",
    "lax_symplectic",
]


@dataclass
class LaxPath:
    """Sampled pair (alpha(t), beta(t)) on a strictly increasing uniform grid."""

    grid: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def n(self) -> int:
        return self.alpha.shape[-1]

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    def validate(self) -> "LaxPath":
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValueError("grid must hold at least two times")
        gaps = np.diff(self.grid)
        if np.any(gaps <= 0):
            raise ValueError("grid must be strictly increasing")
        # the difference stencils assume uniform spacing
        if np.max(np.abs(gaps - gaps[0])) > 1e-9 * gaps[0]:
            raise ValueError("grid must be uniform")
        n = self.alpha.shape[-1]
        want = (self.grid.size, n, n)
        if self.alpha.shape != want or self.beta.shape != want:
            raise ValueError("alpha and beta must be square and match the grid")
        return self


@dataclass
class GaugeFixResult:
    """Gauge data straightening a regular path: g(a) = I, g' = g alpha."""

    g_end: np.ndarray
    constant_matrix: np.ndarray
    g_path: np.ndarray
    drift: float
    max_condition: float


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _diff4(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative along axis 0 (one-sided at the ends)."""
    if values.shape[0] < 5:
        out = np.gradient(values, h, axis=0)
        return out
    d = np.empty_like(values)
    d[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * h)
    edge0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    edge1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    d[0] = sum(edge0[i] * values[i] for i in range(5)) / h
    d[1] = sum(edge1[i] * values[i] for i in range(5)) / h
    d[-1] = -sum(edge0[i] * values[-1 - i] for i in range(5)) / h
    d[-2] = -sum(edge1[i] * values[-1 - i] for i in range(5)) / h
    return d


def lax_integrate(alpha_fn, beta_start, t_start: float, t_end: float, steps: int) -> LaxPath:
    """Integrate the Lax equation with classical RK4 on a uniform grid."""
    if not t_start < t_end:
        raise ValueError("need t_start < t_end")
    if steps < 1:
        raise ValueError("need at least one step")
    beta = as_matrix(beta_start)
    h = (t_end - t_start) / steps
    grid = t_start + h * np.arange(steps + 1)
    grid[-1] = t_end
    # alpha depends on t only: one evaluation per distinct time, checked as one
    # stack (t + h need not equal grid[j + 1] bit for bit)
    times = np.concatenate([grid, grid[:-1] + h / 2, grid[:-1] + h])
    stack = np.array([alpha_fn(t) for t in times], dtype=complex)
    if stack.ndim != 3:
        raise ValueError(f"expected square alpha matrices, got shape {stack.shape[1:]}")
    _check_square(stack)
    alphas, mids, ends = np.split(stack, [steps + 1, 2 * steps + 1])
    betas = [beta]
    for a0, am, a1 in zip(alphas, mids, ends):
        b = betas[-1]
        k1 = _commutator(b, a0)
        k2 = _commutator(b + h / 2 * k1, am)
        k3 = _commutator(b + h / 2 * k2, am)
        k4 = _commutator(b + h * k3, a1)
        betas.append(b + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return LaxPath(grid=grid, alpha=alphas, beta=np.array(betas)).validate()


def lax_residual(path: LaxPath) -> float:
    """Max grid defect of d(beta)/dt - [beta, alpha], relative to (1 + |beta|)."""
    path.validate()
    h = float(path.grid[1] - path.grid[0])
    dbeta = _diff4(path.beta, h)
    worst = 0.0
    for j in range(path.grid.size):
        defect = dbeta[j] - _commutator(path.beta[j], path.alpha[j])
        worst = max(
            worst,
            float(np.linalg.norm(defect) / (1.0 + np.linalg.norm(path.beta[j]))),
        )
    return worst


def isospectral_drift(path: LaxPath) -> float:
    """Max coefficient drift of charpoly(beta(t)) from its initial value."""
    coeffs = charpoly(path.beta)
    return float(np.max(np.abs(coeffs[1:] - coeffs[0]), initial=0.0))


def gauge_apply(g_path, path: LaxPath) -> LaxPath:
    """Gauge a path: alpha -> g alpha g^-1 - g' g^-1, beta -> g beta g^-1.

    ``g_path`` is sampled on the same grid; its time derivative is taken by
    the grid stencils, so solutions map to solutions up to discretization.
    """
    path.validate()
    g = np.asarray(g_path, dtype=complex)
    if g.shape != path.alpha.shape:
        raise ValueError("gauge samples must match the path grid and size")
    h = float(path.grid[1] - path.grid[0])
    g_dot = _diff4(g, h)
    alphas = np.empty_like(path.alpha)
    betas = np.empty_like(path.beta)
    for j in range(path.grid.size):
        g_inv = np.linalg.inv(g[j])
        alphas[j] = g[j] @ path.alpha[j] @ g_inv - g_dot[j] @ g_inv
        betas[j] = g[j] @ path.beta[j] @ g_inv
    return LaxPath(grid=path.grid.copy(), alpha=alphas, beta=betas)


def _alpha_midpoints(alpha: np.ndarray) -> np.ndarray:
    """Cubic interpolation of grid samples at interval midpoints."""
    count = alpha.shape[0] - 1
    mids = np.empty((count,) + alpha.shape[1:], dtype=complex)
    if alpha.shape[0] < 4:
        for j in range(count):
            mids[j] = (alpha[j] + alpha[j + 1]) / 2.0
        return mids
    for j in range(count):
        if j == 0:
            stencil, weights = (0, 1, 2, 3), (5.0, 15.0, -5.0, 1.0)
        elif j == count - 1:
            stencil, weights = (count - 3, count - 2, count - 1, count), (1.0, -5.0, 15.0, 5.0)
        else:
            stencil, weights = (j - 1, j, j + 1, j + 2), (-1.0, 9.0, 9.0, -1.0)
        mids[j] = sum(wq * alpha[s] for wq, s in zip(weights, stencil)) / 16.0
    return mids


def gauge_fix_regular(
    path: LaxPath,
    residual_tol: float = 1e-3,
    condition_limit: float = 1e12,
) -> GaugeFixResult:
    """Straightening gauge for a regular solution: solve g' = g alpha, g(a) = I.

    The conjugate g beta g^-1 is then a constant matrix X (checked; the
    drift is reported), and (g(b), X) is the endpoint chart of the moduli
    space with regular behavior at both ends.  Rejects paths whose Lax
    residual is large and reports condition blowup of g.
    """
    path.validate()
    resid = lax_residual(path)
    if resid > residual_tol:
        raise ValidationError(
            f"path is not a Lax solution (residual {resid:.3e} > {residual_tol:.1e})"
        )
    n = path.n
    h = float(path.grid[1] - path.grid[0])
    mids = _alpha_midpoints(path.alpha)
    gs = [np.eye(n, dtype=complex)]
    for j in range(path.steps):
        g = gs[-1]
        a0, am, a1 = path.alpha[j], mids[j], path.alpha[j + 1]
        k1 = g @ a0
        k2 = (g + h / 2 * k1) @ am
        k3 = (g + h / 2 * k2) @ am
        k4 = (g + h * k3) @ a1
        gs.append(g + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    g_path = np.array(gs)
    X = path.beta[0].copy()
    drift = 0.0
    max_cond = 1.0
    for j in range(path.grid.size):
        cond = float(np.linalg.cond(g_path[j]))
        max_cond = max(max_cond, cond)
        if cond > condition_limit:
            raise ToleranceError(
                f"gauge factor lost invertibility (condition {cond:.3e})",
                defect=cond,
                tolerance=condition_limit,
            )
        conj = g_path[j] @ path.beta[j] @ np.linalg.inv(g_path[j])
        drift = max(drift, float(np.linalg.norm(conj - X) / (1.0 + np.linalg.norm(X))))
    return GaugeFixResult(
        g_end=g_path[-1],
        constant_matrix=X,
        g_path=g_path,
        drift=drift,
        max_condition=max_cond,
    )


def lax_symplectic(path: LaxPath, tangent1, tangent2) -> complex:
    """Trapezoid quadrature of tr(da1 db2 - da2 db1) over the interval.

    Tangents are (dalpha, dbeta) arrays sampled on the path grid.
    """
    path.validate()
    da1, db1 = (np.asarray(t, dtype=complex) for t in tangent1)
    da2, db2 = (np.asarray(t, dtype=complex) for t in tangent2)
    for arr in (da1, db1, da2, db2):
        if arr.shape != path.alpha.shape:
            raise ValueError("tangent samples must match the path grid")
    values = np.array([
        np.trace(da1[j] @ db2[j] - da2[j] @ db1[j])
        for j in range(path.grid.size)
    ])
    h = float(path.grid[1] - path.grid[0])
    return complex(h * (values[0] / 2 + values[1:-1].sum() + values[-1] / 2))
