"""Isospectral Lax flows d(beta)/dt = [beta, alpha] on an interval.

Paths live on a uniform grid.  Integration is classical fourth-order
one-step; grid derivatives (for gauge transformations and residuals) use
fourth-order centered stencils with one-sided stencils at the endpoints,
so the differencing error stays far below the gauge round-trip tolerances
at the default resolutions.  Only regular boundary behavior is handled:
solutions analytic at both ends of the interval.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError, _gate
from .matpoly import _check_square, _frobenius, charpoly

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

# gauge factors with a larger condition number are refused
_CONDITION_LIMIT = 1e12
# RK4 steps h with h * (largest rate) above this are refused: RK4 is stable up
# to 2.785 on the negative real axis and up to 2 sqrt(2) on the imaginary axis
_RK4_LIMIT = 2.78


@dataclass
class LaxPath:
    """Sampled pair (alpha(t), beta(t)) on a strictly increasing uniform grid.

    alpha and beta hold one (n, n) sample per grid time, shape (N, n, n),
    or a stack of S such paths on the one grid, shape (S, N, n, n).
    """

    grid: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def n(self) -> int:
        return self.alpha.shape[-1]

    def validate(self) -> "LaxPath":
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValueError("grid must hold at least two times")
        if not np.all(np.isfinite(self.grid)):
            raise ValueError("grid times must be finite")
        with np.errstate(over="ignore"):  # a gap past the largest float is refused below
            gaps = np.diff(self.grid)
        if np.any(gaps <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.isfinite(gaps).all():
            raise ValueError("grid steps must be finite")
        # the difference stencils assume uniform spacing
        if np.max(np.abs(gaps - gaps[0])) > 1e-9 * gaps[0]:
            raise ValueError("grid must be uniform")
        n = self.alpha.shape[-1]
        want = (self.grid.size, n, n)
        shape = self.alpha.shape
        if len(shape) not in (3, 4) or shape[-3:] != want or self.beta.shape != shape:
            raise ValueError("alpha and beta must be square and match the grid")
        return self


def _one_path(path: LaxPath) -> LaxPath:
    """The path itself if it holds one path; a stacked path is refused."""
    if path.beta.ndim == 4:
        raise ValueError(f"expected one path, got a stack of {path.beta.shape[0]}")
    return path


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
        return np.gradient(values, h, axis=0)
    d = np.empty_like(values)
    d[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * h)
    edge0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    edge1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    d[0] = sum(edge0[i] * values[i] for i in range(5)) / h
    d[1] = sum(edge1[i] * values[i] for i in range(5)) / h
    d[-1] = -sum(edge0[i] * values[-1 - i] for i in range(5)) / h
    d[-2] = -sum(edge1[i] * values[-1 - i] for i in range(5)) / h
    return d


def _require_stable_step(h: float, alpha: np.ndarray, gaps: bool) -> None:
    """Refuse a step h outside RK4's stable range for the rates that alpha sets.

    The gauge ODE g' = g alpha has alpha's eigenvalues as rates, at most |alpha|_F;
    the Lax ODE has their gaps (the eigenvalues of ad alpha), at most 2 |alpha|_F.
    Eigenvalues are taken only for the samples (..., n, n) the bound leaves open.
    """
    loose = h * (2.0 if gaps else 1.0) * _frobenius(alpha) > _RK4_LIMIT
    if not loose.any():
        return
    lam = np.linalg.eigvals(alpha[loose])
    rates = lam[:, :, None] - lam[:, None, :] if gaps else lam
    ode, what = ("Lax", "largest eigenvalue gap") if gaps else ("gauge factor", "spectral radius")
    _gate(h * float(np.max(np.abs(rates))), _RK4_LIMIT,
          f"{ode} step is unstable (h * {what} of alpha {{defect:.3e}} > {{tol}})")


def _rk4(y, starts, mids, ends, h: float, commutator: bool) -> np.ndarray:
    """Classical RK4 for y' = y a - a y (commutator) or y' = y a, a(t) given at each
    step's start, midpoint and end.

    A stack y of S matrices steps all S at once, time-major: sample j of every
    path is the contiguous block ys[j] of (N, [S,] n, n), since a sample strided
    between paths sends each ufunc that touches it through numpy's strided loop;
    one transpose at the end gives the C-contiguous ([S,] N, n, n).  The samples
    and the stage buffers are allocated once and every ufunc writes into one of
    them, in the order of y + h/6 * (((k1 + 2 k2) + 2 k3) + k4) with each scalar
    first, so each sample has the bits of the expression form.  For the commutator
    the stage value z and a sit side by side in W, and one stacked matmul of W
    with W[::-1] gives z a and a z, each through its own product; given one sequence
    for starts, mids and ends, holding one alpha at every stage, it loads that alpha
    into W once.
    """
    ys = np.empty((len(mids) + 1,) + y.shape, dtype=complex)
    ys[0] = y
    k1, k2, k3, k4 = k = np.empty((4,) + y.shape, dtype=complex)
    k23 = k[1:3]
    W = np.empty((2,) + y.shape, dtype=complex)
    z, w = W
    # the loop is bound by call overhead: the ufuncs are local names, and each
    # takes its output positionally, which parses faster than out=
    add, multiply, subtract, matmul = np.add, np.multiply, np.subtract, np.matmul
    if commutator:
        P = np.empty_like(W)
        za, az = P
        flipped = W[::-1]
        if held := starts is mids is ends:
            w[...] = starts[0]

        def rhs(a, out):
            if not held:
                w[...] = a
            matmul(W, flipped, P)
            subtract(za, az, out)
    else:
        def rhs(a, out):
            matmul(z, a, out)
    # 0-d arrays: the ufuncs take them as they would the Python numbers, without
    # converting a Python scalar on every call
    half, whole, sixth, two = (np.array(c, dtype=complex) for c in (h / 2, h, h / 6, 2))
    for y, y_next, a0, am, a1 in zip(ys, ys[1:], starts, mids, ends):
        z[...] = y
        rhs(a0, k1)
        add(y, multiply(half, k1, z), z)
        rhs(am, k2)
        add(y, multiply(half, k2, z), z)
        rhs(am, k3)
        add(y, multiply(whole, k3, z), z)
        rhs(a1, k4)
        multiply(two, k23, k23)
        add(add(add(k1, k2, k1), k3, k1), k4, k1)
        add(y, multiply(sixth, k1, k1), y_next)
    return np.ascontiguousarray(np.moveaxis(ys, 0, -3))


def lax_integrate(alpha_fn, beta_start, t_start: float, t_end: float, steps: int) -> LaxPath:
    """Integrate the Lax equation with classical RK4 on a uniform grid.

    ``beta_start`` is one (n, n) start or a stack (S, n, n) of S starts.
    ``alpha_fn(t)`` returns one (n, n) alpha, shared by every start, or a
    stack shaped like ``beta_start``.  A stack runs all S paths in the one
    RK4 loop, each with the bits it gets alone, and gives a stacked path.
    The times must be finite with a finite span, and ``steps`` an integer
    of at least 1 whose grid numpy can index.  An overflow and a step
    outside RK4's stable range for ad alpha are refused.  ``alpha_fn`` is
    called at every grid time, midpoint and step end, in time order; when
    every call returns one and the same object, that one sample is checked
    and loaded once, and the path's alpha is a copy of it at every time.
    """
    if not t_start < t_end:
        raise ValueError("need t_start < t_end")
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise ValueError(f"steps must be an integer of at least 1, got {steps!r}")
    if steps >= np.iinfo(np.intp).max:  # its steps + 1 grid times cannot be indexed
        raise ValueError(f"steps must be below {np.iinfo(np.intp).max}, the grid size numpy can index")
    beta = _check_square(np.asarray(beta_start, dtype=complex))
    if beta.ndim not in (2, 3) or not beta.shape[-1]:
        raise ValueError(f"beta must be a nonempty square matrix or a stack of them, got shape {beta.shape}")
    n = beta.shape[-1]
    # alpha depends on t only: one evaluation per distinct time, checked as one
    # stack (t + h need not equal grid[j + 1] bit for bit); a span or a time
    # past the largest float overflows
    with np.errstate(over="ignore", invalid="ignore"):
        h = (t_end - t_start) / steps
        grid = t_start + h * np.arange(steps + 1)
        grid[-1] = t_end
        times = np.concatenate([grid, grid[:-1] + h / 2, grid[:-1] + h])
    if not np.isfinite(times).all():
        raise ValueError("t_start, t_end and every step time between them must be finite")
    # evaluated in time order, so an alpha_fn that refuses a time refuses the first one
    values = [None] * times.size
    for k in sorted(range(times.size), key=times.tolist().__getitem__):
        values[k] = alpha_fn(times[k])
    # one object at every time is a constant alpha: one sample, checked and held once
    held = all(value is values[0] for value in values)
    stack = np.array(values[:1] if held else values, dtype=complex)
    if stack.shape[1:] not in ((n, n), beta.shape):
        raise ValueError(f"expected square alpha matrices like beta, got shape {stack.shape[1:]}")
    _check_square(stack)
    alphas, mids, ends = np.split(stack, [steps + 1, 2 * steps + 1])
    # a held sample is one sequence for every stage, which _rk4 loads once
    starts, mids, ends = ([alphas[0]] * steps,) * 3 if held else (alphas, mids, ends)
    # an overflow leaves non-finite samples, which are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        betas = _rk4(beta, starts, mids, ends, h, commutator=True)
    finite = np.isfinite(betas).reshape(-1, grid.size, n * n).all(axis=(0, 2))
    if not finite.all():
        t = grid[np.argmin(finite)]
        raise ToleranceError(f"integration overflowed (not finite at t = {t:.6g})")
    _require_stable_step(h, stack, gaps=True)
    # the grid axis of alpha goes behind the sample axis, as in beta
    alpha = np.broadcast_to(np.moveaxis(alphas, 0, -3), betas.shape).copy()
    return LaxPath(grid=grid, alpha=alpha, beta=betas).validate()


def lax_residual(path: LaxPath) -> float:
    """Max grid defect of d(beta)/dt - [beta, alpha], relative to (1 + |beta|); NaN stays NaN."""
    _one_path(path).validate()
    h = float(path.grid[1] - path.grid[0])
    defects = _diff4(path.beta, h) - _commutator(path.beta, path.alpha)
    # an overflow gives NaN
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(_frobenius(defects) / (1.0 + _frobenius(path.beta))))


def isospectral_drift(path: LaxPath) -> float | np.ndarray:
    """Max coefficient drift of charpoly(beta(t)) from its initial value.

    A float for one path; for a stacked path, the (S,) array of each path's drift.
    """
    coeffs = charpoly(path.beta)
    drift = np.abs(coeffs[..., 1:, :] - coeffs[..., :1, :])
    return np.max(drift, axis=(-2, -1), initial=0.0)


def gauge_apply(g_path, path: LaxPath) -> LaxPath:
    """Gauge a path: alpha -> g alpha g^-1 - g' g^-1, beta -> g beta g^-1.

    ``g_path`` is sampled on the same grid; its time derivative is taken by
    the grid stencils, so solutions map to solutions up to discretization.
    """
    _one_path(path).validate()
    g = np.asarray(g_path, dtype=complex)
    if g.shape != path.alpha.shape:
        raise ValueError("gauge samples must match the path grid and size")
    h = float(path.grid[1] - path.grid[0])
    g_inv = np.linalg.inv(g)
    return LaxPath(
        grid=path.grid.copy(),
        alpha=g @ path.alpha @ g_inv - _diff4(g, h) @ g_inv,
        beta=g @ path.beta @ g_inv,
    )


def _alpha_midpoints(alpha: np.ndarray) -> np.ndarray:
    """Cubic interpolation of grid samples at interval midpoints."""
    count = alpha.shape[0] - 1
    mids = np.empty((count,) + alpha.shape[1:], dtype=complex)
    if alpha.shape[0] < 4:
        mids[:] = (alpha[:-1] + alpha[1:]) / 2.0
        return mids
    mids[0] = sum(w * a for w, a in zip((5.0, 15.0, -5.0, 1.0), alpha[:4])) / 16.0
    inner = enumerate((-1.0, 9.0, 9.0, -1.0))
    mids[1:-1] = sum(w * alpha[k : k + count - 2] for k, w in inner) / 16.0
    mids[-1] = sum(w * a for w, a in zip((1.0, -5.0, 15.0, 5.0), alpha[-4:])) / 16.0
    return mids


def gauge_fix_regular(path: LaxPath, residual_tol: float = 1e-3) -> GaugeFixResult:
    """Straightening gauge for a regular solution: solve g' = g alpha, g(a) = I.

    The conjugate g beta g^-1 is then a constant matrix X (checked; the
    drift is reported), and (g(b), X) is the endpoint chart of the moduli
    space with regular behavior at both ends.  Reports, as numerical
    failures, a Lax residual above residual_tol or NaN, condition blowup or
    overflow of g, and a grid step outside RK4's stable range for alpha.
    """
    _gate(lax_residual(path), residual_tol, "path is not a Lax solution (residual {defect:.3e} > {tol:.1e})")
    h = float(path.grid[1] - path.grid[0])
    # an overflow leaves non-finite samples, which are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        g_path = _rk4(
            np.eye(path.n, dtype=complex),
            path.alpha, _alpha_midpoints(path.alpha), path.alpha[1:], h, commutator=False,
        )
    finite = np.isfinite(g_path).all(axis=(1, 2))
    stop = finite.size if finite.all() else int(np.argmin(finite))
    conds = np.linalg.cond(g_path[:stop])
    # the first condition past the limit, or conds[0] (of g = I) when none is
    _gate(float(conds[np.argmax(conds > _CONDITION_LIMIT)]), _CONDITION_LIMIT,
          "gauge factor lost invertibility (condition {defect:.3e})")
    if stop < finite.size:
        raise ToleranceError(f"gauge factor overflowed (not finite at t = {path.grid[stop]:.6g})")
    _require_stable_step(h, path.alpha, gaps=False)
    X = path.beta[0].copy()
    conj = g_path @ path.beta @ np.linalg.inv(g_path)
    drift = np.max(_frobenius(conj - X) / (1.0 + np.linalg.norm(X)))
    return GaugeFixResult(
        g_end=g_path[-1],
        constant_matrix=X,
        g_path=g_path,
        drift=float(drift),
        max_condition=float(np.max(conds, initial=1.0)),
    )


def lax_symplectic(path: LaxPath, tangent1, tangent2) -> complex:
    """Trapezoid quadrature of tr(da1 db2 - da2 db1) over the interval.

    Tangents are (dalpha, dbeta) arrays sampled on the path grid.
    """
    _one_path(path).validate()
    da1, db1 = (np.asarray(t, dtype=complex) for t in tangent1)
    da2, db2 = (np.asarray(t, dtype=complex) for t in tangent2)
    for arr in (da1, db1, da2, db2):
        if arr.shape != path.alpha.shape:
            raise ValueError("tangent samples must match the path grid")
    values = np.trace(da1 @ db2 - da2 @ db1, axis1=-2, axis2=-1)
    h = float(path.grid[1] - path.grid[0])
    return complex(h * (values[0] / 2 + values[1:-1].sum() + values[-1] / 2))
