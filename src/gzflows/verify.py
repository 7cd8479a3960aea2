"""Generic numerical verification: finite differences, Poisson charts, defects.

This module measures defects; it proves nothing.  Gradients of holomorphic
functions are taken by central differences in the real and imaginary
directions separately; both estimates agree for holomorphic input and their
Wirtinger average is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .matpoly import _abs, _frobenius

__all__ = [
    "DEFAULT_STEP",
    "Chart",
    "fd_gradient",
    "commute_defect",
    "conservation_defect",
    "report",
]

# Base finite-difference step; per coordinate it is scaled by (1 + |x_j|).
DEFAULT_STEP = 1e-6


@dataclass(frozen=True)
class Chart:
    """Coordinate chart with a Poisson tensor field.

    ``poisson_tensor`` maps a flat complex point to a d-by-d antisymmetric
    matrix pi; brackets are {f, g} = sum pi[a, b] df/dx_a dg/dx_b.
    Antisymmetry is checked at every evaluation.  A tensor that also maps a
    stack of points (S, d) to the stack (S, d, d) lets ``tensor_at`` take one.
    """

    names: tuple[str, ...]
    poisson_tensor: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        return len(self.names)

    def tensor_at(self, x: np.ndarray) -> np.ndarray:
        """pi at the flat point x, or the stack of pi at a stack of points (S, d).

        Every point's tensor is checked; the first that is not antisymmetric raises.
        """
        x = np.asarray(x, dtype=complex)
        pi = np.asarray(self.poisson_tensor(x), dtype=complex)
        if pi.shape != x.shape[:-1] + (self.dim, self.dim):
            raise ValidationError(f"tensor shape {pi.shape} does not match dim {self.dim}")
        stack = pi.reshape((-1, self.dim, self.dim))
        count, skew = _antisymmetric_count(stack)
        if count < len(stack):
            raise ValidationError(f"Poisson tensor not antisymmetric (defect {skew:.3e})")
        return pi


def _antisymmetric_count(pi: np.ndarray) -> tuple[int, float]:
    """(k, skew): the first k tensors of the stack pi (S, d, d) are antisymmetric, and
    for k < S tensor k is not, by skew = ||pi + pi^T||_F > 1e-9 (1 + ||pi||_F).

    Each norm has the bits of ``np.linalg.norm`` of that tensor alone.
    """
    skew = _frobenius(pi + pi.swapaxes(-1, -2))
    bad = skew > 1e-9 * (1.0 + _frobenius(pi))
    if not bad.any():
        return len(pi), 0.0
    first = int(bad.argmax())
    return first, skew[first]


def fd_gradient(f, x, step: float | None = None) -> np.ndarray:
    """O(h^2) gradient of f at the flat complex point x of dimension d, or at each row
    of a stack x of shape (S, d).

    f maps a stack of points, shape (..., d), to the stack of its values,
    shape (...) for a scalar f or (..., k) for a vector-valued one; it is
    called once, on all 4d probe points of every row.  Each coordinate is
    probed along the real and the imaginary axis with a step scaled by
    (1 + |x_j|); the Wirtinger combination (d_re - i*d_im)/2 is returned,
    which is the complex derivative when f is holomorphic.  A scalar f gives
    its (d,) gradient, a vector-valued f its (k, d) Jacobian, and a stack
    (S, d) the stack (S, d) or (S, k, d) of them.  For an f that acts entry
    by entry, every entry has the bits of probing one point at a time.
    """
    x = np.asarray(x, dtype=complex)
    rows = x if x.ndim == 2 else x.reshape(1, -1)
    S, d = rows.shape
    base = DEFAULT_STEP if step is None else step
    h = base * (1.0 + _abs(rows))
    # row j of e[s] is h[s, j] e_j; the probes are x + e, x - e, x + ie, x - ie
    e = np.zeros((S, d, d), dtype=complex)
    e.reshape(S, d * d)[:, :: d + 1] = h
    at = rows[:, None, :]
    probes = np.concatenate([at + e, at - e, at + 1j * e, at - 1j * e], axis=1)
    values = np.asarray(f(probes.reshape(4 * S * d, d)), dtype=complex)
    values = values.reshape((S, 4, d) + values.shape[1:])
    two_h = (2.0 * h).reshape((S, d) + (1,) * (values.ndim - 3))
    d_re = (values[:, 0] - values[:, 1]) / two_h
    d_im = (values[:, 2] - values[:, 3]) / two_h
    # (S, d), or (S, d, k) whose last two axes swapped give each row's (k, d) Jacobian
    grad = np.ascontiguousarray(((d_re - 1j * d_im) / 2.0).swapaxes(1, -1))
    if not np.all(np.isfinite(grad)):
        raise ValidationError("non-finite values in finite-difference gradient")
    return grad if x.ndim == 2 else grad[0]


def commute_defect(flow1, flow2, x) -> float:
    """|flow1(flow2(x)) - flow2(flow1(x))| / (1 + |x|) for array points x."""
    a = flow1(flow2(x)).reshape(-1)
    b = flow2(flow1(x)).reshape(-1)
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(x.reshape(-1))))


def conservation_defect(flow, invariants, x) -> float:
    """Max relative change of the invariants between x and flow(x); NaN if one is NaN."""
    y = flow(x)
    if callable(invariants):
        invariants = [invariants]
    worst = 0.0
    for inv in invariants:
        # np.maximum keeps a NaN that max() would drop
        worst = float(np.maximum(worst, _change(inv(x), inv(y))))
    return worst


def _change(before, after) -> float:
    """Max relative change |after - before| / (1 + |before|) of invariant values; NaN if one is NaN."""
    before = np.atleast_1d(np.asarray(before, dtype=complex))
    after = np.atleast_1d(np.asarray(after, dtype=complex))
    # invariants that overflowed give a NaN defect, which the output refuses
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(after - before) / (1.0 + np.abs(before))
    return float(np.max(defect, initial=0.0))


def report(test: str, samples: int, max_defect: float, tolerance: float) -> dict:
    """Verification report entry; defects are reported, never silently passed."""
    return {
        "test": test,
        "samples": int(samples),
        "max_defect": float(max_defect),
        "tolerance": float(tolerance),
        "pass": bool(max_defect <= tolerance),
    }
