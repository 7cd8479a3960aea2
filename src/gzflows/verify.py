"""Generic numerical verification: finite differences, Poisson brackets, defects.

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
from .matpoly import as_matrix

__all__ = [
    "DEFAULT_STEP",
    "Chart",
    "fd_gradient",
    "matrix_gradient",
    "poisson_bracket",
    "lie_poisson_bracket",
    "lie_poisson_chart",
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
    Antisymmetry is checked at every evaluation.
    """

    names: tuple[str, ...]
    poisson_tensor: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        return len(self.names)

    def tensor_at(self, x: np.ndarray) -> np.ndarray:
        pi = np.asarray(self.poisson_tensor(np.asarray(x, dtype=complex)), dtype=complex)
        if pi.shape != (self.dim, self.dim):
            raise ValidationError(f"tensor shape {pi.shape} does not match dim {self.dim}")
        skew = np.linalg.norm(pi + pi.T)
        if skew > 1e-9 * (1.0 + np.linalg.norm(pi)):
            raise ValidationError(f"Poisson tensor not antisymmetric (defect {skew:.3e})")
        return pi


def fd_gradient(f, x, step: float | None = None) -> np.ndarray:
    """O(h^2) gradient of f at the flat complex point x.

    Each coordinate is probed along the real and the imaginary axis with a
    step scaled by (1 + |x_j|); the Wirtinger combination (d_re - i*d_im)/2
    is returned, which is the complex derivative when f is holomorphic.
    """
    x = np.asarray(x, dtype=complex).reshape(-1)
    base = DEFAULT_STEP if step is None else step
    grad = np.empty(x.size, dtype=complex)
    for j in range(x.size):
        h = base * (1.0 + abs(x[j]))
        e = np.zeros(x.size, dtype=complex)
        e[j] = h
        d_re = (f(x + e) - f(x - e)) / (2.0 * h)
        d_im = (f(x + 1j * e) - f(x - 1j * e)) / (2.0 * h)
        grad[j] = (d_re - 1j * d_im) / 2.0
    if not np.all(np.isfinite(grad)):
        raise ValidationError("non-finite values in finite-difference gradient")
    return grad


def poisson_bracket(chart: Chart, f, g, x, step: float | None = None) -> complex:
    """{f, g} at x from the chart tensor with finite-difference gradients."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    pi = chart.tensor_at(x)
    df = fd_gradient(f, x, step=step)
    dg = fd_gradient(g, x, step=step)
    return complex(df @ pi @ dg)


def matrix_gradient(f, B, step: float | None = None) -> np.ndarray:
    """Trace-pairing gradient of a matrix function: df(D) = tr(grad @ D)."""
    B = as_matrix(B)
    n = B.shape[0]
    flat = fd_gradient(lambda x: f(x.reshape(n, n)), B.reshape(-1), step=step)
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
        before = np.atleast_1d(np.asarray(inv(x), dtype=complex))
        after = np.atleast_1d(np.asarray(inv(y), dtype=complex))
        # invariants that overflowed give a NaN defect, which the output refuses
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.abs(after - before) / (1.0 + np.abs(before))
        # np.maximum keeps a NaN that max() would drop
        worst = float(np.maximum(worst, np.max(defect, initial=0.0)))
    return worst


def report(test: str, samples: int, max_defect: float, tolerance: float) -> dict:
    """Verification report entry; defects are reported, never silently passed."""
    return {
        "test": test,
        "samples": int(samples),
        "max_defect": float(max_defect),
        "tolerance": float(tolerance),
        "pass": bool(max_defect <= tolerance),
    }
