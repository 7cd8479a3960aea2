"""Finite-difference Poisson brackets, the test suite's independent oracles.

The program computes bracket gradients in closed form; these helpers take
every gradient by finite differences, so a test can check one against the
other.
"""

from __future__ import annotations

import numpy as np

from gzflows.matpoly import as_matrix
from gzflows.verify import Chart, fd_gradient


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
