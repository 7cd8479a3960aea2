"""A 50-digit oracle for the span decisions of strongly_regular and krylov_rank.

It shares no code with the library.  It builds the same generators in fixed point:
each number is a Gaussian integer over 2**FRAC, about 51 digits, and float inputs
convert exactly.  Python integers do this arithmetic about ten times faster than
mpmath 1.3.0 on its pure-Python backend, where one 50-digit SVD of the 66 x 144
generator matrix of a 12 x 12 B takes about 16 s (one core of an Intel Xeon).
mpmath takes the SVD of the small matrices (:func:`mp_singular_values`).

For the rows G of a generator matrix and a cut c, :func:`count_above` returns the r
with sigma_r(G) > c > sigma_(r+1)(G), shown by two checks on H = G G^H:

* Cauchy interlacing: sigma_r(G)**2 >= the least eigenvalue of any r x r principal
  block of H, and that block minus c**2 I has a Cholesky factor with positive pivots;
* Courant-Fischer: sigma_(r+1)(G)**2 <= the largest eigenvalue of the Schur complement
  of that block in H, which is at most its trace, and the trace is below c**2.

It returns None when a check fails, so an input too near its cut shows as undecided.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import mpmath
import numpy as np

FRAC = 170


def fixed(A) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) integer arrays with A = (re + i im) / 2**FRAC: exact for every float entry."""
    A = np.asarray(A, dtype=complex)
    to_int = np.frompyfunc(lambda x: int(x * 2.0 ** FRAC), 1, 1)  # scaling by 2**FRAC is exact
    return to_int(A.real), to_int(A.imag)


def mul(A, B):
    """The fixed-point product of two complex matrices."""
    (ar, ai), (br, bi) = A, B
    return (ar.dot(br) - ai.dot(bi)) >> FRAC, (ar.dot(bi) + ai.dot(br)) >> FRAC


def sub(A, B):
    return A[0] - B[0], A[1] - B[1]


def unit(A):
    """A over its Frobenius norm; zero stays zero."""
    re, im = A
    norm = isqrt(int((re * re + im * im).sum()))
    if norm == 0:
        return A
    return (re << FRAC) // norm, (im << FRAC) // norm


def unit_chain(A, count: int) -> list:
    """I, A, ..., A**(count - 1), each over its Frobenius norm.

    Each power is taken from the last one already on its line, so the ints keep their
    scale whatever the scale of A.
    """
    power = unit(fixed(np.eye(A[0].shape[0])))
    chain = [power]
    step = unit(A)
    for _ in range(count - 1):
        power = unit(mul(power, step))
        chain.append(power)
    return chain


def rows(mats) -> tuple[np.ndarray, np.ndarray]:
    """The matrices (or vectors) as the rows of one matrix."""
    return (np.array([m[0].ravel() for m in mats], dtype=object),
            np.array([m[1].ravel() for m in mats], dtype=object))


def sregular_rows(B):
    """The rows [pad(B_m**k) / ||.||_F, B / ||B||_F] for k < m < n, and their bound 2.

    The rows run lexicographically in (m, k), as the library's do.
    """
    B = np.asarray(B, dtype=complex)
    n = B.shape[0]
    whole = unit(fixed(B))
    gens = []
    for m in range(1, n):
        for power in unit_chain(fixed(B[:m, :m]), m):
            pad = tuple(np.zeros((n, n), dtype=object) for _ in range(2))
            for part, block in zip(pad, power):
                part[:m, :m] = block
            gens.append(sub(mul(pad, whole), mul(whole, pad)))
    return rows(gens), 2


def krylov_rows(B, b):
    """The rows B**j b / (||B**j||_F ||b||) for j < n, and their bound 1."""
    b = np.asarray(b, dtype=complex).reshape(-1, 1)
    vec = unit(fixed(b))
    return rows([mul(power, vec) for power in unit_chain(fixed(B), b.size)]), 1


def cut_squared(G, bound, rtol) -> int:
    """(max(shape) * rtol * bound)**2 in fixed point, rtol taken at its exact binary value."""
    c = max(G[0].shape) * Fraction(rtol) * bound
    return int(c * c * 2 ** FRAC)


def _eliminate(Hr, Hi, floor=None, order=None):
    """Hermitian elimination on (Hr + i Hi) / 2**FRAC.

    Pivots on the largest remaining diagonal entry while it exceeds ``floor``, or in
    ``order``, stopping at the first pivot that is not positive.
    Returns (the pivot indices, the pivots, the trace of the Schur complement left).
    """
    Hr, Hi = Hr.copy(), Hi.copy()
    left = list(range(Hr.shape[0]))
    taken, pivots = [], []
    while left:
        if order is None:
            p = max(left, key=lambda j: Hr[j, j])
            if Hr[p, p] <= floor:
                break
        elif len(taken) == len(order):
            break
        else:
            p = order[len(taken)]
        d = Hr[p, p]
        taken.append(p)
        pivots.append(d)
        left.remove(p)
        if d <= 0:
            break
        rest = np.array(left, dtype=int)
        sr, si = Hr[rest, p], Hi[rest, p]
        # S[a, b] -= s[a] conj(s[b]) / d
        Hr[np.ix_(rest, rest)] -= (np.outer(sr, sr) + np.outer(si, si)) // d
        Hi[np.ix_(rest, rest)] -= (np.outer(si, sr) - np.outer(sr, si)) // d
    return taken, pivots, sum(Hr[j, j] for j in left)


def count_above(G, bound, rtol):
    """The r with sigma_r(G) > cut > sigma_(r+1)(G), or None when that is not shown.

    The cut is max(shape) * rtol * bound, as the library makes it.
    """
    Gr, Gi = G
    Hr = (Gr.dot(Gr.T) + Gi.dot(Gi.T)) >> FRAC
    Hi = (Gi.dot(Gr.T) - Gr.dot(Gi.T)) >> FRAC
    c2 = cut_squared(G, bound, rtol)
    order, _, rest = _eliminate(Hr, Hi, floor=c2)
    if rest >= c2:
        return None
    shifted = Hr - c2 * np.eye(Hr.shape[0], dtype=int).astype(object)
    _, pivots, _ = _eliminate(shifted, Hi, order=order)
    if any(d <= 0 for d in pivots):
        return None
    return len(order)


def mp_singular_values(G, bound, rtol):
    """(singular values of G, the cut), both mpmath numbers at 50 digits."""
    with mpmath.workdps(50):
        one = mpmath.mpf(2) ** -FRAC
        M = mpmath.matrix([[mpmath.mpc(re, im) * one for re, im in zip(*row)] for row in zip(*G)])
        sigma = mpmath.svd_c(M, compute_uv=False)
        cut = max(G[0].shape) * mpmath.mpf(rtol) * bound
        return sorted((sigma[j] for j in range(len(sigma))), reverse=True), cut
