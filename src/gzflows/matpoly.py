"""Dense complex matrix and polynomial kernel.

Conventions used by every module in this package:

* matrices are square complex128 ``numpy.ndarray``s, row major;
* polynomials are 1-d complex arrays of ascending coefficients, ``p[j]``
  multiplying ``z**j``;
* the companion matrix of a monic polynomial carries a unit subdiagonal
  and the negated low-order coefficients in its last column.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "leading_minor",
    "charpoly",
    "matexp",
    "poly_trim",
    "poly_degree",
    "poly_divmod",
    "poly_from_roots",
    "is_monic",
    "roots",
    "companion_of",
    "newton_convert",
    "krylov_matrix",
    "krylov_rank",
    "numerical_rank",
    "cluster_points",
    "RANK_RTOL",
    "CLUSTER_TOL",
]

# Numerical rank: keep singular values above max-dimension * sigma_max * RANK_RTOL.
RANK_RTOL = 1e-10
# Root clustering: absolute tolerance after dividing by (1 + max |root|).
CLUSTER_TOL = 1e-8


def as_matrix(A) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-square or non-finite input."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return _check_square(A)


def _check_square(A: np.ndarray) -> np.ndarray:
    """A itself if it is square in its last two axes and finite, else ValueError."""
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def leading_minor(A, m: int) -> np.ndarray:
    """Upper-left m-by-m submatrix (rows and columns 1..m)."""
    A = as_matrix(A)
    n = A.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"minor size {m} out of range 1..{n}")
    return A[:m, :m].copy()


def _faddeev_leverrier(A: np.ndarray):
    """Faddeev-LeVerrier recursion on a matrix or a stack (..., n, n).

    Yields (c, M) for k = 1, ..., n, the terms of z**(n-k) in det(zI - A)
    and in adj(zI - A): one recursion for both, consistent to the last bit.
    Adequate for the desk scales (n <= 12) this package targets.
    """
    n = A.shape[-1]
    M = np.broadcast_to(np.eye(n, dtype=complex), A.shape)
    for k in range(1, n + 1):
        AM = A @ M
        c = -np.trace(AM, axis1=-2, axis2=-1) / k
        yield c, M
        M = AM + c[..., None, None] * np.eye(n)


def charpoly(A) -> np.ndarray:
    """Monic characteristic polynomial det(zI - A), ascending coefficients.

    A stack (..., n, n) gives the stack (..., n + 1) of its polynomials.
    """
    A = _check_square(np.asarray(A, dtype=complex))
    n = A.shape[-1]
    coeffs = np.zeros(A.shape[:-2] + (n + 1,), dtype=complex)
    coeffs[..., n] = 1.0
    for k, (c, _) in enumerate(_faddeev_leverrier(A), start=1):
        coeffs[..., n - k] = c
    return coeffs


# Pade approximant data for the scaling-and-squaring exponential
# (orders and 1-norm bounds as in Higham's method).
_PADE_COEFFS = {
    3: [120.0, 60.0, 12.0, 1.0],
    5: [30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0],
    7: [17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0],
    9: [
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0,
    ],
    13: [
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
        960960.0, 16380.0, 182.0, 1.0,
    ],
}
_PADE_BOUNDS = [
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068),
    (13, 5.371920351148152),
]


def _pade(A: np.ndarray, order: int) -> np.ndarray:
    n = A.shape[0]
    c = _PADE_COEFFS[order]
    ident = np.eye(n, dtype=complex)
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


def matexp(A) -> np.ndarray:
    """Matrix exponential by scaling and squaring with Pade approximants."""
    A = as_matrix(A)
    if A.shape[0] == 0:
        return A.copy()
    norm = np.linalg.norm(A, 1)
    if norm <= _PADE_BOUNDS[-1][1]:
        for order, bound in _PADE_BOUNDS:
            if norm <= bound:
                return _pade(A, order)
    squarings = max(0, int(np.ceil(np.log2(norm / _PADE_BOUNDS[-1][1]))))
    F = _pade(A / 2.0 ** squarings, 13)
    for _ in range(squarings):
        F = F @ F
    return F


def poly_trim(p) -> np.ndarray:
    """Drop trailing zero coefficients (the zero polynomial trims to [0])."""
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    nz = np.nonzero(p)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return p[: nz[-1] + 1].copy()


def poly_degree(p) -> int:
    """Index of the last nonzero coefficient; -1 for the zero polynomial."""
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    nz = np.nonzero(p)[0]
    return -1 if nz.size == 0 else int(nz[-1])


def poly_divmod(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of p by q (q nonzero)."""
    p = poly_trim(p)
    q = poly_trim(q)
    if poly_degree(q) < 0:
        raise ValueError("division by the zero polynomial")
    dq = poly_degree(q)
    rem = p.astype(complex).copy()
    dp = poly_degree(rem)
    if dp < dq:
        return np.zeros(1, dtype=complex), rem
    quot = np.zeros(dp - dq + 1, dtype=complex)
    for j in range(dp - dq, -1, -1):
        factor = rem[j + dq] / q[dq]
        quot[j] = factor
        rem[j : j + dq + 1] -= factor * q
    return quot, poly_trim(rem[:dq] if dq > 0 else rem[:1])


def poly_from_roots(rts) -> np.ndarray:
    """Monic polynomial with the given root multiset."""
    p = np.array([1.0 + 0j])
    for r in rts:
        p = np.convolve(p, np.array([-complex(r), 1.0]))
    return p


def is_monic(p, tol: float = 0.0) -> bool:
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    d = poly_degree(p)
    return d >= 0 and abs(p[d] - 1.0) <= tol


def companion_of(p) -> np.ndarray:
    """Companion matrix (unit subdiagonal, coefficients in the last column).

    Requires a monic polynomial; charpoly(companion_of(p)) == p.
    """
    p = poly_trim(p)
    n = poly_degree(p)
    if n < 1:
        raise ValueError("companion matrix needs degree >= 1")
    if not is_monic(p, tol=1e-12):
        raise ValueError("companion matrix needs a monic polynomial")
    C = np.zeros((n, n), dtype=complex)
    for j in range(n - 1):
        C[j + 1, j] = 1.0
    C[:, n - 1] = -p[:n]
    return C


def roots(p) -> np.ndarray:
    """Root multiset of p as eigenvalues of its companion matrix."""
    p = poly_trim(p)
    d = poly_degree(p)
    if d < 1:
        raise ValueError("roots need a polynomial of degree >= 1")
    monic = p / p[d]
    monic[d] = 1.0
    return np.linalg.eigvals(companion_of(monic))


def newton_convert(values, direction: str) -> np.ndarray:
    """Convert between power sums and monic coefficients by Newton's identities.

    ``power-to-coeffs``: input (p_1, ..., p_n), output the n+1 ascending
    coefficients of the monic degree-n polynomial with those power sums.
    ``coeffs-to-power``: the inverse; input must be monic.
    """
    values = np.atleast_1d(np.asarray(values, dtype=complex))
    if values.size == 0:
        raise ValueError("empty input")
    if direction == "power-to-coeffs":
        psums = values
        n = psums.size
        elem = np.zeros(n + 1, dtype=complex)
        elem[0] = 1.0
        for k in range(1, n + 1):
            acc = 0.0 + 0j
            for i in range(1, k + 1):
                acc += (-1) ** (i - 1) * elem[k - i] * psums[i - 1]
            elem[k] = acc / k
        coeffs = np.zeros(n + 1, dtype=complex)
        for k in range(n + 1):
            coeffs[n - k] = (-1) ** k * elem[k]
        return coeffs
    if direction == "coeffs-to-power":
        coeffs = values
        n = coeffs.size - 1
        if n < 1:
            raise ValueError("need degree >= 1 coefficients")
        if not is_monic(coeffs, tol=1e-12):
            raise ValueError("coefficients must be monic")
        elem = np.array([(-1) ** k * coeffs[n - k] for k in range(n + 1)])
        psums = np.zeros(n, dtype=complex)
        for k in range(1, n + 1):
            acc = (-1) ** (k - 1) * k * elem[k]
            for i in range(1, k):
                acc += (-1) ** (i - 1) * elem[i] * psums[k - i - 1]
            psums[k - 1] = acc
        return psums
    raise ValueError(f"unknown direction {direction!r}")


def krylov_matrix(B, b) -> np.ndarray:
    """Columns (b, Bb, ..., B^(n-1) b)."""
    B = as_matrix(B)
    b = np.asarray(b, dtype=complex).reshape(-1)
    n = B.shape[0]
    if b.size != n:
        raise ValueError(f"vector length {b.size} does not match matrix size {n}")
    K = np.empty((n, n), dtype=complex)
    col = b
    for j in range(n):
        K[:, j] = col
        col = B @ col
    return K


def numerical_rank(M, rtol: float = RANK_RTOL) -> int:
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0
    sigma = np.linalg.svd(M, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > max(M.shape) * sigma[0] * rtol))


def krylov_rank(B, b, rtol: float = RANK_RTOL) -> int:
    """Numerical rank of the Krylov matrix; equals n iff b is cyclic for B."""
    return numerical_rank(krylov_matrix(B, b), rtol=rtol)


def cluster_points(points, tol: float) -> list[tuple[complex, int]]:
    """Single-linkage clustering of a complex multiset.

    Returns (representative, multiplicity) pairs, representatives being
    cluster means.  Input is sorted by (re, im) first so the result is
    deterministic regardless of input order.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    pts = sorted((complex(p) for p in points), key=lambda z: (z.real, z.imag))
    if not pts:
        return []
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[complex]] = {}
    for i, p in enumerate(pts):
        groups.setdefault(find(i), []).append(p)
    reps = [(sum(g) / len(g), len(g)) for g in groups.values()]
    reps.sort(key=lambda t: (t[0].real, t[0].imag))
    return reps
