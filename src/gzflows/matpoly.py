"""Dense complex matrix and polynomial kernel.

Conventions used by every module in this package:

* matrices are square complex128 ``numpy.ndarray``s, row major;
* polynomials are 1-d complex arrays of ascending coefficients, ``p[j]``
  multiplying ``z**j``;
* the companion matrix of a monic polynomial carries a unit subdiagonal
  and the negated low-order coefficients in its last column.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "as_matrix",
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
    "RANK_RTOL",
    "CLUSTER_TOL",
]

# Numerical rank: keep singular values above max-dimension * RANK_RTOL * bound (see _rank).
RANK_RTOL = 1e-10
# Root clustering: absolute tolerance after dividing by (1 + max |root|).
CLUSTER_TOL = 1e-8
# A polynomial is monic when its leading coefficient is within this of 1.
_MONIC_TOL = 1e-9


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


def _frobenius(A: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., n, n), shape (...).

    For a C-ordered stack each norm has the bits of ``np.linalg.norm`` of
    that matrix alone, sqrt(re . re + im . im): the same dots, taken for
    every sample as one stacked (1, d) @ (d, 1) product, for every dtype: the
    zero imaginary part of a real A adds +0.0 to a non-negative dot, no bit.
    (``np.linalg.norm(axis=...)`` rounds differently.)
    """
    rows = A.reshape(A.shape[:-2] + (1, A.shape[-2] * A.shape[-1]))
    re, im = rows.real, rows.imag
    dots = np.matmul(re, re.swapaxes(-1, -2)) + np.matmul(im, im.swapaxes(-1, -2))
    return np.sqrt(dots[..., 0, 0])


# Complex entries that one stacked temporary may hold: a stack of samples is taken in blocks.
_BLOCK_ENTRIES = 2 ** 19


def _blocks(samples: int, entries: int) -> list[int]:
    """Sizes of the blocks the samples are evaluated in, in order: as many samples as
    keep a stacked temporary of ``entries`` per sample under _BLOCK_ENTRIES, at least one."""
    size = max(1, _BLOCK_ENTRIES // max(1, entries))
    return [min(size, samples - start) for start in range(0, samples, size)]


def _powers(A: np.ndarray, count: int) -> np.ndarray:
    """I, A, ..., A**(count-1) as one stack, each power one product with A.

    A stack of matrices (..., n, n) gives (count, ..., n, n).
    A is not re-checked; an overflow leaves non-finite powers without warnings.
    """
    P = np.empty((count,) + A.shape, dtype=complex)
    P[:1] = _identities(A.shape[-1])[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, out in zip(P, P[1:]):
            np.matmul(prev, A, out)
    return P


def _max_scaled(A: np.ndarray) -> np.ndarray:
    """Each matrix of a stack (..., n, n) over its largest real or imaginary part, a scale
    that is finite for every finite A; a zero matrix stays zero."""
    parts = np.abs(np.ascontiguousarray(A).view(float))
    return A * (1.0 / parts.max(axis=(-2, -1), keepdims=True, initial=np.finfo(float).tiny))


def _unit(P: np.ndarray) -> np.ndarray:
    """Each matrix of a stack (..., n, n) over its Frobenius norm, in place; zero stays zero:
    span decisions on such unit powers of a :func:`_max_scaled` matrix are scale-free.
    A rank cut needs no bit-exact norm, so this is ``np.linalg.norm``'s stacked one."""
    P *= (1.0 / np.maximum(np.linalg.norm(P, axis=(-2, -1)), np.finfo(float).tiny))[..., None, None]
    return P


@functools.cache
def _identities(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The real and the complex n x n identity (read-only: every call shares them)."""
    real, cplx = np.eye(n), np.eye(n, dtype=complex)
    real.flags.writeable = cplx.flags.writeable = False
    return real, cplx


def charpoly(A) -> np.ndarray:
    """Monic characteristic polynomial det(zI - A), ascending coefficients.

    A stack (..., n, n) gives the stack (..., n + 1) of its polynomials.
    """
    A = _check_square(np.asarray(A, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        return _charpoly(A)


def _charpoly(A: np.ndarray) -> np.ndarray:
    """:func:`charpoly` of a checked complex A, under the caller's error state: the
    Faddeev-LeVerrier recursion M_1 = I, c_k = -tr(A M_k) / k, M_(k+1) = A M_k + c_k I, each
    c_k (of z**(n-k)) written as it is formed, no M past c_n; adequate at desk scale, n <= 12."""
    n = A.shape[-1]
    coeffs = np.zeros(A.shape[:-2] + (n + 1,), dtype=complex)
    coeffs[..., n] = 1.0
    ident, M = _identities(n)
    for k in range(1, n + 1):
        AM = A @ M
        coeffs[..., n - k] = c = -AM.trace(axis1=-2, axis2=-1) / k
        if k < n:
            M = AM + c[..., None, None] * ident
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
# Orders 3..9: the coefficients (c[2k+1], c[2k]) of (A^2)^k in (U / A, V), highest k first.
_PADE_ROWS = {order: np.array([c[order::-2], c[order - 1::-2]], dtype=complex).T[..., None, None]
              for order, c in _PADE_COEFFS.items() if order < 13}
_PADE_BOUNDS = [
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068),
    (13, 5.371920351148152),
]


def _pade(A: np.ndarray, order: int) -> np.ndarray:
    if order == 13:
        c, ident = _PADE_COEFFS[13], _identities(A.shape[0])[1]
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (c[13] * A6 + c[11] * A4 + c[9] * A2)
                 + c[7] * A6 + c[5] * A4 + c[3] * A2 + c[1] * ident)
        V = (A6 @ (c[12] * A6 + c[10] * A4 + c[8] * A2)
             + c[6] * A6 + c[4] * A4 + c[2] * A2 + c[0] * ident)
    else:
        # U / A and V as one stack of sums over (A^2)^k, highest k first from +0: that order fixes the bits
        UV = np.zeros((2,) + A.shape, dtype=complex)
        for row, power in zip(_PADE_ROWS[order], _powers(A @ A, order // 2 + 1)[::-1]):
            UV += row * power
        U, V = A @ UV[0], UV[1]
    return np.linalg.solve(V - U, V + U)


def matexp(A) -> np.ndarray:
    """Matrix exponential by scaling and squaring with Pade approximants."""
    return _expm(as_matrix(A))


def _expm(A: np.ndarray) -> np.ndarray:
    """:func:`matexp` of a checked A; a 1-norm that is not finite gives a NaN matrix."""
    if A.shape[0] == 0:
        return A.copy()
    norm = np.abs(A).sum(axis=0).max()  # what np.linalg.norm(A, 1) evaluates
    if not math.isfinite(norm):
        return np.full(A.shape, np.nan, dtype=complex)
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
    if p.size and p[-1]:  # nothing to drop
        return p.copy()
    nz = np.nonzero(p)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return p[: nz[-1] + 1].copy()


def _degree(p: np.ndarray) -> int:
    """Degree of a trimmed p, from its length: -1 for the zero polynomial [0]."""
    return p.size - 1 if p[-1] else -1


def _monic(p: np.ndarray) -> bool:
    """The package's one monic rule: a trimmed p whose leading coefficient is within _MONIC_TOL of 1."""
    return abs(p[-1] - 1.0) <= _MONIC_TOL


def _monic_intake(p, what: str) -> np.ndarray:
    """p trimmed and over its leading coefficient; ValueError naming what unless monic of degree >= 1."""
    p = poly_trim(p)
    if p.size < 2:
        raise ValueError(f"{what} needs degree >= 1")
    if not _monic(p):
        raise ValueError(f"{what} needs a monic polynomial")
    return p / p[-1]


def poly_degree(p) -> int:
    """Index of the last nonzero coefficient; -1 for the zero polynomial."""
    return _degree(poly_trim(p))


def poly_divmod(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of p by q (q nonzero)."""
    rem, q = poly_trim(p), poly_trim(q)
    dp, dq = _degree(rem), _degree(q)
    if dq < 0:
        raise ValueError("division by the zero polynomial")
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


def is_monic(p) -> bool:
    """Whether the leading coefficient of p is within _MONIC_TOL of 1."""
    return _monic(poly_trim(p))


def companion_of(p) -> np.ndarray:
    """Companion matrix (unit subdiagonal, coefficients in the last column).

    Requires a monic polynomial (see is_monic); charpoly(companion_of(p)) == p / p[-1].
    """
    return _companion(_monic_intake(p, "companion matrix"))


def _companion(p: np.ndarray) -> np.ndarray:
    """Companion matrix of a trimmed p of degree >= 1, taken as monic: p[-1] is not read."""
    C = _shift(p.size - 1).copy()
    C[:, -1] = -p[:-1]
    return C


@functools.cache
def _shift(n: int) -> np.ndarray:
    """The complex n x n matrix with a unit subdiagonal (read-only: every call shares it)."""
    S = np.eye(n, k=-1, dtype=complex)
    S.flags.writeable = False
    return S


def roots(p) -> np.ndarray:
    """Root multiset of p as eigenvalues of its companion matrix."""
    p = poly_trim(p)
    if p.size < 2:
        raise ValueError("roots need a polynomial of degree >= 1")
    return np.linalg.eigvals(_companion(p / p[-1]))


def newton_convert(values, direction: str) -> np.ndarray:
    """Convert between power sums and monic coefficients by Newton's identities.

    ``power-to-coeffs``: input (p_1, ..., p_n), output the n+1 ascending
    coefficients of the monic degree-n polynomial with those power sums.
    ``coeffs-to-power``: the inverse, for monic p (see is_monic) trimmed and taken as p / p[-1].
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
        coeffs = _monic_intake(values, "coeffs-to-power")
        n = coeffs.size - 1
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


def numerical_rank(M):
    """Rank of M cut against its own sigma_max, the rule of invertibility tests; a stack
    (..., p, q) gives the rank of each matrix."""
    return _rank(np.asarray(M, dtype=complex))


def _rank(M: np.ndarray, bound: float | None = None):
    """Singular values above the cut max(p, q) * RANK_RTOL * bound (sigma_max, or a span's
    bound on the norm of each row).

    A (p, q) matrix gives an int; a stack (..., p, q) the int array (...) of the rank of
    each matrix, the one it gets alone (each has the singular values it gets alone).

    Given a bound, a stack whose every matrix :func:`_spans_rows` proves of full row rank p
    gets p with no singular value taken: M M^H - tau I has a Cholesky factor, with
    tau = cut**2 + 2 (p q + p**2 + p) eps bound**2, the cut plus twice the rounding
    budget.  Any other input is counted from its SVD, taken of M or of its transpose,
    whichever is tall (numpy's SVD of strongly_regular's wide 66 x 144 span takes about a
    third longer than of its transpose).  The cut is symmetric in (p, q), and the proof
    leaves room for the SVD's own rounding, so both routes give the same count.
    """
    rtol = max(M.shape[-2:]) * RANK_RTOL
    if M.size == 0:
        counts = np.zeros(M.shape[:-2], dtype=int)
    elif bound is not None and _spans_rows(M, bound * rtol, bound):
        counts = np.full(M.shape[:-2], M.shape[-2])
    else:
        sigma = np.linalg.svd(M if M.shape[-2] >= M.shape[-1] else M.swapaxes(-2, -1), compute_uv=False)
        cut = (sigma[..., :1] if bound is None else bound) * rtol
        counts = np.add.reduce(sigma > cut, axis=-1)
    return int(counts) if M.ndim == 2 else counts


def _spans_rows(M: np.ndarray, cut: float, bound: float) -> bool:
    """Whether one Cholesky factorization proves sigma_p > cut for every (p, q) matrix of M,
    whose rows have norm at most bound.

    With eps the spacing of floats at 1 (twice the unit roundoff, which covers the sqrt(2)
    of a complex product), the computed Gram matrix M M^H is off by at most about
    q eps ||M||_F**2 in norm, and a Cholesky factorization that completes is exact for a
    matrix at most about (p + 1) eps ||M||_F**2 from the one it was given (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1 and 10.1; both to first order).  As ||M||_F**2 <= p bound**2, both fit in
    delta = (p q + p**2 + p) eps bound**2.  So a factorization of M M^H - tau I with
    tau = cut**2 + 2 delta proves sigma_p**2 > cut**2 + delta: the SVD's rounding, of order
    q eps ||M||_2, cannot bring sigma_p down to the cut.  A margin report can give
    sqrt(tau) / cut for such a span.

    A row whose squared norm is not above tau (its Gram diagonal entry) bounds sigma_p**2
    by tau, so the matrix is left to the SVD before any product is formed.
    """
    p, q = M.shape[-2:]
    tau = cut * cut + 2 * (p * q + p * p + p) * np.finfo(float).eps * bound * bound
    entries = np.ascontiguousarray(M).view(float)
    if not (np.einsum("...j,...j->...", entries, entries) > tau).all():
        return False
    gram = M @ M.conj().swapaxes(-1, -2)
    np.einsum("...ii->...i", gram)[...] -= tau
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def krylov_rank(B, b) -> int:
    """Numerical rank of the Krylov space of (B, b), n iff b is cyclic for B: its vectors
    B**j b / (||B**j||_F ||b||) are cut against their bound 1, whatever the scale of B or b."""
    B = as_matrix(B)
    b = np.asarray(b, dtype=complex).reshape(-1, 1)
    if not np.isfinite(b).all():
        raise ValueError("vector entries must be finite")
    b = _max_scaled(b)[:, 0]
    columns = _unit(_powers(_max_scaled(B), B.shape[0])) @ (b / (np.linalg.norm(b) or 1.0))
    return _rank(columns, 1.0)


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| entry by entry with the bits of Python's abs(); np.abs of a complex array may
    differ in the last bit."""
    return np.hypot(z.real, z.imag)


def _gap(p: complex, q: complex) -> float:
    """|p - q| with the bits of :func:`_abs`; a difference past the largest float is an
    infinite distance (where Python's abs() raises OverflowError)."""
    try:
        return abs(p - q)
    except OverflowError:
        return math.inf


def _near_pairs(pts: list, tol: float):
    """Each pair a < b of the points pts, sorted by real part, with |pts[a] - pts[b]| <= tol.

    The scan from a stops at the first point whose real part is more than tol to the
    right: a rounded real gap only grows along the sorted points, and no distance is
    below its real gap.
    """
    for a, p in enumerate(pts):
        for b in range(a + 1, len(pts)):
            q = pts[b]
            if q.real - p.real > tol:
                break
            if _gap(p, q) <= tol:
                yield a, b


def _coincident(z: np.ndarray, tol: float) -> bool:
    """Whether two of the points z lie within tol of each other."""
    return next(_near_pairs(np.sort(z).tolist(), tol), None) is not None


def _clusters(points, tol: float) -> tuple[list[tuple[complex, int]], np.ndarray]:
    """Single-linkage clusters of a complex multiset (an array or a list): the
    (representative, multiplicity) pairs, representatives being cluster means, in (re, im)
    order, and the index of each point's pair.  The points are sorted by (re, im) first,
    so the result does not depend on their order.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    z = np.asarray(points, dtype=complex)
    perm = np.lexsort((z.imag, z.real))
    pts = z[perm].tolist()
    # union-find: each point takes the least index in its connected component, which heads it
    head = list(range(len(pts)))
    for a, b in _near_pairs(pts, tol):
        while head[a] != a:
            a = head[a]
        while head[b] != b:
            b = head[b]
        head[max(a, b)] = min(a, b)
    # the clusters in the order of their heads, each with its points in sorted order
    place: dict[int, int] = {}
    member, groups = [], []
    for i, p in enumerate(pts):
        while head[i] != i:
            i = head[i]
        if i not in place:
            place[i] = len(groups)
            groups.append([])
        member.append(place[i])
        groups[place[i]].append(p)
    reps = [(sum(g) / len(g), len(g)) for g in groups]
    order = sorted(range(len(reps)), key=lambda c: (reps[c][0].real, reps[c][0].imag))
    index = np.empty(z.size, dtype=int)
    index[perm] = np.argsort(order)[member]
    return [reps[c] for c in order], index
