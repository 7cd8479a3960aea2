"""Gelfand-Zeitlin invariants and flows on gl(n,C).

The invariants are traces of powers (or characteristic-polynomial
coefficients) of all upper-left minors.  Index pairs (m, i) with
1 <= i <= m <= n are always ordered lexicographically; a full parameter
vector has length n(n+1)/2.

The flow for index (m, i) with parameter z conjugates by
blockdiag(exp(z * minor(B, m)**(i-1)), I).  The minor itself commutes with
the exponent, so each single-index flow is an exact one-parameter group.
Under the Lie-Poisson bracket of :mod:`gzflows.verify`, this is the
Hamiltonian flow of tr(minor**i) / i; the Hamiltonian tr(minor**i) itself
generates the same motion at i times the speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matpoly import (
    CLUSTER_TOL,
    RANK_RTOL,
    as_matrix,
    charpoly,
    cluster_points,
    is_monic,
    leading_minor,
    matexp,
    newton_convert,
    numerical_rank,
    poly_degree,
    poly_trim,
    roots,
)

__all__ = [
    "GZ_BASES",
    "GZCoordinates",
    "GZGroupElement",
    "StratumSignature",
    "FiberOrbitData",
    "gz_indices",
    "gz_map",
    "gz_vector_field",
    "gz_flow",
    "flow_factor",
    "strongly_regular",
    "coords_to_polys",
    "stratum_signature",
    "fiber_orbit_data",
    "sr_orbit_count_zero_fiber",
]

GZ_BASES = ("tr-power", "charpoly")


def gz_indices(n: int) -> list[tuple[int, int]]:
    """All (m, i) with 1 <= i <= m <= n, lexicographic."""
    return [(m, i) for m in range(1, n + 1) for i in range(1, m + 1)]


def _gz_position(n: int, m: int, i: int) -> int:
    """Position of (m, i) in gz_indices(n), in closed form."""
    if not 1 <= i <= m <= n:
        raise ValueError(f"index ({m}, {i}) invalid for n = {n}")
    return m * (m - 1) // 2 + i - 1


@dataclass(frozen=True)
class GZCoordinates:
    """Invariant vector indexed by (m, i) pairs in lexicographic order."""

    n: int
    basis: str
    values: np.ndarray


@dataclass(frozen=True)
class GZGroupElement:
    """Abelian group parameter vector, one complex entry per (m, i) pair.

    When acting on gl(n,C) the entries with m = n are accepted and ignored
    (they generate trivial conjugations there); on pairs (B, b) and on
    cotangent points the full vector acts.
    """

    n: int
    values: np.ndarray

    @classmethod
    def zero(cls, n: int) -> "GZGroupElement":
        return cls(n, np.zeros(n * (n + 1) // 2, dtype=complex))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "GZGroupElement":
        values = np.zeros(n * (n + 1) // 2, dtype=complex)
        for m, i, z in pairs:
            values[_gz_position(n, m, i)] += z
        return cls(n, values)

    def items(self):
        for (m, i), z in zip(gz_indices(self.n), self.values):
            yield m, i, complex(z)


@dataclass(frozen=True)
class StratumSignature:
    """Clustered roots with the per-polynomial vanishing orders at each."""

    roots: tuple[complex, ...]
    multiplicities: tuple[tuple[int, ...], ...]
    cluster_tol: float


@dataclass(frozen=True)
class FiberOrbitData:
    t: int
    s: int
    count: int
    shape: str
    roots: tuple[complex, ...]
    t_per_root: tuple[int, ...]
    s_per_root: tuple[int, ...]


def gz_map(B, basis: str = "tr-power") -> GZCoordinates:
    """Invariants of all leading minors of B, in the requested basis.

    tr-power: value(m, i) = tr(minor(B, m)**i).
    charpoly: value(m, i) = coefficient of z**(i-1) in det(z - minor(B, m)).
    """
    B = as_matrix(B)
    n = B.shape[0]
    if basis not in GZ_BASES:
        raise ValueError(f"unknown basis {basis!r}")
    values = np.empty(n * (n + 1) // 2, dtype=complex)
    pos = 0
    for m in range(1, n + 1):
        minor = leading_minor(B, m)
        if basis == "tr-power":
            power = np.eye(m, dtype=complex)
            for _ in range(m):
                power = power @ minor
                values[pos] = np.trace(power)
                pos += 1
        else:
            coeffs = charpoly(minor)
            values[pos : pos + m] = coeffs[:m]
            pos += m
    return GZCoordinates(n=n, basis=basis, values=values)


def _padded_minor_power(B: np.ndarray, m: int, i: int) -> np.ndarray:
    n = B.shape[0]
    P = np.zeros((n, n), dtype=complex)
    P[:m, :m] = np.linalg.matrix_power(leading_minor(B, m), i - 1)
    return P


def gz_vector_field(B, m: int, i: int) -> np.ndarray:
    """Infinitesimal generator [P, B] with P the zero-padded minor power."""
    B = as_matrix(B)
    n = B.shape[0]
    if not (1 <= i <= m <= n):
        raise ValueError(f"index ({m}, {i}) invalid for n = {n}")
    P = _padded_minor_power(B, m, i)
    return P @ B - B @ P


def flow_factor(B: np.ndarray, m: int, i: int, z: complex) -> np.ndarray:
    """blockdiag(exp(z * minor(B, m)**(i-1)), I), the conjugating factor."""
    n = B.shape[0]
    block = matexp(z * np.linalg.matrix_power(leading_minor(B, m), i - 1))
    h = np.eye(n, dtype=complex)
    h[:m, :m] = block
    return h


def _flow_step(B: np.ndarray, m: int, i: int, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """(h, h B h^-1) for one index; for m = n, h is a polynomial in B and B is returned."""
    h = flow_factor(B, m, i, z)
    return h, (B if m == B.shape[0] else h @ B @ np.linalg.inv(h))


def _as_group_element(n: int, lam) -> GZGroupElement:
    if isinstance(lam, GZGroupElement):
        if lam.n != n:
            raise ValueError(f"group element for n = {lam.n} applied to n = {n}")
        return lam
    return GZGroupElement.from_pairs(n, lam)


def gz_flow(B, lam) -> np.ndarray:
    """Apply the composite flow to B, indices in lexicographic order.

    ``lam`` is a :class:`GZGroupElement` or an iterable of (m, i, z)
    triples.  Entries with m = n act trivially on gl(n,C) and are skipped,
    which keeps the B-projection of cotangent flows bit-exact.
    """
    B = as_matrix(B)
    n = B.shape[0]
    lam = _as_group_element(n, lam)
    out = B.copy()
    for m, i, z in lam.items():
        if z == 0 or m == n:
            continue
        out = _flow_step(out, m, i, z)[1]
    return out


def strongly_regular(B, rtol: float = RANK_RTOL) -> tuple[bool, int]:
    """Whether the span of all generators with m < n has full rank n(n-1)/2.

    Stacks each generator as a vector in C^(n^2) and takes the numerical
    rank; the point is strongly regular iff the rank is maximal.
    """
    B = as_matrix(B)
    n = B.shape[0]
    fields = [
        gz_vector_field(B, m, i).ravel()
        for m in range(1, n)
        for i in range(1, m + 1)
    ]
    target = n * (n - 1) // 2
    if not fields:
        return True, 0
    rank = numerical_rank(np.array(fields), rtol=rtol)
    return rank == target, rank


def coords_to_polys(c: GZCoordinates) -> list[np.ndarray]:
    """Minor characteristic polynomials chi_1..chi_n from a coordinate vector."""
    polys = []
    pos = 0
    for m in range(1, c.n + 1):
        block = c.values[pos : pos + m]
        pos += m
        if c.basis == "tr-power":
            polys.append(newton_convert(block, "power-to-coeffs"))
        else:
            polys.append(np.append(block, 1.0 + 0j))
    return polys


def _checked_monic(polys, expected_degrees=None) -> list[np.ndarray]:
    out = []
    for j, p in enumerate(polys):
        p = poly_trim(p)
        if expected_degrees is not None and poly_degree(p) != expected_degrees[j]:
            raise ValidationError(
                f"polynomial {j + 1} has degree {poly_degree(p)}, "
                f"expected {expected_degrees[j]}"
            )
        if poly_degree(p) >= 1 and not is_monic(p, tol=1e-9):
            raise ValidationError(f"polynomial {j + 1} is not monic")
        out.append(p)
    return out


def _clustered_roots(polys, tol):
    """Cluster the union of all roots; returns (reps, per-poly counts, scaled tol)."""
    all_roots = []
    owners = []
    for j, p in enumerate(polys):
        if poly_degree(p) >= 1:
            for r in roots(p):
                all_roots.append(complex(r))
                owners.append(j)
    scale = 1.0 + max((abs(r) for r in all_roots), default=0.0)
    eff_tol = (CLUSTER_TOL if tol is None else tol) * scale
    if not all_roots:
        return [], [], eff_tol
    reps = cluster_points(all_roots, eff_tol)
    counts = [np.zeros(len(polys), dtype=int) for _ in reps]
    for r, j in zip(all_roots, owners):
        best = min(range(len(reps)), key=lambda idx: abs(r - reps[idx][0]))
        counts[best][j] += 1
    return reps, counts, eff_tol


def stratum_signature(polys_or_coords, tol: float | None = None) -> StratumSignature:
    """Root clusters of q_1..q_n with the order of vanishing of each q_j.

    Accepts either explicit monic polynomials or a charpoly-basis (or
    tr-power) :class:`GZCoordinates` vector.  ``tol`` is the clustering
    tolerance before the (1 + max |root|) scaling.
    """
    if isinstance(polys_or_coords, GZCoordinates):
        polys = coords_to_polys(polys_or_coords)
    else:
        polys = _checked_monic(polys_or_coords)
    reps, counts, eff_tol = _clustered_roots(polys, tol)
    return StratumSignature(
        roots=tuple(r for r, _ in reps),
        multiplicities=tuple(tuple(int(x) for x in c) for c in counts),
        cluster_tol=eff_tol,
    )


def fiber_orbit_data(polys, mode: str = "matrices", tol: float | None = None) -> FiberOrbitData:
    """Count maximal-dimension orbits on the fiber cut out by q_1..q_n.

    For each distinct root z: s_i counts the q_j vanishing there and t_i the
    adjacent pairs q_j, q_(j+1) vanishing together.  In rational-maps mode
    the convention q_(n+1) = 1 applies; in matrices mode the inputs are the
    minor characteristic polynomials (degree of q_m must be m) and j runs to
    n-1 only.  Both give the same t.  The fiber holds 2**t maximal orbits,
    each of shape (C*)^s x C^(|k|-s).
    """
    if mode not in ("matrices", "rational-maps"):
        raise ValueError(f"unknown mode {mode!r}")
    expected = None
    if mode == "matrices":
        expected = list(range(1, len(polys) + 1))
    polys = _checked_monic(polys, expected_degrees=expected)
    n = len(polys)
    total = sum(max(poly_degree(p), 0) for p in polys)
    reps, counts, _ = _clustered_roots(polys, tol)
    t_parts, s_parts = [], []
    for c in counts:
        vanishes = [c[j] > 0 for j in range(n)]
        s_parts.append(sum(vanishes))
        t_parts.append(sum(1 for j in range(n - 1) if vanishes[j] and vanishes[j + 1]))
    t = int(sum(t_parts))
    s = int(sum(s_parts))
    return FiberOrbitData(
        t=t,
        s=s,
        count=2 ** t,
        shape=f"(C*)^{s} x C^{total - s}",
        roots=tuple(r for r, _ in reps),
        t_per_root=tuple(int(x) for x in t_parts),
        s_per_root=tuple(int(x) for x in s_parts),
    )


def sr_orbit_count_zero_fiber(k) -> int:
    """2**t with t = #{j : k_j != 0 and k_(j+1) != 0}."""
    k = [int(x) for x in k]
    if any(x < 0 for x in k):
        raise ValueError("degrees must be nonnegative")
    t = sum(1 for j in range(len(k) - 1) if k[j] != 0 and k[j + 1] != 0)
    return 2 ** t
