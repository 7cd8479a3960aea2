"""Gelfand-Zeitlin invariants and flows on gl(n,C).

The invariants are traces of powers (or characteristic-polynomial
coefficients) of all upper-left minors.  Index pairs (m, i) with
1 <= i <= m <= n are always ordered lexicographically; a full parameter
vector has length n(n+1)/2.

The flow for index (m, i) with parameter z conjugates by blockdiag(g, I),
g = exp(z * minor(B, m)**(i-1)).  g commutes with the minor, so the flow keeps
minor(B, m), and every invariant of the levels k <= m, to the bit.  Each
single-index flow is an exact one-parameter group.
Under the Lie-Poisson bracket of :mod:`gzflows.verify`, this is the
Hamiltonian flow of tr(minor**i) / i; the Hamiltonian tr(minor**i) itself
generates the same motion at i times the speed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError, ValidationError
from .matpoly import (
    CLUSTER_TOL,
    _abs,
    _charpoly,
    _clusters,
    _companion,
    _degree,
    _expm,
    _identities,
    _max_scaled,
    _monic,
    _powers,
    _check_square,
    _rank,
    _unit,
    as_matrix,
    newton_convert,
    poly_trim,
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
        """(m, i, z) for each nonzero z, lexicographic in (m, i); a zero z acts as the identity."""
        at = np.flatnonzero(self.values)
        for p, z in zip(at.tolist(), self.values[at].tolist()):
            m = (math.isqrt(8 * p + 1) + 1) // 2  # _gz_position inverted
            yield m, p - m * (m - 1) // 2 + 1, complex(z)


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
    A stack of matrices (..., n, n) gives values (..., n(n+1)/2), each matrix's with
    the bits it gets alone.
    """
    B = _check_square(np.asarray(B, dtype=complex))
    if basis not in GZ_BASES:
        raise ValueError(f"unknown basis {basis!r}")
    return GZCoordinates(n=B.shape[-1], basis=basis, values=_level_values(B, basis, 1))


def _level_values(B: np.ndarray, basis: str, low: int) -> np.ndarray:
    """The values of the levels low..n of gz_map(B, basis), from position low(low-1)/2 on,
    each with the bits gz_map gives it; B is checked by the caller."""
    n = B.shape[-1]
    start = low * (low - 1) // 2
    values = np.empty(B.shape[:-2] + (n * (n + 1) // 2 - start,), dtype=complex)
    # the traces of a chain of powers come power first, as does this view of values
    by_power = values.transpose((B.ndim - 2, *range(B.ndim - 2)))
    # an overflow leaves values that are not finite, which the CLI's output refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(low, n + 1):
            pos = m * (m - 1) // 2 - start
            minor = B[..., :m, :m]
            if basis == "tr-power":
                by_power[pos : pos + m] = _powers(minor, m + 1)[1:].trace(axis1=-2, axis2=-1)
            else:
                values[..., pos : pos + m] = _charpoly(minor)[..., :m]
    return values


def _padded_minor_power(B: np.ndarray, m: int, i: int) -> np.ndarray:
    """pad(B_m^(i-1)) for B or a stack of matrices (..., n, n), each with the bits it gets alone."""
    P = np.zeros(B.shape, dtype=complex)
    P[..., :m, :m] = np.linalg.matrix_power(B[..., :m, :m], i - 1)
    return P


def gz_vector_field(B, m: int, i: int) -> np.ndarray:
    """Infinitesimal generator [P, B] with P the zero-padded minor power."""
    B = as_matrix(B)
    _gz_position(B.shape[0], m, i)  # checks the index
    P = _padded_minor_power(B, m, i)
    return P @ B - B @ P


def flow_factor(B: np.ndarray, m: int, i: int, z: complex) -> np.ndarray:
    """exp(z * minor(B, m)**(i-1)), the (m, m) factor of every flow (on gl(n,C), V_n and
    both sides of T*GL(n,C)); B and (m, i) are checked where they enter, and an
    overflowing factor is a numerical failure."""
    with np.errstate(over="ignore", invalid="ignore"):
        # at i = 1 the power is the identity of B's kind, as matrix_power(B_m, 0) builds it
        power = _identities(m)[B.dtype.kind == "c"] if i == 1 else np.linalg.matrix_power(B[:m, :m], i - 1)
        g = _expm(z * power)
    # count_nonzero takes half the time of .all() on a small array
    if np.count_nonzero(np.isfinite(g)) < g.size:
        raise ToleranceError(f"flow factor for (m, i) = ({m}, {i}) overflowed")
    return g


def _flow_step(B: np.ndarray, m: int, i: int, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """(g, B moved by g), g the factor of the flow (m, i, z) at B."""
    g = flow_factor(B, m, i, z)
    return g, _move(B, g, m, i)


def _move(B: np.ndarray, g: np.ndarray, m: int, i: int) -> np.ndarray:
    """A complex copy of B keeping B[:m, :m] to the bit, with B[:m, m:] <- g B[:m, m:] and
    B[m:, :m] <- B[m:, :m] g^-1 (one solve with g^T); for m = n both blocks are empty."""
    moved = B.astype(complex)
    moved[:m, m:] = g @ B[:m, m:]
    try:
        moved[m:, :m] = np.linalg.solve(g.T, B[m:, :m].T).T
    except np.linalg.LinAlgError:
        raise _singular_factor(m, i) from None
    return moved


def _singular_factor(m: int, i: int) -> ToleranceError:
    """The refusal of a flow factor whose LU factorization has an exactly zero pivot."""
    return ToleranceError(f"flow factor for (m, i) = ({m}, {i}) is singular")


def _as_group_element(n: int, lam) -> GZGroupElement:
    if isinstance(lam, GZGroupElement):
        if lam.n != n:
            raise ValueError(f"group element for n = {lam.n} applied to n = {n}")
        return lam
    return GZGroupElement.from_pairs(n, lam)


def gz_flow(B, lam) -> np.ndarray:
    """Apply the composite flow to B, indices in lexicographic order.

    ``lam`` is a :class:`GZGroupElement` or an iterable of (m, i, z)
    triples.  Each step keeps minor(B, m) to the bit.  Entries with m = n
    act trivially on gl(n,C); skipping them saves only their exponential.
    """
    B = as_matrix(B)
    n = B.shape[0]
    lam = _as_group_element(n, lam)
    out = B.copy()
    for m, i, z in lam.items():
        if m < n:
            out = _flow_step(out, m, i, z)[1]
    return out


@functools.cache
def _minor_frames(n: int) -> tuple[np.ndarray, ...]:
    """Constants for the leading minors m < n of an n-by-n matrix (read-only): the masks of
    their entries, pad(I_m), the pairs [m - 1, k] with k < m, and where each m starts."""
    support = np.tri(n - 1, n, dtype=bool)
    frames = (support[:, :, None] & support[:, None, :], support[:, None, :] * np.eye(n),
              np.tri(n - 1, dtype=bool), np.cumsum(np.arange(n - 1)))
    for frame in frames:
        frame.flags.writeable = False  # every call shares them
    return frames


def strongly_regular(B) -> tuple[bool, int]:
    """Whether the span of all generators with m < n has full rank n(n-1)/2.

    One stacked commutator gives every generator [pad(B_m**(i-1)), B] on its line: the unit
    powers of the minors against B-hat, B over its largest entry.  Each has norm at most
    2 ||B-hat||_F, the bound the rank is cut against, so the scale of B does not move it.

    A full span is proved without singular values: a Cholesky factorization of the
    generators' Gram matrix less tau I, tau = cut**2 plus twice its rounding budget
    (``matpoly._spans_rows``), shows sigma_min above the cut with room for the SVD's
    rounding, so it answers as the SVD would.  A B with a zero generator, such as
    b (+) B', and any other B it does not prove go to the SVD.
    """
    B = as_matrix(B)
    n = B.shape[0]
    target = n * (n - 1) // 2
    if target == 0:
        return True, 0
    masks, eyes, chains, starts = _minor_frames(n)
    # lexicographic in (m, i = k + 1): powers of the padded minors, but pad(I_m) at k = 0
    P = _powers(_max_scaled(B * masks), n - 1).swapaxes(0, 1)[chains]
    P[starts] = eyes
    _unit(P)
    unit = _max_scaled(B)
    generators = P @ unit
    generators -= unit @ P
    rank = _rank(generators.reshape(target, n * n), 2 * np.linalg.norm(unit))
    return rank == target, rank


def coords_to_polys(c: GZCoordinates) -> list[np.ndarray]:
    """Minor characteristic polynomials chi_1..chi_n from a coordinate vector; tr-power
    values whose coefficients overflow raise ToleranceError."""
    polys = []
    pos = 0
    for m in range(1, c.n + 1):
        block = c.values[pos : pos + m]
        pos += m
        if c.basis == "tr-power":
            # an overflow leaves coefficients that are not finite, which are refused
            with np.errstate(over="ignore", invalid="ignore"):
                p = newton_convert(block, "power-to-coeffs")
            if not np.isfinite(p).all():
                raise ToleranceError(f"the power sums of level {m} overflow in the conversion to coefficients")
        else:
            p = np.append(block, 1.0 + 0j)
        polys.append(p)
    return polys


def _checked_monic(polys, expected_degrees=None) -> list[np.ndarray]:
    """Each polynomial trimmed; ValidationError for the first one whose degree is not
    expected_degrees[j], that is the zero polynomial (it vanishes at every point, so no
    finite root list describes it), or of degree at least 1 that is not monic (see is_monic)."""
    out = []
    for j, p in enumerate(polys):
        p = poly_trim(p)
        degree = _degree(p)
        if expected_degrees is not None and degree != expected_degrees[j]:
            raise ValidationError(
                f"polynomial {j + 1} has degree {degree}, expected {expected_degrees[j]}"
            )
        if degree < 0:
            raise ValidationError(f"polynomial {j + 1} is the zero polynomial")
        if degree >= 1 and not _monic(p):
            raise ValidationError(f"polynomial {j + 1} is not monic")
        out.append(p)
    return out


def _clustered_roots(polys, tol):
    """Cluster the roots of trimmed polys; returns (reps, per-poly counts, scaled tol)."""
    found = [np.linalg.eigvals(_companion(p / p[-1])) for p in polys if p.size > 1]
    owners = [j for j, p in enumerate(polys) for _ in range(p.size - 1)]
    all_roots = np.concatenate(found) if found else np.zeros(0, dtype=complex)
    scale = 1.0 + float(_abs(all_roots).max(initial=0.0))
    eff_tol = (CLUSTER_TOL if tol is None else tol) * scale
    if not all_roots.size:
        return [], np.zeros((0, len(polys)), dtype=int), eff_tol
    reps, member = _clusters(all_roots, eff_tol)
    cells = len(reps) * len(polys)
    counts = np.bincount(member * len(polys) + owners, minlength=cells).reshape(len(reps), len(polys))
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
        multiplicities=tuple(map(tuple, counts.tolist())),
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
    total = sum(p.size - 1 for p in polys)
    reps, counts, _ = _clustered_roots(polys, tol)
    vanishes = counts > 0
    s_parts = vanishes.sum(1)
    t_parts = (vanishes[:, :-1] & vanishes[:, 1:]).sum(1)
    t, s = int(t_parts.sum()), int(s_parts.sum())
    return FiberOrbitData(
        t=t,
        s=s,
        count=2 ** t,
        shape=f"(C*)^{s} x C^{total - s}",
        roots=tuple(r for r, _ in reps),
        t_per_root=tuple(t_parts.tolist()),
        s_per_root=tuple(s_parts.tolist()),
    )


def sr_orbit_count_zero_fiber(k) -> int:
    """2**t with t = #{j : k_j != 0 and k_(j+1) != 0}."""
    k = [int(x) for x in k]
    if any(x < 0 for x in k):
        raise ValueError("degrees must be nonnegative")
    t = sum(1 for j in range(len(k) - 1) if k[j] != 0 and k[j + 1] != 0)
    return 2 ** t
