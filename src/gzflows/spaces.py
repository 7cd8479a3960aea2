"""Hamiltonian GL(n,C)-spaces: cyclic pairs (B, b) and T*GL(n,C).

T*GL(n,C) is kept in the right trivialization (g, B) throughout; there is
no abstract cotangent structure.  A left flow moves (g, B) to (hg, hBh^-1), the
first m rows of g; a right flow moves only the first m columns of g, to gh.  Here
h = blockdiag(exp(z minor(M, m)**(i-1)), I) with M = B on the left, -g^-1 B g and -z on the right.

The B-projection of a left flow calls the same single-index step as
:func:`gzflows.gzcore.gz_flow`, so descent to gl(n,C) is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gzcore import _as_group_element, _flow_step, _gz_position, _singular_factor, flow_factor
from .matpoly import _powers, as_matrix, krylov_matrix, krylov_rank, numerical_rank

__all__ = [
    "VnPoint",
    "CotangentPoint",
    "vn_validate",
    "vn_iso",
    "vn_gz_flow",
    "cotangent_validate",
    "tgl_symplectic",
    "tgl_flow",
    "tilde_a_flow",
]


@dataclass(frozen=True)
class VnPoint:
    """Pair (B, b) with b a cyclic vector for B."""

    B: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.B.shape[0]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.B.reshape(-1), self.b])


@dataclass(frozen=True)
class CotangentPoint:
    """Point (g, B) of T*GL(n,C) in the right trivialization."""

    g: np.ndarray
    B: np.ndarray

    @property
    def n(self) -> int:
        return self.B.shape[0]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.g.reshape(-1), self.B.reshape(-1)])

    def right_moment(self) -> np.ndarray:
        """-g^-1 B g, the moment map of the right action."""
        return -np.linalg.solve(self.g, self.B @ self.g)


def vn_validate(B, b) -> VnPoint:
    """Accept (B, b) iff the Krylov matrix has full rank."""
    B = as_matrix(B)
    b = np.asarray(b, dtype=complex).reshape(-1)
    rank = krylov_rank(B, b)
    if rank != B.shape[0]:
        raise ValidationError(
            f"vector is not cyclic: Krylov rank {rank} < {B.shape[0]}"
        )
    return VnPoint(B=B, b=b)


def vn_iso(p: VnPoint) -> tuple[np.ndarray, np.ndarray]:
    """Chart ((b, Bb, ..., B^(n-1) b), (tr B, ..., tr B^n))."""
    K = krylov_matrix(p.B, p.b)
    return K, np.trace(_powers(p.B, p.n + 1)[1:], axis1=1, axis2=2)


def vn_gz_flow(p: VnPoint, lam) -> VnPoint:
    """(B, b) -> (hBh^-1, hb) per index; the full parameter vector acts.

    Indices with m = n scale and shear b through h = exp(z B^(i-1)) while
    fixing B exactly (h is a polynomial in B).
    """
    lam = _as_group_element(p.n, lam)
    B, b = p.B.astype(complex), p.b.astype(complex)
    for m, i, z in lam.items():
        g, B = _flow_step(B, m, i, z)
        b[:m] = g @ b[:m]
    return VnPoint(B=B, b=b)


def cotangent_validate(g, B) -> CotangentPoint:
    g = as_matrix(g)
    B = as_matrix(B)
    if g.shape != B.shape:
        raise ValidationError(f"shape mismatch: g {g.shape}, B {B.shape}")
    if numerical_rank(g) < g.shape[0]:
        raise ValidationError("g is numerically singular")
    return CotangentPoint(g=g, B=B)


def tgl_symplectic(x: CotangentPoint, tangent1, tangent2) -> complex:
    """Canonical form tr(rho1 b2 - rho2 b1 - B [rho1, rho2]).

    Tangents are (rho, bdot) pairs of n-by-n matrices, rho being the
    right-invariant frame coefficient along the group direction.
    """
    rho1, b1 = (as_matrix(t) for t in tangent1)
    rho2, b2 = (as_matrix(t) for t in tangent2)
    comm = rho1 @ rho2 - rho2 @ rho1
    return complex(np.trace(rho1 @ b2 - rho2 @ b1 - x.B @ comm))


def tgl_flow(x: CotangentPoint, side: str, m: int, i: int, z: complex) -> CotangentPoint:
    """Single-index flow on T*GL(n,C).

    left:  (g, B) -> (hg, hBh^-1) with h built from the minors of B; for
           m = n the factor commutes with B, so B keeps its bits.
    right: (g, B) -> (gh, B) with h = blockdiag(exp(-z minor(C, m)**(i-1)), I)
           and C = -g^-1 B g; B is never touched.
    A factor that overflows or is exactly singular raises ToleranceError on either side.
    """
    _gz_position(x.n, m, i)  # checks the index
    moved = x.g.astype(complex)
    if side == "left":
        h, B = _flow_step(x.B, m, i, z)
        moved[:m] = h @ x.g[:m]
        return CotangentPoint(g=moved, B=B)
    if side == "right":
        h = flow_factor(x.right_moment(), m, i, -z)
        # the left flow's criterion, an LU pivot that is exactly zero (its solve refuses it)
        if np.linalg.slogdet(h)[0] == 0:
            raise _singular_factor(m, i)
        moved[:, :m] = x.g[:, :m] @ h
        return CotangentPoint(g=moved, B=x.B)
    raise ValueError(f"unknown side {side!r}")


def tilde_a_flow(x: CotangentPoint, left, right) -> CotangentPoint:
    """Compose all left flows, then all right flows, lexicographically.

    The two families commute exactly: left flows leave -g^-1 B g unchanged
    and right flows leave B unchanged, so each family's generators are
    constant along the other's orbits.
    """
    families = (("left", _as_group_element(x.n, left)), ("right", _as_group_element(x.n, right)))
    out = x
    for side, lam in families:
        for m, i, z in lam.items():
            out = tgl_flow(out, side, m, i, z)
    return out
