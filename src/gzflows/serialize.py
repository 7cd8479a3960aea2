"""JSON wire formats.

Complex scalars are two-element arrays [re, im]; matrices are row-major
nested arrays of those; polynomials are ascending coefficient arrays.
Decoding validates shapes and raises :class:`InputError` on anything
malformed, so the CLI can map it to its own exit code.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .gzcore import GZCoordinates, StratumSignature
from .lax import LaxPath
from .ratmodel import MatricialData

__all__ = [
    "encode_complex",
    "decode_complex",
    "encode_vector",
    "decode_vector",
    "encode_matrix",
    "decode_matrix",
    "encode_poly",
    "decode_poly",
    "encode_coords",
    "encode_signature",
    "encode_matricial",
    "decode_matricial",
    "encode_lax_path",
    "decode_lax_path",
]


def encode_complex(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(obj) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) for v in obj)
    ):
        raise InputError(f"expected [re, im], got {obj!r}")
    return complex(obj[0], obj[1])


def encode_vector(v) -> list:
    v = np.ascontiguousarray(v, dtype=complex).reshape(-1)
    return v.view(float).reshape(-1, 2).tolist()


def decode_vector(obj) -> np.ndarray:
    if not isinstance(obj, list):
        raise InputError(f"expected a list of [re, im] pairs, got {obj!r}")
    return np.array([decode_complex(z) for z in obj], dtype=complex)


def encode_matrix(M) -> list:
    M = np.ascontiguousarray(M, dtype=complex)
    return M.view(float).reshape(M.shape + (2,)).tolist()


def decode_matrix(obj, square: bool = True) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InputError("expected a nested list of [re, im] pairs")
    if not obj:
        return np.zeros((0, 0), dtype=complex)
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise InputError("matrix rows have unequal lengths")
    M = np.array([[decode_complex(z) for z in row] for row in obj], dtype=complex)
    if square and M.shape[0] != M.shape[1]:
        raise InputError(f"expected a square matrix, got shape {M.shape}")
    return M


encode_poly = encode_vector
decode_poly = decode_vector


def encode_coords(c: GZCoordinates) -> dict:
    return {
        "n": c.n,
        "basis": c.basis,
        "values": encode_vector(c.values),
    }


def encode_signature(sig: StratumSignature) -> list:
    return [
        {"root": encode_complex(r), "multiplicities": list(mult)}
        for r, mult in zip(sig.roots, sig.multiplicities)
    ]


def encode_matricial(F: MatricialData) -> dict:
    return {
        "k": list(F.k),
        "B_minus": [encode_matrix(M) for M in F.b_minus],
        "B_plus": [encode_matrix(M) for M in F.b_plus],
        "g": [encode_matrix(M) for M in F.g],
        "uw": [
            {"i": j + 1, "u": encode_vector(F.u[j]), "w": encode_vector(F.w[j])}
            for j in sorted(F.u)
        ],
    }


def decode_matricial(obj) -> MatricialData:
    _need_keys(obj, ("k", "B_minus", "B_plus", "g"))
    k = obj["k"]
    if not isinstance(k, list) or not all(isinstance(x, int) and x >= 0 for x in k):
        raise InputError("k must be a list of nonnegative integers")
    k = tuple(k)
    b_minus = [decode_matrix(M) for M in _need_list(obj["B_minus"], len(k), "B_minus")]
    b_plus = [decode_matrix(M) for M in _need_list(obj["B_plus"], len(k), "B_plus")]
    g = [decode_matrix(M) for M in _need_list(obj["g"], len(k), "g")]
    u: dict[int, np.ndarray] = {}
    w: dict[int, np.ndarray] = {}
    for entry in obj.get("uw", []):
        _need_keys(entry, ("i", "u", "w"))
        if not isinstance(entry["i"], int) or not 1 <= entry["i"] < len(k):
            raise InputError(f"junction index {entry.get('i')!r} out of range")
        j = entry["i"] - 1
        u[j] = decode_vector(entry["u"])
        w[j] = decode_vector(entry["w"])
    return MatricialData(k=k, b_minus=b_minus, b_plus=b_plus, g=g, u=u, w=w)


def encode_lax_path(path: LaxPath) -> dict:
    return {
        "grid": [float(t) for t in path.grid],
        "alpha": [encode_matrix(M) for M in path.alpha],
        "beta": [encode_matrix(M) for M in path.beta],
    }


def decode_lax_path(obj) -> LaxPath:
    _need_keys(obj, ("grid", "alpha", "beta"))
    grid = obj["grid"]
    if not isinstance(grid, list) or not all(isinstance(t, (int, float)) for t in grid):
        raise InputError("grid must be a list of real times")
    alpha = np.array([decode_matrix(M) for M in obj["alpha"]])
    beta = np.array([decode_matrix(M) for M in obj["beta"]])
    try:
        return LaxPath(grid=np.asarray(grid, dtype=float), alpha=alpha, beta=beta).validate()
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _need_keys(obj, keys) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"expected an object with keys {keys}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise InputError(f"missing keys: {', '.join(missing)}")


def _need_list(obj, length: int, label: str) -> list:
    if not isinstance(obj, list) or len(obj) != length:
        raise InputError(f"{label} must be a list of length {length}")
    return obj
