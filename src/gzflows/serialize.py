"""JSON wire formats.

Every complex array, of any rank, is a nested list of JSON numbers whose
innermost lists are [re, im] pairs: a scalar is [re, im], a vector a list
of pairs, a matrix a row-major list of rows.  Polynomials are ascending
coefficient vectors.  Decoding checks the rank and the element types and
raises :class:`InputError` on anything malformed, so the CLI can map it
to its own exit code.

Encoders return float arrays (shape + (2,)) where the wire holds nested
lists.  The CLI writes documents with :func:`_dumps`, the bytes of
``json.dumps(doc, indent=2)``, which renders each array whole instead of
visiting its elements one by one.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import InputError, ToleranceError
from .gzcore import GZCoordinates, StratumSignature
from .lax import LaxPath
from .ratmodel import MatricialData

__all__ = [
    "encode_array",
    "decode_array",
    "encode_coords",
    "encode_signature",
    "encode_matricial",
    "decode_matricial",
    "encode_lax_path",
    "decode_lax_path",
]


def encode_array(A) -> np.ndarray:
    """Real view (shape + (2,), [re, im] innermost) of a complex array or scalar of any rank."""
    A = np.asarray(A, dtype=complex)
    return np.ascontiguousarray(A).view(float).reshape(A.shape + (2,))


def decode_array(obj, ndim: int) -> np.ndarray:
    """Complex array of rank ``ndim`` from nested lists with [re, im] innermost.

    Entries must be JSON numbers (bools count, as in JSON-decoded Python);
    ``[]`` decodes to an empty array of rank ``ndim``.
    """
    try:
        A = np.array(obj)
        if A.dtype.kind == "O" and all(isinstance(x, (int, float)) for x in A.flat):
            A = A.astype(float)  # integers beyond int64; OverflowError past float
    except (ValueError, OverflowError) as exc:
        raise InputError(f"expected nested [re, im] pairs: {exc}") from exc
    if A.dtype.kind not in "biuf":
        raise InputError("expected nested [re, im] pairs of JSON numbers")
    if A.shape == (0,) and ndim > 0:
        return np.zeros((0,) * ndim, dtype=complex)
    if A.ndim != ndim + 1 or A.shape[-1] != 2:
        raise InputError(
            f"expected a rank-{ndim} array of [re, im] pairs, got nested shape {A.shape}"
        )
    return np.ascontiguousarray(A, dtype=float).view(complex)[..., 0]


def encode_coords(c: GZCoordinates) -> dict:
    return {
        "n": c.n,
        "basis": c.basis,
        "values": encode_array(c.values),
    }


def encode_signature(sig: StratumSignature) -> list:
    # one [re, im] list per root: many one-pair arrays render slower than lists
    roots = encode_array(np.array(sig.roots, dtype=complex)).tolist()
    return [
        {"root": r, "multiplicities": list(mult)}
        for r, mult in zip(roots, sig.multiplicities)
    ]


def encode_matricial(F: MatricialData) -> dict:
    return {
        "k": list(F.k),
        "B_minus": [encode_array(M) for M in F.b_minus],
        "B_plus": [encode_array(M) for M in F.b_plus],
        "g": [encode_array(M) for M in F.g],
        "uw": [
            {"i": j + 1, "u": encode_array(F.u[j]), "w": encode_array(F.w[j])}
            for j in sorted(F.u)
        ],
    }


def decode_matricial(obj) -> MatricialData:
    _need_keys(obj, ("k", "B_minus", "B_plus", "g"))
    k = obj["k"]
    if not isinstance(k, list) or not all(isinstance(x, int) and x >= 0 for x in k):
        raise InputError("k must be a list of nonnegative integers")
    k = tuple(k)
    b_minus = [decode_array(M, 2) for M in _need_list(obj["B_minus"], len(k), "B_minus")]
    b_plus = [decode_array(M, 2) for M in _need_list(obj["B_plus"], len(k), "B_plus")]
    g = [decode_array(M, 2) for M in _need_list(obj["g"], len(k), "g")]
    u: dict[int, np.ndarray] = {}
    w: dict[int, np.ndarray] = {}
    for entry in obj.get("uw", []):
        _need_keys(entry, ("i", "u", "w"))
        if not isinstance(entry["i"], int) or not 1 <= entry["i"] < len(k):
            raise InputError(f"junction index {entry.get('i')!r} out of range")
        j = entry["i"] - 1
        u[j] = decode_array(entry["u"], 1)
        w[j] = decode_array(entry["w"], 1)
    return MatricialData(k=k, b_minus=b_minus, b_plus=b_plus, g=g, u=u, w=w)


def encode_lax_path(path: LaxPath) -> dict:
    return {
        "grid": path.grid,
        "alpha": encode_array(path.alpha),
        "beta": encode_array(path.beta),
    }


def decode_lax_path(obj) -> LaxPath:
    _need_keys(obj, ("grid", "alpha", "beta"))
    grid = obj["grid"]
    if not isinstance(grid, list) or not all(isinstance(t, (int, float)) for t in grid):
        raise InputError("grid must be a list of real times")
    alpha = decode_array(obj["alpha"], 3)
    beta = decode_array(obj["beta"], 3)
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


_NON_FINITE = "non-finite number in the output (NaN and Infinity are not JSON)"


def _dumps(doc) -> str:
    """The text of ``json.dumps(doc, indent=2)``, with float arrays as nested lists.

    A float that is not finite raises :class:`ToleranceError`: NaN and
    Infinity are not JSON.  A type ``json.dumps`` rejects raises TypeError.
    """
    return _render(doc, "\n")


def _render(obj, nl: str) -> str:
    # nl is the newline and indent that closes this value's brackets
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key if isinstance(key, str) else _scalar(key))
            + ": " + _render(value, inner)
            for key, value in obj.items()
        ]) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_render(x, inner) for x in obj]) + nl + "]"
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        return _render_array(obj, nl)
    return _scalar(obj)


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ToleranceError(_NON_FINITE)
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render_array(A: np.ndarray, nl: str) -> str:
    """Nested-list text of a float array: the leaves at once, then one join per axis."""
    if not np.all(np.isfinite(A)):
        raise ToleranceError(_NON_FINITE)
    texts = list(map(float.__repr__, A.ravel().tolist()))
    for axis in range(A.ndim - 1, -1, -1):
        size = A.shape[axis]
        if size == 0:
            texts = ["[]"] * math.prod(A.shape[:axis])
            continue
        inner = nl + "  " * (axis + 1)
        head, sep, tail = "[" + inner, "," + inner, inner[:-2] + "]"
        texts = [head + sep.join(group) + tail for group in zip(*[iter(texts)] * size)]
    return texts[0]
