"""JSON wire formats.

Every complex array, of any rank, is a nested list of JSON numbers whose
innermost lists are [re, im] pairs: a scalar is [re, im], a vector a list
of pairs, a matrix a row-major list of rows.  Polynomials are ascending
coefficient vectors.  Decoding checks the rank and the element types and
raises ValueError on anything malformed, as every library intake does.

Encoders return float arrays (shape + (2,)) where the wire holds nested
lists.  The CLI writes documents as :func:`_pieces`, an ordered list of text
pieces whose join is the bytes of ``json.dumps(doc, indent=2)``.  A float
array of at most 512 floats is one piece, one ``%r`` template of its shape
filled with all its floats; a larger one is a piece per run of whole slices
along its first axis of at most 512 floats, so that no piece of a megabyte
document is large enough to be mapped fresh (see ``_PIECE_FLOATS``).  A
list of flat records (dicts with one key order, each value a list of JSON
ints and floats of one length per key, as the roots and multiplicities of a
stratum signature) is one piece: one record's template, its keys' texts and
a ``%r`` per number, repeated for every record and filled with all their
numbers at once.
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ToleranceError
from .gzcore import GZ_BASES, GZCoordinates, StratumSignature
from .lax import LaxPath, _one_path
from .ratmodel import MatricialData

__all__ = [
    "encode_array",
    "decode_array",
    "encode_coords",
    "decode_coords",
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


# what a non-finite entry of a decoded array of rank 0, 1 and at least 2 is called
_ENTRIES = ("a scalar", "vector entries", "matrix entries")


def decode_array(obj, ndim: int) -> np.ndarray:
    """Complex array of rank ``ndim`` from nested lists with [re, im] innermost.

    Entries must be finite JSON numbers (bools count, as in JSON-decoded
    Python; Python's json also reads NaN, Infinity and 1e400, which are
    refused); ``[]`` decodes to an empty array of rank ``ndim``.
    """
    try:
        A = np.array(obj)
        if A.dtype.kind == "O" and all(isinstance(x, (int, float)) for x in A.flat):
            A = A.astype(float)  # integers beyond int64; OverflowError past float
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"expected nested [re, im] pairs: {exc}") from exc
    if A.dtype.kind not in "biuf":
        raise ValueError("expected nested [re, im] pairs of JSON numbers")
    if A.shape == (0,) and ndim > 0:
        return np.zeros((0,) * ndim, dtype=complex)
    if A.ndim != ndim + 1 or A.shape[-1] != 2:
        raise ValueError(
            f"expected a rank-{ndim} array of [re, im] pairs, got nested shape {A.shape}"
        )
    A = np.ascontiguousarray(A, dtype=float)
    # count_nonzero takes half the time of .all() on the small arrays of a request
    if np.count_nonzero(np.isfinite(A)) < A.size:
        raise ValueError(f"{_ENTRIES[min(ndim, 2)]} must be finite")
    return A.view(complex)[..., 0]


def encode_coords(c: GZCoordinates) -> dict:
    return {
        "n": c.n,
        "basis": c.basis,
        "values": encode_array(c.values),
    }


def decode_coords(obj) -> GZCoordinates:
    """The inverse of :func:`encode_coords`: n(n+1)/2 values in a known basis."""
    _need_keys(obj, ("n", "basis", "values"))
    n = _need_int(obj["n"], "'n'", 0)
    values = decode_array(obj["values"], 1)
    if obj["basis"] not in GZ_BASES or values.size != n * (n + 1) // 2:
        raise ValueError(f"coords need a basis in {GZ_BASES} and n(n+1)/2 = {n * (n + 1) // 2} values")
    return GZCoordinates(n=n, basis=obj["basis"], values=values)


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
    """The inverse of :func:`encode_matricial`: one :func:`decode_array` per block and per
    vector, in wire order, so the first bad entry raises its own text."""
    _need_keys(obj, ("k", "B_minus", "B_plus", "g"))
    k = _need_degrees(obj["k"])
    b_minus, b_plus, g = (
        [decode_array(M, 2) for M in _need_list(obj[name], len(k), name)]
        for name in ("B_minus", "B_plus", "g")
    )
    u: dict[int, np.ndarray] = {}
    w: dict[int, np.ndarray] = {}
    uw = obj.get("uw", [])
    if not isinstance(uw, list):
        raise ValueError("uw must be a list of {i, u, w} objects")
    for entry in uw:
        _need_keys(entry, ("i", "u", "w"))
        j = _need_int(entry["i"], "junction index", 1, len(k) - 1) - 1
        if j in u:
            raise ValueError(f"uw holds junction {j + 1} twice")
        u[j], w[j] = decode_array(entry["u"], 1), decode_array(entry["w"], 1)
    return MatricialData(k=k, b_minus=b_minus, b_plus=b_plus, g=g, u=u, w=w)


def encode_lax_path(path: LaxPath) -> dict:
    _one_path(path)
    return {
        "grid": path.grid,
        "alpha": encode_array(path.alpha),
        "beta": encode_array(path.beta),
    }


def decode_lax_path(obj) -> LaxPath:
    _need_keys(obj, ("grid", "alpha", "beta"))
    grid = obj["grid"]
    if not isinstance(grid, list) or not all(type(t) in (int, float) for t in grid):  # no bools
        raise ValueError("grid must be a list of real times")
    alpha = decode_array(obj["alpha"], 3)
    beta = decode_array(obj["beta"], 3)
    try:
        return LaxPath(grid=np.asarray(grid, dtype=float), alpha=alpha, beta=beta).validate()
    except OverflowError as exc:  # an integer past the largest float
        raise ValueError("grid times must be finite") from exc


def _need_keys(obj, keys) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object with keys {keys}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"missing keys: {', '.join(missing)}")


def _need_int(obj, label: str, low: int, high: float = math.inf) -> int:
    """obj if it is a JSON integer in low..high; a bool is not one here."""
    if type(obj) is not int or not low <= obj <= high:
        raise ValueError(f"{label} must be an integer in {low}..{high}, got {obj!r}")
    return obj


def _need_real(obj, label: str) -> float:
    """obj as a float if it is a finite JSON number; a bool is not one here."""
    if type(obj) not in (int, float) or not abs(obj) <= sys.float_info.max:
        raise ValueError(f"{label} must be a finite number, got {obj!r}")
    return float(obj)


def _need_degrees(obj) -> tuple[int, ...]:
    """The degrees k, a nonempty list of integers >= 0, as a tuple."""
    if not isinstance(obj, list):
        raise ValueError("k must be a list of nonnegative integers")
    if not obj:
        raise ValueError("k must hold at least one degree")
    return tuple(_need_int(x, "a degree in k", 0) for x in obj)


def _need_list(obj, length: int, label: str) -> list:
    if not isinstance(obj, list) or len(obj) != length:
        raise ValueError(f"{label} must be a list of length {length}")
    return obj


_NON_FINITE = "non-finite number in the output (NaN and Infinity are not JSON)"


def _pieces(doc) -> list[str]:
    """The text of ``json.dumps(doc, indent=2)``, float arrays as nested lists, as ordered
    pieces all rendered before it returns.  A float that is not finite raises
    :class:`ToleranceError` (NaN and Infinity are not JSON), a type json.dumps rejects TypeError."""
    out: list[str] = []
    _render(doc, "\n", out)
    return out


def _render(obj, nl: str, out: list) -> None:
    # appends obj's text to out; nl is the newline and indent that closes its brackets
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        inner = nl + "  "
        head = "{" + inner
        for key, value in obj.items():
            out.append(head + _key(key) + ": ")
            _render(value, inner, out)
            head = "," + inner
        out.append(nl + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        if obj and (text := _render_records(obj, nl)) is not None:
            out.append(text)
            return
        inner = nl + "  "
        head = "[" + inner
        for x in obj:
            out.append(head)
            _render(x, inner, out)
            head = "," + inner
        out.append(nl + "]" if obj else "[]")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        _render_array(obj, nl, out)
    else:
        out.append(_scalar(obj))


def _key(key) -> str:
    """The text of a dict key, which json.dumps writes as a string."""
    return encode_basestring_ascii(key if isinstance(key, str) else _scalar(key))


def _render_records(obj: list, nl: str) -> str | None:
    """The text of a list of flat records (see the module docstring) from one ``%r``
    template, or None for any other nonempty list, found at its first record that is not
    flat.  A number's text holds an ``n`` only as ``nan``, ``inf`` or ``-inf``, so a text
    with more of them than its template holds a float that is not finite."""
    first = obj[0]
    if type(first) is not dict or not all(type(v) is list for v in first.values()):
        return None
    keys = tuple(first)
    if set(map(type, obj)) != {dict} or set(map(tuple, obj)) != {keys}:
        return None
    values = list(chain.from_iterable(map(dict.values, obj)))  # record by record
    lengths = list(map(len, first.values()))
    if set(map(type, values)) != {list} or list(map(len, values)) != lengths * len(obj):
        return None
    numbers = list(chain.from_iterable(values))
    if not set(map(type, numbers)) <= {int, float}:  # bool is not int here
        return None
    inner = nl + "    "
    record = "{" + inner + ("," + inner).join([
        _key(key).replace("%", "%%") + ": " + _template((size,), inner)
        for key, size in zip(keys, lengths)
    ]) + nl + "  }"
    template = _template((len(obj),), nl, record)
    text = template % tuple(numbers)
    if text.count("n") != template.count("n"):
        raise ToleranceError(_NON_FINITE)
    return text


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


# Floats per piece of a large array.  A piece of 512 floats, its template and its
# argument tuple take tens of KB each, far below glibc's 128 KiB mmap threshold, so
# rendering one reuses heap memory instead of mapping (and faulting in) fresh pages.
_PIECE_FLOATS = 512


def _render_array(A: np.ndarray, nl: str, out: list) -> None:
    """Appends the nested-list text of a float array to out, from ``%r`` templates.

    ``"%r" % x`` is ``float.__repr__(x)``, the text ``json.dumps`` writes.
    A large array's pieces of whole slices (one slice if a slice holds more
    than ``_PIECE_FLOATS``) come with the separators between them as pieces
    of their own, and a piece whose floats have the bytes of the piece
    before it, as in a path sampled from a constant, shares that piece's
    string.  Bytes, not values, are compared, so -0.0 and 0.0 keep their own
    texts.
    """
    flat = A.ravel()
    if np.count_nonzero(np.isfinite(flat)) < flat.size:
        raise ToleranceError(_NON_FINITE)
    if flat.size <= _PIECE_FLOATS:
        out.append(_template(A.shape, nl) % tuple(flat.tolist()))
        return
    rows = A.shape[0]
    step = flat.size // rows  # floats per slice along the first axis
    per = max(1, _PIECE_FLOATS // step)  # slices per piece
    inner = nl + "  "
    sep = "," + inner
    row = _template(A.shape[1:], inner)
    out.append("[" + inner)
    text, last = "", b""
    for start in range(0, rows, per):
        chunk = flat[start * step : (start + per) * step]
        if start:
            out.append(sep)
        if (key := chunk.tobytes()) != last:
            text = sep.join([row] * (chunk.size // step)) % tuple(chunk.tolist())
            last = key
        out.append(text)
    out.append(nl + "]")


def _template(shape: tuple, nl: str, leaf: str = "%r") -> str:
    """The nested-list text of an array of that shape whose every entry is leaf."""
    for depth in range(len(shape), 0, -1):
        inner = nl + "  " * depth
        size = shape[depth - 1]
        leaf = "[" + inner + ("," + inner).join([leaf] * size) + inner[:-2] + "]" if size else "[]"
    return leaf
