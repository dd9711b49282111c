"""Canonical JSON and the on-disk tensor document format.

The writer is byte-stable: object keys are sorted, floats are rendered with 17
significant digits (which round-trips IEEE doubles exactly), and there is no
insignificant whitespace.  Two runs that produce equal values therefore
produce equal bytes.

A run of floats (a float array) is written by ``_float_text`` in one
vectorized pass, with the bytes ``"%.17g" % f`` gives each element; a list or
tuple is written element by element, each float by ``format(f, ".17g")``,
which gives the same bytes.  For a nonzero |x| < 1e17 the 17 digits are the
integer D nearest |x| 10**q, q = 16 - floor(log10|x|), ties to even: 2**q is
exact by ``np.ldexp``, and Dekker's error-free product with 5**q gives D
exactly for q <= 22 and to within 1e-14 for q > 22, where 5**q is a
double-double.  For no double below 1e-6 does |x| 10**q come within 0.01 of a
decade boundary, 1e16 or 1e17, so the exponent is exact too.  An element with
|x| >= 1e17, or whose remainder in that double-double range lies within 1e-9
of a rounding tie, is written by ``format(f, ".17g")``, as a lone float is.
Zero (and -0.0) is written as ``0``.  A run is checked for NaN and infinity
once, before it is written.

A ``TensorDocument`` holds ``g``, ``J`` and ``R`` as read-only 1-D float64
arrays, which it writes as runs; an array and the list of its values give the
same bytes.  The reader checks each entry's type and finiteness before it
builds the arrays.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii  # the bytes of json.dumps(s, ensure_ascii=True)
from typing import Any, IO

import numpy as np

from .curvature import HermitianPoint, validate_point
from .multilinear import (
    TOL_ALG,
    CurvTensor,
    InputError,
    _check_same_dim,
    require_curvature_class,
)

__all__ = [
    "SCHEMA_VERSION",
    "TensorDocument",
    "DocumentFormatError",
    "canonical_json",
    "dump_tensor",
    "load_tensor",
]

SCHEMA_VERSION = 1


class DocumentFormatError(InputError):
    """Malformed JSON or structurally invalid document."""


_NON_FINITE = "canonical JSON forbids NaN and infinity"


@functools.cache
def _writer_tables():
    """Tables of ``_float_text``, built on its first call rather than at import.

    Column q of ``pow5`` holds 5**q, q = 0..341, as a double-double hi + lo
    (lo = 0 for q <= 22) and the Veltkamp halves of hi.  ``digit4[g]`` is the
    ASCII of the 4-digit group g as one uint32, ``tz4[g]`` its trailing zeros.
    A number is laid out in one 48-byte ``row``: sign, the "0.000" prefix,
    the 17 digits, ".", the 17 digits again, "e+0000" and ",".  Row
    ``keep[18 * cls + nd]`` marks the bytes kept for nd significant digits
    and the %e exponent X of layout class cls: X + 4 for the fixed notation
    (-4 <= X <= 16), 21 for a 2-digit and 22 for a 3-digit exponent.
    """
    pow5, p = [], 1
    for _ in range(342):
        h = float(p)
        pow5.append((h, float(p - int(h))))
        p *= 5
    hi, lo = np.array(pow5).T
    t = hi * 134217729.0  # Veltkamp split, as in _float_text
    bh = t - (t - hi)
    grid = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    ascii4 = np.ascontiguousarray(grid.T) + 48  # "0000" to "9999"
    z = (np.arange(10) == 0).astype(np.int8)
    tz4 = (z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))).ravel()
    X = np.array([*range(-4, 17), 17, 100])[:, None, None]
    nd = np.arange(18)[:, None]
    c = np.arange(48)
    expo = X > 16
    lead = np.where(expo, 1, np.where(X < 0, nd, X + 1))  # digits before the point
    keep = ((c >= 1) & (c < 2 - X) & (X < 0)
            | (c >= 6) & (c < 6 + lead)
            | (c == 23) & (nd > lead)
            | (c >= 24 + lead) & (c < 24 + nd)
            | expo & ((c == 41) | (c == 42) | (c >= 45 - (X >= 100)) & (c < 47))
            | (c == 47))
    row = b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+0000,"
    return (np.stack([hi, lo, bh, hi - bh]), ascii4, ascii4.view(np.uint32).ravel(), tz4,
            keep.reshape(-1, 48).view(np.uint64), row)


def _float_text(x: np.ndarray) -> str:
    """The ``%.17g`` text of each element of a finite float64 array, comma-joined."""
    pow5, ascii4, digit4, tz4, keep_rows, row_bytes = _writer_tables()
    n = x.size
    ax = np.abs(x)
    zero, slow = ax == 0.0, ax >= 1e17
    ax[zero | slow] = 1.0
    # the decimal exponent k, from log10 and then corrected where
    # V = |x| 10**(16 - k) = p + s falls outside [1e16, 1e17)
    k = np.minimum(np.floor(np.log10(ax)), 16).astype(np.int64)
    p, s = np.empty(n), np.empty(n)
    rows = slice(None)
    while True:  # log10 misses k by at most one: two passes at most
        q = 16 - k[rows]
        hi, lo, bh, bl = np.take(pow5, q, axis=1)
        y = np.ldexp(ax[rows], q.astype(np.int32))
        c = y * 134217729.0  # Veltkamp split into 26-bit halves, for Dekker's product
        ah = c - (c - y)
        al = y - ah
        p[rows] = pr = y * hi
        s[rows] = sr = ((ah * bh - pr) + ah * bl + al * bh) + al * bl + y * lo
        above = (pr > 1e17) | (pr == 1e17) & (sr >= 0)
        step = above.astype(np.int64) - ((pr < 1e16) | (pr == 1e16) & (sr < 0))
        if not step.any():
            break
        rows = np.arange(n)[rows][step != 0]
        k[rows] += step[step != 0]
    r = np.rint(s)  # p is even, so this rounds V half to even
    slow |= (k < -6) & (np.abs(np.abs(s - r) - 0.5) < 1e-9)  # q > 22: s is within 1e-14
    D = p.astype(np.int64) + r.astype(np.int64)
    carry = D == 10**17
    D[carry] = 10**16
    X = k + carry
    D[zero] = X[zero] = 0
    lead = D // 10**16
    t = D - lead * 10**16
    u = t // 10**8
    t -= u * 10**8
    g1, g3 = u // 10**4, t // 10**4
    g2, g4 = u - g1 * 10**4, t - g3 * 10**4
    z4 = g4 == 0
    z3 = z4 & (g3 == 0)
    nd = 17 - tz4[g4] - z4 * tz4[g3] - z3 * (tz4[g2] + (g2 == 0) * tz4[g1])
    cls = np.where((X < -4) | (X > 16), 21 + (np.abs(X) >= 100), X + 4)
    keep = np.take(keep_rows, 18 * cls + nd, axis=0).view(bool)
    keep[:, 0] = x < 0
    row = np.frombuffer(bytearray(row_bytes * n), np.uint8).reshape(n, 48)
    row[:, 6] += lead.astype(np.uint8)
    row[:, 7:23] = row[:, 25:41] = digit4[np.stack([g1, g2, g3, g4], axis=1)].view(np.uint8)
    row[:, 42] += (X < 0).astype(np.uint8) * 2
    row[:, 43:47] = ascii4[np.abs(X)]
    text = row[keep].tobytes().decode("ascii")
    if slow.any():
        parts = text.split(",")
        for i in np.flatnonzero(slow):
            parts[i] = format(float(x[i]), ".17g")
        text = ",".join(parts)
    return text[:-1]


def _canon(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if not math.isfinite(f):
            raise DocumentFormatError(_NON_FINITE)
        if f == 0.0:
            f = 0.0  # normalize -0.0
        return format(f, ".17g")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        for key in value:  # before sorting, which cannot compare a str with an int
            if not isinstance(key, str):
                raise DocumentFormatError(f"object keys must be strings, got {type(key).__name__}")
        items = (f"{encode_basestring_ascii(k)}:{_canon(value[k])}" for k in sorted(value))
        return "{" + ",".join(items) + "}"
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            return _canon(value.item())
        if value.ndim > 1:  # the list of its rows
            return "[" + ",".join(map(_canon, value)) + "]"
        if value.dtype.kind == "f":
            x = np.asarray(value, dtype=np.float64)  # float16 and float32 widen exactly
            if not np.isfinite(x).all():
                raise DocumentFormatError(_NON_FINITE)
            # in blocks of 4096, whose temporaries stay in cache
            return "[" + ",".join(_float_text(x[i:i + 4096]) for i in range(0, x.size, 4096)) + "]"
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_canon, value)) + "]"
    raise DocumentFormatError(f"cannot serialize {type(value).__name__}")


def canonical_json(value: Any) -> str:
    """Serialize to the byte-stable canonical JSON form (no trailing newline)."""
    return _canon(value)


def _read_only(values: np.ndarray) -> np.ndarray:
    flat = values.reshape(-1)  # a view of a contiguous array, never the array itself
    flat.flags.writeable = False
    return flat


@dataclass(frozen=True, eq=False)
class TensorDocument:
    """Flat on-disk form of one point plus one curvature tensor.

    ``g``, ``J`` and ``R`` are read-only row-major 1-D float64 arrays: ``g``
    and ``J`` have dim^2 entries, ``R`` has dim^4.  A loaded document is only
    returned after full geometric validation (valid Hermitian point,
    curvature-class tensor).  Two documents are equal when their ``dim``,
    ``label`` and array values are.
    """

    dim: int
    g: np.ndarray
    J: np.ndarray
    R: np.ndarray
    label: str | None = None

    @classmethod
    def from_point_tensor(
        cls, point: HermitianPoint, R: CurvTensor, label: str | None = None
    ) -> "TensorDocument":
        _check_same_dim(point.dim, R.dim)
        return cls(
            dim=point.dim,
            g=_read_only(point.g),
            J=_read_only(point.J),
            R=_read_only(R.components),
            label=label,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorDocument):
            return NotImplemented
        return (self.dim, self.label) == (other.dim, other.label) and all(
            np.array_equal(getattr(self, key), getattr(other, key)) for key in "gJR"
        )

    def to_point_tensor(self, tol: float = TOL_ALG) -> tuple[HermitianPoint, CurvTensor]:
        """Rebuild and validate the geometric objects; raises with defect values."""
        n = self.dim
        point = validate_point(self.g.reshape(n, n), self.J.reshape(n, n), tol)
        R = CurvTensor(n, self.R.reshape((n,) * 4))
        require_curvature_class(R, tol, "document tensor")
        return point, R

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "dim": self.dim,
            "g": self.g,
            "J": self.J,
            "R": self.R,
        }
        if self.label is not None:
            out["label"] = self.label
        return out


def _structural_document(raw: Any) -> TensorDocument:
    if not isinstance(raw, dict):
        raise DocumentFormatError("document root must be a JSON object")
    missing = {"dim", "g", "J", "R"} - raw.keys()
    if missing:
        raise DocumentFormatError(f"document is missing keys: {sorted(missing)}")
    dim = raw["dim"]
    if type(dim) is not int or dim <= 0:  # JSON true is a bool, not a dimension
        raise DocumentFormatError(f"dim must be a positive integer, got {dim!r}")
    arrays = {}
    for key, expected in (("g", dim * dim), ("J", dim * dim), ("R", dim**4)):
        values = raw[key]
        if not isinstance(values, list) or len(values) != expected:
            raise DocumentFormatError(
                f"{key} must be a flat list of {expected} numbers for dim {dim}"
            )
        strays = set(map(type, values)) - {int, float}  # true/false, strings, nulls, lists
        if strays:
            names = ", ".join(sorted(t.__name__ for t in strays))
            raise DocumentFormatError(f"{key} entries must be numbers, found {names}")
        try:
            arrays[key] = np.array(values, dtype=np.float64)
        except OverflowError as exc:
            raise DocumentFormatError(f"{key} has an integer too large for a float") from exc
        if not np.isfinite(arrays[key]).all():
            raise DocumentFormatError(f"{key} contains non-finite entries")
        arrays[key].flags.writeable = False
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise DocumentFormatError("label must be a string when present")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1 == 1.0
        raise DocumentFormatError(f"unsupported schema_version {version!r}")
    return TensorDocument(dim=dim, **arrays, label=label)


def dump_tensor(doc: TensorDocument, destination: str | os.PathLike | IO[str]) -> None:
    """Write the canonical JSON form of ``doc``."""
    text = canonical_json(doc.to_dict()) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)


def load_tensor(source: str | os.PathLike | IO[str], tol: float = TOL_ALG) -> TensorDocument:
    """Read, parse, and fully validate a tensor document.

    Structural problems raise :class:`DocumentFormatError`; geometric ones
    propagate the validation errors (with defect values) from
    :func:`~bochnerkit.curvature.validate_point` and the symmetry check.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        raw = json.loads(text)
    except UnicodeDecodeError as exc:
        raise DocumentFormatError(f"document is not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentFormatError(f"malformed JSON: {exc}") from exc
    doc = _structural_document(raw)
    doc.to_point_tensor(tol)  # geometric validation; errors carry defects
    return doc
