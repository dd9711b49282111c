"""Canonical JSON and the on-disk tensor document format.

The writer is byte-stable: object keys are sorted, floats are rendered with 17
significant digits (which round-trips IEEE doubles exactly), and there is no
insignificant whitespace.  Two runs that produce equal values therefore
produce equal bytes.

A list, tuple or array whose elements are all Python ``float`` is formatted
in one ``%``-call over the whole run rather than element by element.
``"%.17g" % f`` and ``format(f, ".17g")`` share one double-to-string
conversion, so both paths write the same bytes.  The run is checked for NaN and
infinity once, on its rendered text: ``nan`` and ``[-]inf`` are the only
``%.17g`` renderings with an ``n``.  The reader checks each entry's type and
finiteness, and converts a list with ``float`` only if it holds JSON integers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, IO

import numpy as np

from .curvature import HermitianPoint, validate_point
from .multilinear import TOL_ALG, CurvTensor, InputError, require_curvature_class

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
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, dict):
        for key in value:  # before sorting, which cannot compare a str with an int
            if not isinstance(key, str):
                raise DocumentFormatError(f"object keys must be strings, got {type(key).__name__}")
        items = (f"{json.dumps(k, ensure_ascii=True)}:{_canon(value[k])}" for k in sorted(value))
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        if set(map(type, seq)) == {float}:  # exact type: np.float64, ints, bools stay per element
            # adding 0.0 turns -0.0 into 0.0
            text = ("%.17g," * len(seq))[:-1] % tuple([f + 0.0 for f in seq])
            if "n" in text:  # nan, inf or -inf
                raise DocumentFormatError(_NON_FINITE)
            return "[" + text + "]"
        return "[" + ",".join(_canon(v) for v in seq) + "]"
    raise DocumentFormatError(f"cannot serialize {type(value).__name__}")


def canonical_json(value: Any) -> str:
    """Serialize to the byte-stable canonical JSON form (no trailing newline)."""
    return _canon(value)


@dataclass(frozen=True)
class TensorDocument:
    """Flat on-disk form of one point plus one curvature tensor.

    Arrays are row-major flat lists; ``g`` and ``J`` have dim^2 entries, ``R``
    has dim^4.  A loaded document is only returned after full geometric
    validation (valid Hermitian point, curvature-class tensor).
    """

    dim: int
    g: tuple[float, ...]
    J: tuple[float, ...]
    R: tuple[float, ...]
    label: str | None = None

    @classmethod
    def from_point_tensor(
        cls, point: HermitianPoint, R: CurvTensor, label: str | None = None
    ) -> "TensorDocument":
        return cls(
            dim=point.dim,
            g=tuple(point.g.reshape(-1).tolist()),
            J=tuple(point.J.reshape(-1).tolist()),
            R=tuple(R.components.reshape(-1).tolist()),
            label=label,
        )

    def to_point_tensor(self, tol: float = TOL_ALG) -> tuple[HermitianPoint, CurvTensor]:
        """Rebuild and validate the geometric objects; raises with defect values."""
        n = self.dim
        g, J, R = (np.fromiter(v, float, count=len(v)) for v in (self.g, self.J, self.R))
        point = validate_point(g.reshape(n, n), J.reshape(n, n), tol)
        R = CurvTensor(n, R.reshape((n,) * 4))
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
        types = set(map(type, values))
        strays = types - {int, float}  # true/false, strings, nulls, lists
        if strays:
            names = ", ".join(sorted(t.__name__ for t in strays))
            raise DocumentFormatError(f"{key} entries must be numbers, found {names}")
        try:
            arrays[key] = tuple(values if types == {float} else map(float, values))
        except OverflowError as exc:
            raise DocumentFormatError(f"{key} has an integer too large for a float") from exc
        if not all(map(math.isfinite, arrays[key])):
            raise DocumentFormatError(f"{key} contains non-finite entries")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise DocumentFormatError("label must be a string when present")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1 == 1.0
        raise DocumentFormatError(f"unsupported schema_version {version!r}")
    return TensorDocument(dim=dim, g=arrays["g"], J=arrays["J"], R=arrays["R"], label=label)


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
