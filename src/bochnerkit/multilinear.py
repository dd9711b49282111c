"""Dense tensor values and metric-aware contractions.

Everything here is pointwise linear algebra on small dense arrays (dimension
at most 12 in practice).  Components are stored in *coordinate* indices, not
orthonormal ones: every contraction raises indices with an explicitly supplied
inverse metric, so non-orthonormal charts need no special casing.

Values are immutable after construction and safe to share across threads; all
operations are pure functions of their inputs.  The one value type,
``CurvTensor``, carries no arithmetic beyond ``__sub__`` and caches its
symmetry defect, which its read-only components keep valid.  A symmetric form
(a metric or a Ricci trace) is a plain read-only float array, frozen by
``_frozen_array``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Exact-formula algebra in 64-bit floats: the contraction chains used by this
# package have condition numbers near 1 on the test metrics and stay far below
# this threshold at dim <= 12.
TOL_ALG = 1e-12

__all__ = [
    "TOL_ALG",
    "CurvTensor",
    "InputError",
    "DimensionMismatchError",
    "NonFiniteError",
    "SymmetryError",
    "invariant_norm",
    "require_curvature_class",
]


class InputError(ValueError):
    """An input the computation cannot take.  The CLI reports every subclass as
    one ``error:`` line and exit 2; any other exception is an internal fault."""


class DimensionMismatchError(ValueError):
    """Operands disagree on dimension or array shape."""


class NonFiniteError(InputError):
    """Components contain NaN or infinity."""


class SymmetryError(InputError):
    """A tensor violates the symmetry class an operation requires.

    Carries the offending defect value in ``defect``.
    """

    def __init__(self, message: str, defect: float):
        super().__init__(f"{message} (defect {defect:.3e})")
        self.defect = float(defect)


def _frozen_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatchError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what}: components must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CurvTensor:
    """Dense rank-4 covariant tensor ``T_{ijkl}``.

    Index order matches the multilinear evaluation
    ``T(X, Y, Z, U) = X^i Y^j Z^k U^l T_{ijkl}``.  A tensor is *curvature
    class* when it is antisymmetric in the first and in the last index pair
    and its cyclic sum over the first three slots vanishes; operations that
    require this verify it via :func:`require_curvature_class`.
    """

    dim: int
    components: np.ndarray

    def __post_init__(self):
        if self.dim <= 0 or self.dim % 2:
            raise DimensionMismatchError(
                f"dim must be a positive even integer, got {self.dim}"
            )
        object.__setattr__(
            self,
            "components",
            _frozen_array(self.components, (self.dim,) * 4, "CurvTensor"),
        )

    @staticmethod
    def zero(dim: int) -> "CurvTensor":
        return CurvTensor(dim, np.zeros((dim,) * 4))

    def __call__(self, X, Y, Z, U) -> float:
        return float(np.einsum("ijkl,i,j,k,l->", self.components, X, Y, Z, U))

    def __sub__(self, other: "CurvTensor") -> "CurvTensor":
        _check_same_dim(self.dim, other.dim)
        return CurvTensor(self.dim, self.components - other.components)

    @cached_property
    def symmetry_defect(self) -> float:
        """Max-abs violation of the curvature class: of both pair antisymmetries, of
        the pair swap (implied by the others; a cross-check) and of first Bianchi."""
        A = self.components
        return max(
            float(np.max(np.abs(A + A.transpose(1, 0, 2, 3)))),
            float(np.max(np.abs(A + A.transpose(0, 1, 3, 2)))),
            float(np.max(np.abs(A - A.transpose(2, 3, 0, 1)))),
            float(np.max(np.abs(A + A.transpose(1, 2, 0, 3) + A.transpose(2, 0, 1, 3)))),
        )


def _check_same_dim(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatchError(f"dimension mismatch: {a} != {b}")


def _inner(g_inv: np.ndarray, P: np.ndarray, Q: np.ndarray) -> float:
    """Full contraction of P with Q, every index of Q raised by the one ``np.dot`` per slot
    that ``np.tensordot`` forms (the raised slot moves last, so the slots keep their order)."""
    n, perm = g_inv.shape[0], (*range(1, Q.ndim), 0)
    for _ in range(Q.ndim):
        Q = np.dot(Q.transpose(perm).reshape(-1, n), g_inv).reshape(Q.shape[1:] + (n,))
    return float(np.dot(P.reshape(1, -1), Q.reshape(-1, 1))[0, 0])


def _norm(g_inv: np.ndarray, T: np.ndarray) -> float:
    # tiny negative values are roundoff from the contraction
    return float(np.sqrt(max(_inner(g_inv, T, T), 0.0)))


def invariant_norm(point, T: CurvTensor) -> float:
    """Frame-invariant norm of a CurvTensor: sqrt of its full self-contraction,
    every index raised with the inverse metric of ``point``, so the result does
    not depend on the coordinate basis."""
    if not isinstance(T, CurvTensor):
        raise TypeError(f"unsupported tensor type {type(T).__name__}")
    _check_same_dim(point.dim, T.dim)
    return _norm(point.g_inv, T.components)


def _bound(tol: float, scale: float) -> float:
    """The one rule of every input gate: a defect passes when it is at most
    ``tol * max(1, scale)``, where ``scale`` is the magnitude of the terms the
    defect compares.  Rounding grows with that magnitude, so the gate follows a
    scaled input; the factor is never below 1, so every defect within ``tol``
    still passes."""
    return tol * max(1.0, scale)


def require_curvature_class(T: CurvTensor, tol: float = TOL_ALG, what: str = "input") -> None:
    """Raise :class:`SymmetryError` unless ``T.symmetry_defect`` is within
    ``tol * max(1, max|T|)`` (:func:`_bound`)."""
    bound = _bound(tol, float(np.max(np.abs(T.components))))
    if T.symmetry_defect > bound:
        raise SymmetryError(f"{what} is not curvature-class at tolerance {bound:.1e}",
                            T.symmetry_defect)
