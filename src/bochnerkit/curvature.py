"""Pointwise curvature constructions on almost Hermitian spaces.

Sign convention (fixed throughout the package, documented here because half
the literature uses the opposite one): the curvature tensor is

    R(X, Y, Z, U) = g(nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z, U)

so that a space of constant sectional curvature ``c`` has ``R = c * pi1`` and
the holomorphic sectional curvature of a unit vector is ``H(X) =
R(X, JX, JX, X)``.  All model constructors and test oracles use this
convention.

Frame sums in the classical trace definitions are implemented as metric
contractions (inverse-metric index raising), valid in any coordinate basis;
orthonormal-frame summation survives only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .multilinear import (
    TOL_ALG,
    CurvTensor,
    DimensionMismatchError,
    InputError,
    SymmetryError,
    _bound,
    _check_same_dim,
    _frozen_array,
    _inner,
    _norm,
    require_curvature_class,
)

__all__ = [
    "HermitianPoint",
    "RicciFamily",
    "PointValidationError",
    "Violation",
    "standard_J",
    "flat_point",
    "point_violations",
    "validate_point",
    "star",
    "ricci_family",
    "space_form_tensor",
    "complex_space_form_tensor",
    "rk_project",
    "random_hermitian_point",
    "random_curvature_tensor",
]


@dataclass(frozen=True)
class Violation:
    """One failed point invariant: which one, and the worst defect observed."""

    invariant: str
    defect: float


class PointValidationError(InputError):
    """Metric/almost-complex data does not define a valid Hermitian point."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        detail = "; ".join(f"{v.invariant} (defect {v.defect:.3e})" for v in violations)
        super().__init__(f"invalid Hermitian point: {detail}")


@dataclass(frozen=True, eq=False)
class HermitianPoint:
    """A 2m-dimensional metric plus compatible almost complex structure.

    ``g`` is a positive definite, exactly symmetric matrix, ``J`` squares to
    minus the identity and preserves ``g``; both are read-only float arrays.
    Construct through :func:`validate_point`; the constructor itself trusts its
    inputs.
    """

    g: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        _freeze_forms(self, "g", "J")

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @property
    def m(self) -> int:
        return self.dim // 2

    @cached_property
    def g_inv(self) -> np.ndarray:
        inv = _g_inv(self.g)
        inv.setflags(write=False)
        return inv

    def inner(self, X, Y) -> float:
        return float(X @ self.g @ Y)


def _freeze_forms(value, *names: str) -> None:
    """Replace each named field of the frozen dataclass ``value`` by a read-only
    float copy of the same n x n shape as the first."""
    n = len(getattr(value, names[0]))
    for name in names:
        what = f"{type(value).__name__}.{name}"
        object.__setattr__(value, name, _frozen_array(getattr(value, name), (n, n), what))


def _g_inv(g: np.ndarray) -> np.ndarray:
    """Symmetrized inverse of the symmetrized metric, over any leading batch axes."""
    inv = np.linalg.inv(0.5 * (g + np.swapaxes(g, -1, -2)))
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def standard_J(dim: int) -> np.ndarray:
    """Block almost complex structure: J e_{2a} = e_{2a+1}, J e_{2a+1} = -e_{2a}."""
    if dim % 2:
        raise DimensionMismatchError(f"dim must be even, got {dim}")
    J = np.zeros((dim, dim))
    for a in range(dim // 2):
        J[2 * a + 1, 2 * a] = 1.0
        J[2 * a, 2 * a + 1] = -1.0
    return J


@cache
def flat_point(dim: int) -> HermitianPoint:
    """Euclidean metric with the standard block structure; one read-only point
    per dimension and process, as it is a constant of ``dim``."""
    return validate_point(np.eye(dim), standard_J(dim))


def point_violations(g, J, tol: float = TOL_ALG) -> list[Violation]:
    """Check all Hermitian-point invariants; return every violation found.

    Each defect is gated by :func:`~bochnerkit.multilinear._bound` at the
    magnitude of the terms it compares: max|g| for the metric's symmetry,
    max|J|^2 for J^2 + I and max|g| max|J|^2 for Hermitian compatibility.
    ``g`` and ``J`` are square arrays that may share leading batch axes; each
    violation then reports the worst defect over the batch, gated at the
    batch's magnitudes.
    """
    g_arr = np.asarray(g, dtype=float)
    J_arr = np.asarray(J, dtype=float)
    violations: list[Violation] = []

    if g_arr.ndim < 2 or g_arr.shape[-1] != g_arr.shape[-2]:
        raise DimensionMismatchError(f"metric must be square, got shape {g_arr.shape}")
    n = g_arr.shape[-1]
    if J_arr.shape != g_arr.shape:
        raise DimensionMismatchError(
            f"J shape {J_arr.shape} does not match metric shape {g_arr.shape}"
        )
    if not (np.all(np.isfinite(g_arr)) and np.all(np.isfinite(J_arr))):
        violations.append(Violation("finite components", float("inf")))
        return violations
    if n % 2:
        violations.append(Violation("even dimension", float(n % 2)))

    g_max, J_max2 = float(np.max(np.abs(g_arr))), float(np.max(np.abs(J_arr))) ** 2
    g_t = np.swapaxes(g_arr, -1, -2)
    sym_defect = float(np.max(np.abs(g_arr - g_t)))
    if sym_defect > _bound(tol, g_max):
        violations.append(Violation("metric symmetry", sym_defect))

    j_defect = float(np.max(np.abs(J_arr @ J_arr + np.eye(n))))
    if j_defect > _bound(tol, J_max2):
        violations.append(Violation("J squares to -identity", j_defect))

    try:
        np.linalg.cholesky(0.5 * (g_arr + g_t))
    except np.linalg.LinAlgError:
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (g_arr + g_t))))
        violations.append(Violation("metric positive definite", abs(min(min_eig, 0.0))))

    compat_defect = float(np.max(np.abs(np.swapaxes(J_arr, -1, -2) @ g_arr @ J_arr - g_arr)))
    if compat_defect > _bound(tol, g_max * J_max2):
        violations.append(Violation("Hermitian compatibility g(JX,JY)=g(X,Y)", compat_defect))

    return violations


def validate_point(g, J, tol: float = TOL_ALG) -> HermitianPoint:
    """Validate one (g, J) and return a :class:`HermitianPoint`, or raise with all violations."""
    violations = point_violations(g, J, tol)
    if violations:
        raise PointValidationError(violations)
    g_arr = np.asarray(g, dtype=float)
    return HermitianPoint(0.5 * (g_arr + np.swapaxes(g_arr, -1, -2)), J)


# ---------------------------------------------------------------------------
# the two Ricci-to-curvature maps, the J-rotation and the symmetrized tensor
# ---------------------------------------------------------------------------

def _phi_psi_sum(point: HermitianPoint, Q1: np.ndarray, Q2: np.ndarray) -> np.ndarray:
    """The array phi(Q1) + psi(Q2), for symmetric component arrays Q1 and Q2,
    where phi and psi send a symmetric bilinear form Q to a curvature-class tensor:

    phi(Q)(X,Y,Z,U) = g(X,U)Q(Y,Z) - g(X,Z)Q(Y,U) + g(Y,Z)Q(X,U) - g(Y,U)Q(X,Z)
    psi(Q)(X,Y,Z,U) = g(X,JU)Q(Y,JZ) - g(X,JZ)Q(Y,JU) - 2 g(X,JY)Q(Z,JU)
                    + g(Y,JZ)Q(X,JU) - g(Y,JU)Q(X,JZ) - 2 g(Z,JU)Q(X,JY)

    Both maps are linear.  The universal tensors are pi1 = phi(g)/2 (constant
    sectional curvature c is c pi1) and pi2 = psi(g)/2 (constant holomorphic
    sectional curvature mu is (mu/4)(pi1 + pi2)), so any linear combination of
    phi, psi, pi1 and pi2 folds into one call:

        a phi(P) + b psi(P') + c pi1 + d pi2 = phi(Q1) + psi(Q2),
        Q1 = a P + (c/2) g,   Q2 = b P' + (d/2) g.

    The Kulkarni-Nomizu parts of the two maps share one antisymmetrization.
    """
    g, J = point.g, point.J
    gJ = g @ J  # gJ[i, j] = g(e_i, J e_j), antisymmetric
    QJ = Q2 @ J  # QJ[i, j] = Q2(e_i, J e_j)
    # g(X,U)Q1(Y,Z) + g(X,JU)Q2(Y,JZ), then antisymmetrized in (Z,U) and in (X,Y)
    T = np.einsum("il,jk->ijkl", g, Q1) + np.einsum("il,jk->ijkl", gJ, QJ)
    T = T - T.transpose(0, 1, 3, 2)
    pair = np.multiply.outer(gJ, QJ)  # g(X,JY) Q2(Z,JU)
    return T - T.transpose(1, 0, 2, 3) - 2.0 * (pair + pair.transpose(2, 3, 0, 1))


def _rotate(A: np.ndarray, J: np.ndarray, *slots: int) -> np.ndarray:
    """A with J applied to the listed argument slots, one slot at a time.

    ``_rotate(A, J, 2, 3)`` is A(X, Y, JZ, JU).  Slots count among the last four
    axes of ``A``; earlier axes are batch axes, matched by those of J before its
    last two.  Each slot costs one matrix product, never a multi-operand einsum.
    """
    J, last = J[..., None, None, :, :], A.ndim - 1
    for slot in slots:  # the slot's axis moves last and back, as np.moveaxis moves it
        axis = last - 3 + slot
        to_end = (*range(axis), *range(axis + 1, last + 1), axis)
        back = (*range(axis), last, *range(axis, last))
        A = (A.transpose(to_end) @ J).transpose(back)
    return A


def star(point: HermitianPoint, R: CurvTensor, sym_tol: float = TOL_ALG) -> CurvTensor:
    """The holomorphically symmetrized companion of a curvature tensor.

    The output is the unique curvature-class tensor that is invariant under
    rotating both vectors of the first pair by J and agrees with the input on
    every holomorphic plane:

        R*(JX, JY, Z, U) = R*(X, Y, Z, U),   R*(X, JX, JX, X) = R(X, JX, JX, X).

    The input must be curvature-class within ``sym_tol`` relative to max|R|
    (:func:`~bochnerkit.multilinear.require_curvature_class`).
    """
    _check_same_dim(point.dim, R.dim)
    require_curvature_class(R, sym_tol, "star()")
    A, J = R.components, point.J
    return CurvTensor(point.dim, _star(A, J, _rotate(A, J, 2, 3)))


def _star(A: np.ndarray, J: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Components of :func:`star` for curvature-class components ``A``, unchecked,
    given P = R(X,Y,JZ,JU) (the last array of :func:`_traces`)."""
    # pair symmetry turns R(JX,JY,Z,U) into P^T and R(JX,Y,Z,JU) into M^T
    M = _rotate(A, J, 1, 2)  # R(X,JY,JZ,U)
    Pt, Mt = P.transpose(2, 3, 0, 1), M.transpose(2, 3, 0, 1)
    main = A + P  # summed in place, in the order A + P + Pt + P(JX,JY,.,.)
    main += Pt
    main += _rotate(P, J, 0, 1)
    # the eight mixed terms are mixed(X,Z,Y,U) - mixed(Y,Z,X,U), mixed = P + Pt - M - Mt
    mixed = P + Pt
    mixed -= M
    mixed -= Mt
    main *= 3.0 / 16.0
    main += (1.0 / 16.0) * (mixed.transpose(0, 2, 1, 3) - mixed.transpose(2, 0, 1, 3))
    return main


@dataclass(frozen=True, eq=False)
class RicciFamily:
    """The six trace outputs of one curvature tensor.

    ``S`` is the plain Ricci trace, ``S_prime`` the J-twisted trace
    ``sum_i R(X, E_i, J E_i, J Y)``, ``S_star`` the Ricci trace of the
    holomorphically symmetrized tensor; ``tau``/``tau_prime``/``tau_star``
    are the corresponding scalar traces.  The three forms are read-only,
    exactly symmetric float arrays, and a non-finite one raises
    :class:`~bochnerkit.multilinear.NonFiniteError`.
    """

    S: np.ndarray
    S_prime: np.ndarray
    S_star: np.ndarray
    tau: float
    tau_prime: float
    tau_star: float

    def __post_init__(self):
        _freeze_forms(self, "S", "S_prime", "S_star")


def _ricci(g_inv: np.ndarray, R: np.ndarray) -> np.ndarray:
    return np.einsum("...bc,...abcd->...ad", g_inv, R)


def _trace(g_inv: np.ndarray, Q: np.ndarray):
    """The metric trace g^{ad} Q_{ad}, over any leading batch axes."""
    return np.einsum("...ad,...ad->...", g_inv, Q)


def _traces(g_inv: np.ndarray, J: np.ndarray, R: np.ndarray) -> tuple:
    """S, S', tau, tau' and P = R(X, Y, JZ, JU) of ``R``, over any leading batch
    axes of the three arrays; S' is the trace of P.  P is returned so that a
    caller rotates R once for its traces, ``_star`` and its J-invariance defects."""
    P = _rotate(R, J, 2, 3)
    S, Sp = _ricci(g_inv, R), _ricci(g_inv, P)
    return S, Sp, _trace(g_inv, S), _trace(g_inv, Sp), P


def _ricci_identities(point: HermitianPoint, S, Sp, tau, tau_p) -> tuple[float, float, float]:
    """Residuals ``id_1_5``, ``id_3_2`` and ``id_3_3`` of ``charts.NKIdentityReport``
    from the traces S, S', tau and tau' of one curvature tensor at ``point``."""
    gi = point.g_inv
    id_3_2 = _norm(gi, S - Sp - ((tau - tau_p) / (2.0 * point.m)) * point.g)
    return abs(_inner(gi, S - Sp, S - 5.0 * Sp)), id_3_2, abs(float(tau - 5.0 * tau_p))


def _symmetrized(Q: np.ndarray, tol: float, what: str) -> np.ndarray:
    """The symmetric part of the form ``Q``, whose asymmetry must be within
    ``tol`` relative to max|Q| (:func:`~bochnerkit.multilinear._bound`)."""
    asym = float(np.max(np.abs(Q - Q.T)))
    if asym > _bound(tol, float(np.max(np.abs(Q)))):
        raise SymmetryError(f"{what} is not symmetric", asym)
    return 0.5 * (Q + Q.T)


def ricci_family(
    point: HermitianPoint, R: CurvTensor, sym_tol: float = TOL_ALG
) -> RicciFamily:
    """All six trace outputs of ``R``, computed as metric contractions.

    The J-twisted trace is symmetric for every tensor invariant under the
    simultaneous J-rotation of all four slots (and for all model tensors);
    outside that class it can be genuinely asymmetric, in which case this
    raises :class:`SymmetryError` rather than silently symmetrizing.  ``R``
    must be curvature-class within ``sym_tol`` relative to max|R|, and each
    trace symmetric within ``sym_tol`` relative to its own largest entry.
    """
    _check_same_dim(point.dim, R.dim)
    require_curvature_class(R, sym_tol, "ricci_family()")
    gi, J, A = point.g_inv, point.J, R.components
    S, Sp, tau, tau_p, P = _traces(gi, J, A)
    S = _symmetrized(S, sym_tol, "Ricci trace")
    Sp = _symmetrized(Sp, sym_tol, "J-twisted Ricci trace")
    Ss = _symmetrized(_ricci(gi, _star(A, J, P)), sym_tol, "Ricci trace of the symmetrized tensor")
    return RicciFamily(S=S, S_prime=Sp, S_star=Ss, tau=float(tau), tau_prime=float(tau_p),
                       tau_star=float(_trace(gi, Ss)))


# ---------------------------------------------------------------------------
# antiholomorphic sectional curvature
# ---------------------------------------------------------------------------

def _ahsc_defect(point: HermitianPoint, A: np.ndarray, nu: float) -> float:
    """Invariant norm of A - nu pi1 - psi(Q), Q = (S - (n-1) nu g) / 6, for the
    curvature-class components ``A`` with Ricci trace S: 0 exactly when every
    antiholomorphic plane of an RK tensor has sectional curvature ``nu``.

    Every term of psi(Q)(X,Y,Y,X) carries a factor g(X,JY), g(X,JX) or g(Y,JY),
    which is 0 on an antiholomorphic plane, so at a zero defect every such plane
    reads nu.  Conversely an RK tensor of constant antiholomorphic sectional
    curvature nu is nu pi1 + psi(Q) with Q J-invariant and symmetric (Tricerri
    and Vanhecke, Trans. AMS 267, 1981).  Its Ricci trace is S = (n-1) nu g + 6 Q:
    two of the six terms of psi(Q) trace g(., J.) or Q(., J.), which are 0, and
    the other four give Q(X,U) once, twice, once and twice.
    """
    g, gi = point.g, point.g_inv
    Q = (_ricci(gi, A) - ((point.dim - 1) * nu) * g) / 6.0
    return _norm(gi, A - _phi_psi_sum(point, (0.5 * nu) * g, Q))


# ---------------------------------------------------------------------------
# model tensors and products
# ---------------------------------------------------------------------------

def space_form_tensor(point: HermitianPoint, c: float) -> CurvTensor:
    """Curvature of constant sectional curvature ``c``: c * pi1 = phi((c/2) g)."""
    Q = (0.5 * float(c)) * point.g
    return CurvTensor(point.dim, _phi_psi_sum(point, Q, np.zeros_like(Q)))


def complex_space_form_tensor(point: HermitianPoint, mu: float) -> CurvTensor:
    """Curvature of constant holomorphic sectional curvature ``mu``:
    (mu/4)(pi1 + pi2) = (phi + psi)((mu/8) g)."""
    Q = (float(mu) / 8.0) * point.g
    return CurvTensor(point.dim, _phi_psi_sum(point, Q, Q))


def _block_diagonal(blocks: Sequence[np.ndarray], b: int = 0) -> np.ndarray:
    """The block-diagonal array of ``blocks``, whose first ``b`` axes are batch axes,
    as every product assembles its fields and tensors: of the blocks' result type
    (a complex block keeps its imaginary part beside a real one) and in the memory
    order of the first block's axes (the one the chart suite's traces read fastest)."""
    rank, spans = blocks[0].ndim - b, _spans([B.shape[-1] for B in blocks])
    shape = blocks[0].shape[:b] + (spans[-1].stop,) * rank
    out = np.zeros_like(blocks[0], dtype=np.result_type(*blocks), shape=shape)
    for B, sl in zip(blocks, spans):
        out[(...,) + (sl,) * rank] = B
    return out


def _spans(sizes: list[int]) -> list[slice]:
    """The coordinates of each factor of a product whose factors have ``sizes``."""
    return [slice(e - size, e) for size, e in zip(sizes, np.cumsum(sizes))]


def rk_project(point: HermitianPoint, R: CurvTensor) -> CurvTensor:
    """Average ``R`` with its image under J-rotation of all four slots.

    The result is the nearest tensor invariant under that rotation; it stays
    curvature-class.
    """
    A = R.components
    return CurvTensor(point.dim, 0.5 * (A + _rotate(A, point.J, 0, 1, 2, 3)))


# ---------------------------------------------------------------------------
# seeded generators (scenario and test support)
# ---------------------------------------------------------------------------

def random_hermitian_point(dim: int, seed: int) -> HermitianPoint:
    """Seeded valid Hermitian point in non-orthonormal coordinates.

    Conjugating the flat data (identity metric, block J) by a random invertible
    matrix M gives g = M^-T M^-1 and J = M J0 M^-1, which satisfy every point
    invariant exactly.  Their rounding grows with cond M, which the determinant
    guard does not bound, but so do the magnitudes of g and J that scale the
    gates of :func:`point_violations`, so an ill-conditioned draw passes.
    """
    rng = np.random.default_rng(seed)
    while True:
        M = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
        if abs(np.linalg.det(M)) > 0.1:
            break
    M_inv = np.linalg.inv(M)
    g = M_inv.T @ M_inv
    return validate_point(0.5 * (g + g.T), M @ standard_J(dim) @ M_inv)


def random_curvature_tensor(dim: int, seed: int) -> CurvTensor:
    """Seeded random curvature-class tensor (no further structure).

    A raw random array is projected onto the curvature symmetry class:
    antisymmetrize both pairs, symmetrize the pair swap, then remove the
    totally antisymmetric (4-form) part, which is exactly the failure of the
    first Bianchi identity inside that symmetry class.
    """
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((dim,) * 4)
    T = 0.5 * (T - T.transpose(1, 0, 2, 3))
    T = 0.5 * (T - T.transpose(0, 1, 3, 2))
    T = 0.5 * (T + T.transpose(2, 3, 0, 1))
    bianchi_part = (T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3)) / 3.0
    return CurvTensor(dim, T - bianchi_part)
