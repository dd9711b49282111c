"""The two trace-corrected curvature tensors and one closed curvature form.

``generalized_bochner`` removes the Ricci and scalar parts of the
holomorphically symmetrized tensor; it vanishes exactly on products of two
spaces of opposite constant holomorphic sectional curvature.
``rk_bochner`` is the analogous five-term correction available once the
curvature is invariant under J-rotation of all four slots (dimension >= 6);
its vanishing forces the curvature to vanish on orthonormal 4-frames that
span antiholomorphic planes.  It vanishes on every tensor nu pi1 + psi(Q)
with Q J-invariant, which are the RK tensors of constant antiholomorphic
sectional curvature nu that ``curvature._ahsc_defect`` measures.
``nk_flat_form_3_4`` is the curvature of the non-Kahler constant-ratio case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import (
    HermitianPoint,
    _phi_psi_sum,
    _ricci,
    _rotate,
    _symmetrized,
    _trace,
    _traces,
    star,
)
from .multilinear import (
    TOL_ALG,
    CurvTensor,
    InputError,
    _bound,
    _check_same_dim,
    _frozen_array,
    invariant_norm,
    require_curvature_class,
)

__all__ = [
    "BochnerOutput",
    "DimensionTooSmallError",
    "NotRKError",
    "generalized_bochner",
    "rk_bochner",
    "nk_flat_form_3_4",
]

class DimensionTooSmallError(InputError):
    """The five-term corrected tensor needs m > 2 (denominators m-1, m-2)."""


class NotRKError(InputError):
    """Input curvature is not invariant under J-rotation of all four slots."""

    def __init__(self, defect: float, tol: float):
        super().__init__(f"curvature is not RK (defect {defect:.3e} above tolerance {tol:.1e})")
        self.defect = float(defect)


@dataclass(frozen=True, eq=False)
class BochnerOutput:
    """A trace-corrected curvature tensor with its invariant norm.

    ``coefficients_used`` records the scalar prefactors actually applied, so a
    report can show which correction weights produced the tensor.
    """

    tensor: CurvTensor
    norm: float
    coefficients_used: dict[str, float]


def generalized_bochner(
    point: HermitianPoint, R: CurvTensor, sym_tol: float = TOL_ALG
) -> BochnerOutput:
    """Trace-free part of the holomorphically symmetrized curvature.

    B* = R* - (phi + psi)(S*) / (2(m+2)) + tau* (pi1 + pi2) / (4(m+1)(m+2))

    Since pi1 = phi(g)/2 and pi2 = psi(g)/2, this is evaluated as the one
    fold B* = R* + (phi + psi)(Q) with Q = (c_scalar / 2) g - c_ricci S*,
    where c_ricci = 1/(2(m+2)) and c_scalar = tau*/(4(m+1)(m+2)).
    """
    _check_same_dim(point.dim, R.dim)
    m = point.m
    Rs = star(point, R, sym_tol).components
    gi = point.g_inv
    S_star = _symmetrized(_ricci(gi, Rs), sym_tol, "Ricci of R*")
    tau_star = float(_trace(gi, S_star))
    c_ricci = 1.0 / (2.0 * (m + 2))
    c_scalar = tau_star / (4.0 * (m + 1) * (m + 2))
    Q = (0.5 * c_scalar) * point.g - c_ricci * S_star
    B = CurvTensor(point.dim, Rs + _phi_psi_sum(point, Q, Q))
    return BochnerOutput(
        tensor=B,
        norm=invariant_norm(point, B),
        coefficients_used={"ricci_correction": c_ricci, "scalar_correction": c_scalar},
    )


def rk_bochner(
    point: HermitianPoint,
    R: CurvTensor,
    sym_tol: float = TOL_ALG,
    rk_tol: float = TOL_ALG,
) -> BochnerOutput:
    """Five-term trace-corrected curvature for RK tensors, dimension >= 6.

    B = R - (phi + psi)(S + 3S') / (8(m+2)) - (3 phi - psi)(S - S') / (8(m-2))
          + (tau + 3 tau')(pi1 + pi2) / (16(m+1)(m+2))
          + (tau - tau')(3 pi1 - pi2) / (16(m-1)(m-2))

    With c1..c4 the four prefactors above, Sa = S + 3S', Sb = S - S' and
    pi1 = phi(g)/2, pi2 = psi(g)/2, the five terms fold by linearity into

        B = R + phi(Q1) + psi(Q2),
        Q1 = (c3 + 3 c4)/2 g - c1 Sa - 3 c2 Sb,
        Q2 = (c3 - c4)/2 g - c1 Sa + c2 Sb,

    which is how it is evaluated.

    Refuses input that is not curvature-class within max(``sym_tol``, ``rk_tol``),
    or not RK within ``rk_tol``, both relative to max|R|
    (:func:`~bochnerkit.multilinear._bound`); within them the J-twisted trace is
    symmetrized.
    """
    _check_same_dim(point.dim, R.dim)
    m = point.m
    if m <= 2:
        raise DimensionTooSmallError(
            f"the corrected tensor requires dimension >= 6, got {point.dim}"
        )
    require_curvature_class(R, max(sym_tol, rk_tol), "rk_bochner()")
    A, J = R.components, point.J
    S, Sp, tau, tau_p, P = _traces(point.g_inv, J, A)
    rk_defect = float(np.max(np.abs(A - _rotate(P, J, 0, 1))))
    rk_bound = _bound(rk_tol, float(np.max(np.abs(A))))
    if rk_defect > rk_bound:
        raise NotRKError(rk_defect, rk_bound)

    S, Sp = 0.5 * (S + S.T), 0.5 * (Sp + Sp.T)
    Sa, Sb = S + 3.0 * Sp, S - Sp
    c1 = 1.0 / (8.0 * (m + 2))
    c2 = 1.0 / (8.0 * (m - 2))
    c3 = float(tau + 3.0 * tau_p) / (16.0 * (m + 1) * (m + 2))
    c4 = float(tau - tau_p) / (16.0 * (m - 1) * (m - 2))
    g = point.g
    Q1 = (0.5 * (c3 + 3.0 * c4)) * g - c1 * Sa - (3.0 * c2) * Sb
    Q2 = (0.5 * (c3 - c4)) * g - c1 * Sa + c2 * Sb
    B = CurvTensor(point.dim, A + _phi_psi_sum(point, Q1, Q2))
    return BochnerOutput(
        tensor=B,
        norm=invariant_norm(point, B),
        coefficients_used={
            "sum_correction": c1,
            "difference_correction": c2,
            "scalar_sum_correction": c3,
            "scalar_difference_correction": c4,
        },
    )


def nk_flat_form_3_4(point: HermitianPoint, S: np.ndarray, tau: float) -> CurvTensor:
    """Closed curvature form of the non-Kahler constant-ratio case (m > 2).

    R = (phi + psi)(S) / (2(m+2)) - (4m+3) tau (pi1 + pi2) / (10 m (m+1)(m+2))
        + tau (3 pi1 - pi2) / (20 m (m-1))

    Evaluated as phi(Q1) + psi(Q2), Q1 = a S + (3c - b)/2 g and
    Q2 = a S - (b + c)/2 g, with a, b and c the three prefactors above.  ``S``
    must be symmetric to ``TOL_ALG`` relative to max|S|; otherwise this raises
    :class:`SymmetryError`.
    """
    S = _symmetrized(_frozen_array(S, point.g.shape, "nk_flat_form_3_4() S"), TOL_ALG, "S")
    m = point.m
    if m <= 2:
        raise DimensionTooSmallError(f"the closed form requires dimension >= 6, got {point.dim}")
    a = 1.0 / (2.0 * (m + 2))
    b = (4.0 * m + 3.0) * tau / (10.0 * m * (m + 1) * (m + 2))
    c = tau / (20.0 * m * (m - 1))
    aS, g = a * S, point.g
    return CurvTensor(
        point.dim,
        _phi_psi_sum(point, aS + (0.5 * (3.0 * c - b)) * g, aS - (0.5 * (b + c)) * g),
    )

