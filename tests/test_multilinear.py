"""Tensor storage, invariant norms, and symmetry diagnostics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochnerkit.curvature import (
    _phi_psi_sum,
    flat_point,
    random_curvature_tensor,
    ricci_family,
    space_form_tensor,
    star,
    validate_point,
)
from bochnerkit.multilinear import (
    TOL_ALG,
    CurvTensor,
    DimensionMismatchError,
    NonFiniteError,
    SymmetryError,
    _norm,
    invariant_norm,
    require_curvature_class,
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_curvtensor_rejects_odd_dim():
    with pytest.raises(DimensionMismatchError):
        CurvTensor(3, np.zeros((3, 3, 3, 3)))


def test_curvtensor_rejects_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        CurvTensor(4, np.zeros((4, 4, 4)))


def test_curvtensor_rejects_nan():
    bad = np.zeros((4,) * 4)
    bad[0, 1, 1, 0] = np.nan
    with pytest.raises(NonFiniteError):
        CurvTensor(4, bad)


def _pi(point):
    """pi1 = phi(g)/2 and pi2 = psi(g)/2, the universal curvature-class tensors."""
    half_g, zero = 0.5 * point.g, np.zeros_like(point.g)
    return (CurvTensor(point.dim, _phi_psi_sum(point, half_g, zero)),
            CurvTensor(point.dim, _phi_psi_sum(point, zero, half_g)))


def test_components_are_read_only(flat4):
    """A tensor's components, a point's g, J and g_inv, and the three Ricci
    forms are read-only arrays."""
    pi1, _ = _pi(flat4)
    fam = ricci_family(flat4, pi1)
    arrays = (pi1.components, flat4.g, flat4.J, flat4.g_inv, fam.S, fam.S_prime, fam.S_star)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


# ---------------------------------------------------------------------------
# invariant norm
# ---------------------------------------------------------------------------

def _norm_oracle_pi1(dim):
    # explicit double loop over an orthonormal frame:
    # |pi1|^2 = sum_{ij} (<e_i,e_i><e_j,e_j> - <e_i,e_j>^2)^2 summed with
    # multiplicity 2 over the (ij),(ji) slots of each nonzero component
    g = np.eye(dim)
    total = 0.0
    for i in range(dim):
        for j in range(dim):
            total += 2.0 * (g[i, i] * g[j, j] - g[i, j] ** 2) ** 2
    return np.sqrt(total)


def test_invariant_norm_zero(flat4):
    assert invariant_norm(flat4, CurvTensor.zero(4)) == 0.0
    assert _norm(flat4.g_inv, np.zeros((4, 4))) == 0.0


def test_invariant_norm_pi1_flat_dim4(flat4):
    pi1 = space_form_tensor(flat4, 1.0)
    expected = _norm_oracle_pi1(4)
    assert expected == pytest.approx(np.sqrt(24.0), abs=1e-15)
    assert invariant_norm(flat4, pi1) == pytest.approx(expected, abs=1e-12)


def test_desk_scale_maximum_dimension():
    """dim 12 is the stated desk-scale ceiling; everything stays exact there."""
    point = flat_point(12)
    pi1, pi2 = _pi(point)
    assert pi1.symmetry_defect == 0.0
    assert pi2.symmetry_defect == 0.0
    assert invariant_norm(point, pi1) == pytest.approx(_norm_oracle_pi1(12), abs=1e-11)
    out = star(point, random_curvature_tensor(12, seed=1))
    assert out.symmetry_defect < TOL_ALG


@given(c=st.floats(-1e3, 1e3, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_invariant_norm_homogeneous(c):
    point = flat_point(4)
    pi1 = space_form_tensor(point, 1.0)
    assert invariant_norm(point, CurvTensor(4, c * pi1.components)) == pytest.approx(
        abs(c) * invariant_norm(point, pi1), rel=1e-12, abs=1e-12
    )


@given(seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_invariant_norm_frame_independent(seed):
    """Pulling back a rank-4 or a rank-2 tensor and the metric through any basis
    change preserves the norm."""
    dim = 4
    point = flat_point(dim)
    T = random_curvature_tensor(dim, seed)
    rng = np.random.default_rng(seed + 1)
    while True:
        M = np.eye(dim) + 0.4 * rng.standard_normal((dim, dim))
        if np.linalg.cond(M) < 20.0:  # keep roundoff amplification bounded
            break
    g2 = M.T @ point.g @ M
    J2 = np.linalg.solve(M, point.J @ M)
    point2 = validate_point(0.5 * (g2 + g2.T), J2)
    T2 = CurvTensor(dim, np.einsum("pqrs,pi,qj,rk,sl->ijkl", T.components, M, M, M, M))
    assert invariant_norm(point2, T2) == pytest.approx(
        invariant_norm(point, T), rel=1e-9
    )
    Q = rng.standard_normal((dim, dim))
    Q = Q + Q.T
    Q2 = M.T @ Q @ M
    Q2 = 0.5 * (Q2 + Q2.T)
    assert _norm(point2.g_inv, Q2) == pytest.approx(_norm(point.g_inv, Q), rel=1e-9)


def test_invariant_norm_positive_definite(flat4):
    T = random_curvature_tensor(4, seed=5)
    max_abs = np.max(np.abs(T.components))
    assert max_abs > 100 * TOL_ALG
    assert invariant_norm(flat4, T) > 0.0
    tiny = CurvTensor(4, 1e-14 * T.components / max_abs)
    assert invariant_norm(flat4, tiny) < 4**2 * TOL_ALG


def test_invariant_norm_dimension_mismatch(flat4):
    with pytest.raises(DimensionMismatchError):
        invariant_norm(flat4, CurvTensor.zero(6))


def test_invariant_norm_refuses_a_raw_array(flat4):
    """The type is checked before the dimension, which a raw array does not carry."""
    with pytest.raises(TypeError, match="unsupported tensor type ndarray"):
        invariant_norm(flat4, np.zeros((4,) * 4))


# ---------------------------------------------------------------------------
# symmetry diagnostics
# ---------------------------------------------------------------------------

def test_defects_vanish_on_pi1(flat6):
    for T in _pi(flat6):
        assert T.symmetry_defect == 0.0


def test_defects_detect_constructed_violation():
    T = np.zeros((4,) * 4)
    T[0, 1, 0, 1] = 1.0  # lone entry breaks both antisymmetries and first Bianchi
    assert CurvTensor(4, T).symmetry_defect == 1.0
    # a 4-form keeps both antisymmetries and the pair swap; only its cyclic sum, 3x, is left
    form = np.zeros((4,) * 4)
    for perm in itertools.permutations(range(4)):
        form[perm] = np.linalg.det(np.eye(4)[list(perm)])
    assert CurvTensor(4, form).symmetry_defect == pytest.approx(3.0, abs=1e-15)


def test_star_output_is_curvature_class(flat6):
    for seed in range(5):
        R = random_curvature_tensor(6, seed)
        out = star(flat6, R)
        assert out.symmetry_defect < TOL_ALG


def test_require_curvature_class_raises():
    T = np.zeros((4,) * 4)
    T[0, 1, 0, 1] = 1.0
    with pytest.raises(SymmetryError) as err:
        require_curvature_class(CurvTensor(4, T))
    assert err.value.defect > 0.5
