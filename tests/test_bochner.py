"""The two trace-corrected tensors, the closed forms, and frame sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochnerkit import multilinear
from bochnerkit.bochner import (
    DimensionTooSmallError,
    NotRKError,
    generalized_bochner,
    nk_flat_form_3_4,
    rk_bochner,
)
from bochnerkit.curvature import (
    _phi_psi_sum,
    complex_space_form_tensor,
    flat_point,
    random_curvature_tensor,
    random_hermitian_point,
    ricci_family,
    rk_project,
    space_form_tensor,
    star,
)
from bochnerkit.multilinear import (
    TOL_ALG,
    CurvTensor,
    SymmetryError,
    _norm,
    invariant_norm,
)
from bochnerkit.scenarios import _csf_spec, make_model
from frames import antiholomorphic_frames


# ---------------------------------------------------------------------------
# generalized (trace-free symmetrized) tensor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_bstar_vanishes_on_constant_hsc(m):
    point = flat_point(2 * m)
    out = generalized_bochner(point, complex_space_form_tensor(point, 1.0))
    assert out.norm < TOL_ALG


@pytest.mark.parametrize("split", [(1, 3), (2, 2), (2, 3)])
def test_bstar_vanishes_on_opposite_products(split):
    k, mk = split
    point, R, _ = make_model(_csf_spec([(k, 1.0), (mk, -1.0)]))
    assert generalized_bochner(point, R).norm < TOL_ALG


def test_bstar_nonzero_on_equal_sign_product():
    point, R, _ = make_model(_csf_spec([(1, 1.0), (3, 1.0)]))
    out = generalized_bochner(point, R)
    assert out.norm > 1e-2
    # uniqueness route: a mixed component of the closed form is nonzero
    # while the product curvature vanishes there, so the difference survives
    e = np.eye(8)
    assert abs(out.tensor(e[0], e[2], e[2], e[0])) > 1e-3


def test_bstar_output_curvature_class_and_coefficients():
    point = flat_point(6)
    R = rk_project(point, random_curvature_tensor(6, 3))
    out = generalized_bochner(point, R)
    assert out.tensor.symmetry_defect < 1e-10
    assert set(out.coefficients_used) == {"ricci_correction", "scalar_correction"}
    assert out.coefficients_used["ricci_correction"] == pytest.approx(1.0 / 10.0)


def test_bstar_ricci_trace_free_on_models():
    for m in (2, 3, 4):
        point = flat_point(2 * m)
        out = generalized_bochner(point, complex_space_form_tensor(point, 1.0))
        S = np.einsum("bc,abcd->ad", point.g_inv, out.tensor.components)
        assert np.max(np.abs(S)) < 1e-10


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=15, deadline=None)
def test_bstar_linear_in_curvature(a, b):
    point = flat_point(4)
    R1 = random_curvature_tensor(4, 61)
    R2 = random_curvature_tensor(4, 62)
    combo = CurvTensor(4, a * R1.components + b * R2.components)
    lhs = generalized_bochner(point, combo).tensor.components
    rhs = (
        a * generalized_bochner(point, R1).tensor.components
        + b * generalized_bochner(point, R2).tensor.components
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-9


# ---------------------------------------------------------------------------
# the closed form and reconstruction
# ---------------------------------------------------------------------------

def test_rhs_2_1_reproduces_constant_hsc_star(ref_rhs_2_1):
    point = flat_point(6)
    R = complex_space_form_tensor(point, 1.5)
    fam = ricci_family(point, R)
    closed = ref_rhs_2_1(point, fam.S_star, fam.tau_star)
    assert _norm(point.g_inv, closed - star(point, R).components) < 10 * TOL_ALG


@pytest.mark.parametrize("seed", range(20))
def test_reconstruction_identity(seed, ref_rhs_2_1):
    """star(R) = B* + closed form, for arbitrary curvature-class input."""
    point = flat_point(6)
    R = random_curvature_tensor(6, seed)
    Rs = star(point, R)
    out = generalized_bochner(point, R)
    gi = point.g_inv
    S_star = np.einsum("bc,abcd->ad", gi, Rs.components)
    S_star = 0.5 * (S_star + S_star.T)
    tau_star = float(np.einsum("ad,ad->", gi, S_star))
    closed = ref_rhs_2_1(point, S_star, tau_star)
    assert _norm(gi, Rs.components - (out.tensor.components + closed)) < TOL_ALG


def test_rhs_2_1_differs_by_bstar_when_nonzero(ref_rhs_2_1):
    point = flat_point(6)
    R = random_curvature_tensor(6, 77)
    out = generalized_bochner(point, R)
    assert out.norm > 1e-3  # generic input is not trace-free
    fam_star = star(point, R)
    gi = point.g_inv
    S_star = np.einsum("bc,abcd->ad", gi, fam_star.components)
    S_star = 0.5 * (S_star + S_star.T)
    tau_star = float(np.einsum("ad,ad->", gi, S_star))
    closed = ref_rhs_2_1(point, S_star, tau_star)
    assert _norm(gi, fam_star.components - closed) == pytest.approx(out.norm, rel=1e-9)


# ---------------------------------------------------------------------------
# the RK corrected tensor
# ---------------------------------------------------------------------------

def test_b_vanishes_on_six_sphere_model():
    """Coefficient cancellation: with S = 5c g, S' = c g, tau = 30c,
    tau' = 6c both generator weights cancel exactly."""
    point = flat_point(6)
    out = rk_bochner(point, space_form_tensor(point, 1.0))
    assert out.norm < TOL_ALG


@pytest.mark.parametrize("m", [3, 4, 5])
def test_b_vanishes_on_constant_hsc(m):
    point = flat_point(2 * m)
    out = rk_bochner(point, complex_space_form_tensor(point, 1.0))
    assert out.norm < TOL_ALG


def test_b_vanishes_on_line_times_sphere():
    point, R, _ = make_model("PRODUCT(CD(1,-1),S6(1))")
    assert rk_bochner(point, R).norm < TOL_ALG


def test_b_nonzero_on_plane_times_sphere():
    point, R, _ = make_model("PRODUCT(CD(2,-1),S6(1))")
    out = rk_bochner(point, R)
    assert out.norm > 1e-3
    # frozen spot value: the antiholomorphic sphere-block component is c/8
    e = np.eye(10)
    assert out.tensor(e[4], e[6], e[6], e[4]) == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_b_traces_vanish_on_models():
    """The correction terms kill every trace: S, S', tau, tau', tau* of the
    output all vanish on constant-HSC and product models."""
    cases = []
    p6 = flat_point(6)
    cases.append((p6, complex_space_form_tensor(p6, 1.0)))
    cases.append((p6, space_form_tensor(p6, 1.0)))
    cases.append(make_model("PRODUCT(CD(1,-1),S6(1))")[:2])
    for point, R in cases:
        out = rk_bochner(point, R)
        fam = ricci_family(point, out.tensor)
        assert _norm(point.g_inv, fam.S) < 1e-10
        assert _norm(point.g_inv, fam.S_prime) < 1e-10
        assert abs(fam.tau) < 1e-10 and abs(fam.tau_prime) < 1e-10 and abs(fam.tau_star) < 1e-10


def test_b_requires_dimension_six():
    point = flat_point(4)
    with pytest.raises(DimensionTooSmallError):
        rk_bochner(point, complex_space_form_tensor(point, 1.0))


def test_b_refuses_non_rk_input():
    point = flat_point(6)
    R = random_curvature_tensor(6, 5)
    with pytest.raises(NotRKError) as err:
        rk_bochner(point, R)
    assert err.value.defect > 0.1


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=15, deadline=None)
def test_b_linear_on_rk_tensors(a, b):
    point = flat_point(6)
    R1 = rk_project(point, random_curvature_tensor(6, 71))
    R2 = rk_project(point, random_curvature_tensor(6, 72))
    combo = CurvTensor(6, a * R1.components + b * R2.components)
    lhs = rk_bochner(point, combo).tensor.components
    rhs = (
        a * rk_bochner(point, R1).tensor.components
        + b * rk_bochner(point, R2).tensor.components
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-8


# ---------------------------------------------------------------------------
# the closed flat form
# ---------------------------------------------------------------------------

def test_flat_form_reproduces_sphere_tensor():
    """Coefficient arithmetic at m = 3 with S = 5c g, tau = 30c:
    c(pi1+pi2) - 0.75 c(pi1+pi2) + 0.25 c(3 pi1 - pi2) = c pi1."""
    point = flat_point(6)
    c = 1.25
    form = nk_flat_form_3_4(point, 5.0 * c * point.g, 30.0 * c)
    pi1, _ = _pi(point)
    assert _norm(point.g_inv, form.components - c * pi1) < 10 * TOL_ALG


def test_flat_form_zero():
    point = flat_point(6)
    assert not np.any(nk_flat_form_3_4(point, np.zeros((6, 6)), 0.0).components)


def test_flat_form_consistency_with_vanishing_b():
    """For the sphere model the corrected tensor vanishes, the Ricci
    difference is a metric multiple, the scalar ratio is 5:1, and the closed
    form reconstructs the curvature."""
    point = flat_point(6)
    c = 0.7
    R = space_form_tensor(point, c)
    fam = ricci_family(point, R)
    assert rk_bochner(point, R).norm < TOL_ALG
    assert abs(fam.tau - 5.0 * fam.tau_prime) < 1e-12
    form = nk_flat_form_3_4(point, fam.S, fam.tau)
    assert invariant_norm(point, form - R) < 10 * TOL_ALG


def test_flat_form_requires_dimension_six():
    point = flat_point(4)
    with pytest.raises(DimensionTooSmallError):
        nk_flat_form_3_4(point, np.zeros((4, 4)), 0.0)


def test_flat_form_rejects_asymmetric_S():
    """The one public function that takes a form from its caller checks that it
    is symmetric."""
    S = 5.0 * np.eye(6)
    S[0, 1] += 1e-6
    with pytest.raises(SymmetryError) as err:
        nk_flat_form_3_4(flat_point(6), S, 30.0)
    assert err.value.defect == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# antiholomorphic 4-frames
# ---------------------------------------------------------------------------

def test_frame_sampler_constraints():
    """Every frame of a 2048-frame batch is orthonormal and J-orthogonal, in
    flat and in non-orthonormal coordinates."""
    for n in (8, 10, 12):
        for point in (flat_point(n), random_hermitian_point(n, seed=n)):
            frames = antiholomorphic_frames(point, np.random.default_rng(n), 2048, 4)
            assert frames.shape == (2048, 4, n)
            Fg = frames @ point.g
            gram = Fg @ np.swapaxes(frames, 1, 2)
            pairing = Fg @ np.swapaxes(frames @ point.J.T, 1, 2)
            assert np.max(np.abs(gram - np.eye(4))) < 1e-12
            assert np.max(np.abs(pairing)) < 1e-12


def _counterexample():
    return make_model("PRODUCT(CD(2,-1),S6(1))")[:2]


def _frame_max(point, R, samples, seed):
    """Largest |R(x, y, z, u)| over sampled orthonormal antiholomorphic 4-frames."""
    F = antiholomorphic_frames(point, np.random.default_rng(seed), samples, 4)
    values = np.einsum("ijkl,si,sj,sk,sl->s", R.components, *F.transpose(1, 0, 2))
    return float(np.max(np.abs(values)))


def test_antiholo_defect_matches_the_one_vector_sampler():
    """The value the one-vector-at-a-time rejection sampler gave on the
    counterexample at seed 7 and 512 samples; the batched sampler draws the
    same normals and differs only by rounding."""
    point, R = _counterexample()
    assert _frame_max(point, R, 512, 7) == pytest.approx(0.14469212651426933, rel=1e-12)


def test_antiholo_defect_vanishes_on_constant_hsc_dim8():
    """Both universal generators vanish on fully orthogonal antiholomorphic
    frames, so the constant-HSC tensor reports zero."""
    point = flat_point(8)
    R = complex_space_form_tensor(point, 1.0)
    assert _frame_max(point, R, 64, 1) < 1e-12


def test_antiholo_defect_vanishes_on_line_times_sphere():
    """Necessary condition: the corrected tensor vanishes on this product, so
    sampled frames must report zero curvature."""
    point, R, _ = make_model("PRODUCT(CD(1,-1),S6(1))")
    assert rk_bochner(point, R).norm < TOL_ALG
    assert _frame_max(point, R, 128, 2) < 1e-10


def test_antiholo_defect_positive_on_counterexample():
    point, R = _counterexample()
    assert _frame_max(point, R, 256, 3) > 1e-3


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_antiholo_defect_never_exceeds_the_witness(c):
    """3c/16, the value of the scenario's witness frame, is the largest |R| on
    orthonormal antiholomorphic 4-frames of PRODUCT(CD(2,-c),S6(c)) that a
    maximization finds; no sampled frame reads more."""
    point, R, _ = make_model(f"PRODUCT(CD(2,{-c!r}),S6({c!r}))")
    for seed in range(3):
        assert _frame_max(point, R, 4096, seed) <= 3 * c / 16 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the folded corrected tensors against their term-by-term formulas
# ---------------------------------------------------------------------------

def _phi_psi(point, Q):
    """phi(Q) and psi(Q) for the component array Q, each from its own ``_phi_psi_sum``."""
    zero = np.zeros_like(Q)
    return _phi_psi_sum(point, Q, zero), _phi_psi_sum(point, zero, Q)


def _pi(point):
    """pi1 = phi(g)/2 and pi2 = psi(g)/2, the universal curvature-class arrays."""
    return _phi_psi(point, 0.5 * point.g)


def _ref_generalized(point, R):
    """B* = R* - (phi + psi)(S*) / (2(m+2)) + tau* (pi1 + pi2) / (4(m+1)(m+2)), term by term."""
    m = point.m
    fam = ricci_family(point, R)
    phi, psi = _phi_psi(point, fam.S_star)
    pi1, pi2 = _pi(point)
    c_ricci = 1.0 / (2.0 * (m + 2))
    c_scalar = fam.tau_star / (4.0 * (m + 1) * (m + 2))
    B = star(point, R).components - c_ricci * (phi + psi) + c_scalar * (pi1 + pi2)
    return B, {"ricci_correction": c_ricci, "scalar_correction": c_scalar}


def _ref_rk(point, R):
    """The five-term formula of ``rk_bochner``, term by term; the J-twisted
    trace is symmetrized whatever its asymmetry, as ``rk_bochner`` does within
    its ``rk_tol``."""
    m = point.m
    fam = ricci_family(point, R, sym_tol=np.inf)
    S, Sp = fam.S, fam.S_prime
    phi_a, psi_a = _phi_psi(point, S + 3.0 * Sp)
    phi_b, psi_b = _phi_psi(point, S - Sp)
    pi1, pi2 = _pi(point)
    c1 = 1.0 / (8.0 * (m + 2))
    c2 = 1.0 / (8.0 * (m - 2))
    c3 = float(fam.tau + 3.0 * fam.tau_prime) / (16.0 * (m + 1) * (m + 2))
    c4 = float(fam.tau - fam.tau_prime) / (16.0 * (m - 1) * (m - 2))
    B = (
        R.components
        - c1 * (phi_a + psi_a)
        - c2 * (3.0 * phi_b - psi_b)
        + c3 * (pi1 + pi2)
        + c4 * (3.0 * pi1 - pi2)
    )
    coefficients = {
        "sum_correction": c1,
        "difference_correction": c2,
        "scalar_sum_correction": c3,
        "scalar_difference_correction": c4,
    }
    return B, coefficients


def _ref_flat_form(point, S, tau):
    m = point.m
    phi, psi = _phi_psi(point, S)
    pi1, pi2 = _pi(point)
    return (
        (1.0 / (2.0 * (m + 2))) * (phi + psi)
        - ((4.0 * m + 3.0) * tau / (10.0 * m * (m + 1) * (m + 2))) * (pi1 + pi2)
        + (tau / (20.0 * m * (m - 1))) * (3.0 * pi1 - pi2)
    )


def _kappa(point, R):
    """Largest term a J-rotation of all four slots of R can produce: the scale of
    the rounding that separates a fold from its term-by-term formula."""
    return np.max(np.abs(R.components)) * max(1.0, float(np.max(np.abs(point.J)))) ** 4


def _assert_folds_match(point, R, rk_input=True):
    bound = 1e-13 * _kappa(point, R)

    def close(a, b):
        assert np.max(np.abs(a.components - b)) <= bound

    if rk_input:
        out = generalized_bochner(point, R)
        ref, coefficients = _ref_generalized(point, R)
        close(out.tensor, ref)
        assert out.coefficients_used == coefficients
    if point.m > 2:
        # off the RK domain, an unbounded rk_tol lets the formula run
        out = rk_bochner(point, R) if rk_input else rk_bochner(point, R, rk_tol=np.inf)
        ref, coefficients = _ref_rk(point, R)
        close(out.tensor, ref)
        assert out.coefficients_used == coefficients
        fam = ricci_family(point, R, sym_tol=np.inf)
        close(nk_flat_form_3_4(point, fam.S, fam.tau), _ref_flat_form(point, fam.S, fam.tau))
    pi1, pi2 = _pi(point)
    for c in (1.0, -0.7, 2.5):
        close(space_form_tensor(point, c), c * pi1)
        close(complex_space_form_tensor(point, c), (c / 4.0) * (pi1 + pi2))


@pytest.mark.parametrize("n", [6, 8, 10, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_folded_tensors_match_term_by_term_formulas(n, seed):
    """Each folded R + phi(Q1) + psi(Q2) is its term-by-term formula, up to
    rounding, at a seeded non-orthonormal point with RK input."""
    point = random_hermitian_point(n, seed)
    _assert_folds_match(point, rk_project(point, random_curvature_tensor(n, seed)))


def test_folded_rk_bochner_matches_off_domain():
    """Off the RK domain (``rk_tol`` unbounded) the folded form is still the
    five-term formula."""
    point = random_hermitian_point(8, 5)
    _assert_folds_match(point, random_curvature_tensor(8, 5), rk_input=False)


@pytest.mark.parametrize(
    "desc",
    [
        "CE(3)",
        "S6(1)",
        "S6(2.5)",
        "CP(3,1)",
        "CD(4,-1)",
        "CP(6,2)",
        "PRODUCT(CD(1,-1),S6(1))",
        "PRODUCT(CD(2,-1),S6(1))",
        "PRODUCT(CD(1,-1),CP(2,1))",
        "PRODUCT(CD(2,-1),CP(4,1))",
        "PRODUCT(CP(1,1),CD(1,-1),CP(2,2))",
    ],
)
def test_folded_tensors_match_term_by_term_formulas_on_models(desc):
    point, R, _ = make_model(desc)
    _assert_folds_match(point, R)


@pytest.fixture
def construction_count(monkeypatch):
    """Counts CurvTensor constructions: each copies and finiteness-checks n^4 floats."""
    count = [0]
    post_init = multilinear.CurvTensor.__post_init__

    def counted(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(multilinear.CurvTensor, "__post_init__", counted)
    return count


def test_corrected_tensors_build_one_tensor_each(construction_count):
    """The corrections fold into one phi/psi pass: rk_bochner builds only B,
    generalized_bochner only R* and B*, each model constructor one tensor."""
    point, R, _ = make_model("CP(4,1)")
    for call, expected in (
        (lambda: rk_bochner(point, R), 1),
        (lambda: generalized_bochner(point, R), 2),
        (lambda: space_form_tensor(point, 1.0), 1),
        (lambda: complex_space_form_tensor(point, 1.0), 1),
    ):
        construction_count[0] = 0
        call()
        assert construction_count[0] == expected
