"""Pointwise curvature constructions against independent loop-based oracles."""

import functools
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochnerkit import bochner, charts, curvature
from bochnerkit.curvature import (
    PointValidationError,
    _ahsc_defect,
    _block_diagonal,
    _g_inv,
    _phi_psi_sum,
    _ricci_identities,
    _rotate,
    _traces,
    complex_space_form_tensor,
    flat_point,
    point_violations,
    random_curvature_tensor,
    random_hermitian_point,
    ricci_family,
    rk_project,
    space_form_tensor,
    standard_J,
    star,
    validate_point,
)
from bochnerkit.multilinear import (
    TOL_ALG,
    CurvTensor,
    SymmetryError,
    _norm,
    invariant_norm,
)
from bochnerkit.scenarios import make_model, run_scenario
from bochnerkit.serialization import TensorDocument, dump_tensor, load_tensor
from frames import antiholomorphic_frames


# ---------------------------------------------------------------------------
# oracles: direct vector-argument evaluation of every displayed formula
# ---------------------------------------------------------------------------

def _ev(T, *vectors):
    """Evaluate a CurvTensor or raw array on explicit vectors."""
    A = T.components if isinstance(T, CurvTensor) else T
    letters = "ijkl"[: len(vectors)]
    return float(np.einsum(f"{letters}," + ",".join(letters) + "->", A, *vectors))


def _phi_psi(point, Q):
    """phi(Q) and psi(Q) for the component array Q, each from its own ``_phi_psi_sum``."""
    zero = np.zeros_like(Q)
    return _phi_psi_sum(point, Q, zero), _phi_psi_sum(point, zero, Q)


def _pi(point):
    """pi1 = phi(g)/2 and pi2 = psi(g)/2, the universal curvature-class arrays."""
    return _phi_psi(point, 0.5 * point.g)


def _oracle_pi2(point, X, Y, Z, U):
    g, J = point.g, point.J
    gv = lambda a, b: float(a @ g @ b)
    return gv(X, J @ U) * gv(Y, J @ Z) - gv(X, J @ Z) * gv(Y, J @ U) - 2 * gv(X, J @ Y) * gv(Z, J @ U)


def _oracle_phi(point, Q, X, Y, Z, U):
    g = point.g
    gv = lambda a, b: float(a @ g @ b)
    qv = lambda a, b: float(a @ Q @ b)
    return gv(X, U) * qv(Y, Z) - gv(X, Z) * qv(Y, U) + gv(Y, Z) * qv(X, U) - gv(Y, U) * qv(X, Z)


def _oracle_psi(point, Q, X, Y, Z, U):
    g, J = point.g, point.J
    gv = lambda a, b: float(a @ g @ b)
    qv = lambda a, b: float(a @ Q @ b)
    return (
        gv(X, J @ U) * qv(Y, J @ Z)
        - gv(X, J @ Z) * qv(Y, J @ U)
        - 2 * gv(X, J @ Y) * qv(Z, J @ U)
        + gv(Y, J @ Z) * qv(X, J @ U)
        - gv(Y, J @ U) * qv(X, J @ Z)
        - 2 * gv(Z, J @ U) * qv(X, J @ Y)
    )


def _oracle_star(point, R, X, Y, Z, U):
    """The full twelve-term expansion evaluated on explicit vectors."""
    J = point.J
    r = lambda a, b, c, d: _ev(R, a, b, c, d)
    JX, JY, JZ, JU = J @ X, J @ Y, J @ Z, J @ U
    main = r(X, Y, Z, U) + r(X, Y, JZ, JU) + r(JX, JY, Z, U) + r(JX, JY, JZ, JU)
    tail = (
        r(JX, JZ, Y, U) - r(JY, JZ, X, U)
        + r(X, Z, JY, JU) - r(Y, Z, JX, JU)
        + r(Y, JZ, JX, U) - r(X, JZ, JY, U)
        + r(JY, Z, X, JU) - r(JX, Z, Y, JU)
    )
    return (3.0 / 16.0) * main + (1.0 / 16.0) * tail


def _frame_ricci_oracle(point, R, frame):
    """S, S', tau, tau' by literal summation over the rows of an orthonormal ``frame``."""
    n = point.dim
    J = point.J
    S = np.zeros((n, n))
    Sp = np.zeros((n, n))
    basis = np.eye(n)
    for a in range(n):
        for b in range(n):
            for E in frame:
                S[a, b] += _ev(R, basis[a], E, E, basis[b])
                Sp[a, b] += _ev(R, basis[a], E, J @ E, J @ basis[b])
    tau = sum(_ev_bilinear(point, S, E, E) for E in frame)
    tau_p = sum(_ev_bilinear(point, Sp, E, E) for E in frame)
    return S, Sp, tau, tau_p


def _ev_bilinear(point, Q, X, Y):
    return float(X @ Q @ Y)


# ---------------------------------------------------------------------------
# validate_point
# ---------------------------------------------------------------------------

def test_validate_point_standard_flat_dim6():
    point = validate_point(np.eye(6), standard_J(6))
    assert point.dim == 6 and point.m == 3


def test_validate_point_rejects_identity_J():
    with pytest.raises(PointValidationError) as err:
        validate_point(np.eye(4), np.eye(4))
    names = [v.invariant for v in err.value.violations]
    assert any("J squares" in n for n in names)


def test_validate_point_incompatible_metric_defect_one():
    g = np.diag([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    violations = point_violations(g, standard_J(6))
    compat = [v for v in violations if "compatibility" in v.invariant]
    assert len(compat) == 1
    # oracle: (J^T g J - g) has extreme entries (g22 - g11) = +-1
    assert compat[0].defect == pytest.approx(1.0, abs=1e-15)


def test_validate_point_rejects_odd_dimension():
    g = np.eye(5)
    J = np.zeros((5, 5))
    with pytest.raises(PointValidationError) as err:
        validate_point(g, J)
    assert any("even dimension" in v.invariant for v in err.value.violations)


def test_validate_point_rejects_indefinite_metric():
    g = np.diag([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(PointValidationError) as err:
        validate_point(g, standard_J(4))
    assert any("positive definite" in v.invariant for v in err.value.violations)


@pytest.mark.parametrize("seed", [260, 678, 1434, 2027])
def test_random_hermitian_point_keeps_an_ill_conditioned_frame(seed):
    """These seeds draw a frame with cond M of 300 to 800, whose compatibility
    defect (up to 1.3e-7) an absolute check would refuse; relative to
    max|g| max|J|^2 it is rounding, and the point is kept."""
    point = random_hermitian_point(12, seed)
    assert np.linalg.cond(point.g) > 1e4
    assert point_violations(point.g, point.J) == []


def test_every_random_hermitian_point_passes_the_default_checks():
    """The generator's points meet the default gates at every dimension."""
    for n in range(2, 13, 2):
        for seed in range(200):
            point = random_hermitian_point(n, seed)
            validate_point(point.g, point.J)


# ---------------------------------------------------------------------------
# the universal tensors pi1 and pi2
# ---------------------------------------------------------------------------

def test_pi1_orthonormal_plane(flat6):
    pi1, _ = _pi(flat6)
    e = np.eye(6)
    assert _ev(pi1, e[0], e[1], e[1], e[0]) == 1.0


def test_pi2_holomorphic_value(flat6):
    _, pi2 = _pi(flat6)
    e = np.eye(6)
    Je0 = flat6.J @ e[0]
    assert _ev(pi2, e[0], Je0, Je0, e[0]) == pytest.approx(3.0, abs=TOL_ALG)
    # cross-check against the displayed three-term expansion
    assert _oracle_pi2(flat6, e[0], Je0, Je0, e[0]) == pytest.approx(3.0, abs=TOL_ALG)


def test_pi2_vanishes_off_J_span(flat6):
    _, pi2 = _pi(flat6)
    e = np.eye(6)
    assert _ev(pi2, e[0], e[2], e[2], e[0]) == 0.0


def test_pi2_matches_oracle_componentwise(skew_point6):
    _, pi2 = _pi(skew_point6)
    rng = np.random.default_rng(0)
    for _ in range(10):
        X, Y, Z, U = rng.standard_normal((4, 6))
        assert _ev(pi2, X, Y, Z, U) == pytest.approx(
            _oracle_pi2(skew_point6, X, Y, Z, U), rel=1e-10, abs=1e-10
        )


# ---------------------------------------------------------------------------
# phi / psi
# ---------------------------------------------------------------------------

def test_phi_psi_of_metric(flat6):
    pi1, pi2 = _pi(flat6)
    phi, psi = _phi_psi(flat6, flat6.g)
    assert _norm(flat6.g_inv, phi - 2.0 * pi1) < TOL_ALG
    assert _norm(flat6.g_inv, psi - 2.0 * pi2) < TOL_ALG


def test_phi_psi_of_metric_skew_coordinates(skew_point6):
    pi1, pi2 = _pi(skew_point6)
    phi, psi = _phi_psi(skew_point6, skew_point6.g)
    assert _norm(skew_point6.g_inv, phi - 2.0 * pi1) < 1e-10
    assert _norm(skew_point6.g_inv, psi - 2.0 * pi2) < 1e-10


def test_phi_psi_zero(flat6):
    zero = np.zeros((6, 6))
    assert not np.any(_phi_psi_sum(flat6, zero, zero))


def test_phi_diagonal_value(flat6):
    rng = np.random.default_rng(1)
    Q = rng.standard_normal((6, 6))
    Q = 0.5 * (Q + Q.T)
    phi, _ = _phi_psi(flat6, Q)
    e = np.eye(6)
    expected = Q[1, 1] + Q[0, 0]  # cross terms vanish
    assert _ev(phi, e[0], e[1], e[1], e[0]) == pytest.approx(expected, abs=TOL_ALG)


def test_phi_psi_match_oracle(skew_point6):
    rng = np.random.default_rng(2)
    Q = rng.standard_normal((6, 6))
    Qs = 0.5 * (Q + Q.T)
    phi, psi = _phi_psi(skew_point6, Qs)
    for _ in range(8):
        X, Y, Z, U = rng.standard_normal((4, 6))
        assert _ev(phi, X, Y, Z, U) == pytest.approx(
            _oracle_phi(skew_point6, Qs, X, Y, Z, U), rel=1e-10, abs=1e-10
        )
        assert _ev(psi, X, Y, Z, U) == pytest.approx(
            _oracle_psi(skew_point6, Qs, X, Y, Z, U), rel=1e-10, abs=1e-10
        )


@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
@settings(max_examples=20, deadline=None)
def test_phi_psi_linear(a, b):
    point = flat_point(4)
    rng = np.random.default_rng(7)
    Q1 = rng.standard_normal((4, 4))
    Q1 = 0.5 * (Q1 + Q1.T)
    Q2 = rng.standard_normal((4, 4))
    Q2 = 0.5 * (Q2 + Q2.T)
    phi1, psi1 = _phi_psi(point, Q1)
    phi2, psi2 = _phi_psi(point, Q2)
    phi12, psi12 = _phi_psi(point, a * Q1 + b * Q2)
    assert np.allclose(phi12, a * phi1 + b * phi2, atol=1e-9)
    assert np.allclose(psi12, a * psi1 + b * psi2, atol=1e-9)


# ---------------------------------------------------------------------------
# the symmetrization map
# ---------------------------------------------------------------------------

def test_star_of_zero(flat6):
    assert not np.any(star(flat6, CurvTensor.zero(6)).components)


def test_star_of_constant_curvature(flat6):
    """c * pi1 has constant holomorphic curvature c, so the symmetrized tensor
    is the constant-HSC model (c/4)(pi1 + pi2); confirmed by the brute-force
    sixteen-term oracle below."""
    c = 1.7
    pi1, pi2 = _pi(flat6)
    out = star(flat6, CurvTensor(6, c * pi1))
    assert _norm(flat6.g_inv, out.components - (c / 4.0) * (pi1 + pi2)) < 10 * TOL_ALG
    rng = np.random.default_rng(3)
    for _ in range(5):
        X, Y, Z, U = rng.standard_normal((4, 6))
        assert _ev(out, X, Y, Z, U) == pytest.approx(
            _oracle_star(flat6, c * pi1, X, Y, Z, U), rel=1e-10, abs=1e-10
        )


def test_star_fixed_point(flat6):
    mu = -0.8
    R = complex_space_form_tensor(flat6, mu)
    assert invariant_norm(flat6, star(flat6, R) - R) < 10 * TOL_ALG


@pytest.mark.parametrize("point_fixture", ["flat4", "skew_point6"])
def test_star_matches_oracle_on_random_input(point_fixture, request):
    point = request.getfixturevalue(point_fixture)
    rng = np.random.default_rng(4)
    for seed in range(3):
        R = random_curvature_tensor(point.dim, seed)
        out = star(point, R)
        for _ in range(6):
            X, Y, Z, U = rng.standard_normal((4, point.dim))
            assert _ev(out, X, Y, Z, U) == pytest.approx(
                _oracle_star(point, R, X, Y, Z, U), rel=1e-9, abs=1e-9
            )


def test_star_properties_on_random_input(skew_point6):
    J = skew_point6.J
    rng = np.random.default_rng(5)
    for seed in range(4):
        R = random_curvature_tensor(6, seed)
        out = star(skew_point6, R)
        A = out.components
        # curvature class
        assert out.symmetry_defect < 1e-10
        # J-pair invariance on the first pair
        paired = np.einsum("pqkl,pi,qj->ijkl", A, J, J)
        assert np.max(np.abs(A - paired)) < 1e-10
        # agreement on holomorphic planes
        for _ in range(4):
            X = rng.standard_normal(6)
            JX = J @ X
            assert _ev(out, X, JX, JX, X) == pytest.approx(
                _ev(R, X, JX, JX, X), rel=1e-9, abs=1e-9
            )


def test_star_idempotent_on_image(flat6):
    for seed in range(4):
        R = random_curvature_tensor(6, seed)
        once = star(flat6, R)
        twice = star(flat6, once)
        assert invariant_norm(flat6, twice - once) < 1e-10


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=20, deadline=None)
def test_star_linear(a, b):
    point = flat_point(4)
    R1 = random_curvature_tensor(4, 11)
    R2 = random_curvature_tensor(4, 12)
    combo = CurvTensor(4, a * R1.components + b * R2.components)
    lhs = star(point, combo).components
    rhs = a * star(point, R1).components + b * star(point, R2).components
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_star_rejects_non_curvature_input(flat4):
    T = np.zeros((4,) * 4)
    T[0, 1, 0, 1] = 1.0
    with pytest.raises(SymmetryError):
        star(flat4, CurvTensor(4, T))


@pytest.mark.parametrize("entry", [star, ricci_family])
def test_each_entry_point_checks_the_curvature_class_once(entry, flat4, monkeypatch):
    """The symmetrized tensor inside ricci_family reuses its own check of R,
    and a rejection still names the function called."""
    calls = []
    check = curvature.require_curvature_class

    def counted(T, tol, what):
        calls.append(what)
        check(T, tol, what)

    monkeypatch.setattr(curvature, "require_curvature_class", counted)
    entry(flat4, rk_project(flat4, random_curvature_tensor(4, 3)))
    assert calls == [f"{entry.__name__}()"]
    T = np.zeros((4,) * 4)
    T[0, 1, 0, 1] = 1.0
    with pytest.raises(SymmetryError, match=rf"^{entry.__name__}\(\) is not curvature-class"):
        entry(flat4, CurvTensor(4, T))


def test_the_cached_class_defect_keeps_every_gate(flat6):
    """A defect of about 1e-10 passes a 1e-8 gate; the value cached by that check
    still fails the default gate of every entry point, with the same defect."""
    A = complex_space_form_tensor(flat6, 1.0).components.copy()
    A[0, 1, 0, 1] += 1e-10
    R = CurvTensor(6, A)
    star(flat6, R, sym_tol=1e-8)
    defect = CurvTensor(6, A).symmetry_defect  # a fresh tensor computes it anew
    assert defect == pytest.approx(1e-10, rel=1e-3)
    for entry in (ricci_family, bochner.rk_bochner, bochner.generalized_bochner, star):
        with pytest.raises(SymmetryError, match=r"not curvature-class at tolerance 1\.0e-12") as err:
            entry(flat6, R)
        assert err.value.defect == defect


@pytest.mark.parametrize("c", [1e6, 1e9])
def test_a_scaled_rk_tensor_passes_every_gate(c):
    """c R is as valid as R: its rounding-level class and RK defects grow with c,
    and every entry point and the document round trip accept it."""
    point = flat_point(8)
    R = CurvTensor(8, c * rk_project(point, random_curvature_tensor(8, 3)).components)
    assert R.symmetry_defect > TOL_ALG
    star(point, R)
    ricci_family(point, R)
    bochner.generalized_bochner(point, R)
    bochner.rk_bochner(point, R)
    buf = io.StringIO()
    dump_tensor(TensorDocument.from_point_tensor(point, R), buf)
    doc = load_tensor(io.StringIO(buf.getvalue()))
    assert np.array_equal(doc.R.reshape(R.components.shape), R.components)


def test_the_class_defect_is_computed_once_per_tensor(flat6, monkeypatch):
    """The four entry points check the same R against their gates, and all four
    read the one defect its first check computed."""
    computed, defect = [], CurvTensor.symmetry_defect.func

    def counted(T):
        computed.append(T)
        return defect(T)

    cached = functools.cached_property(counted)
    cached.__set_name__(CurvTensor, "symmetry_defect")
    monkeypatch.setattr(CurvTensor, "symmetry_defect", cached)
    R = complex_space_form_tensor(flat6, 1.0)
    star(flat6, R)
    ricci_family(flat6, R)
    bochner.generalized_bochner(flat6, R)
    bochner.rk_bochner(flat6, R)
    assert computed == [R]


# ---------------------------------------------------------------------------
# Ricci family
# ---------------------------------------------------------------------------

def test_ricci_family_constant_curvature_dim6(flat6):
    c = 0.9
    fam = ricci_family(flat6, space_form_tensor(flat6, c))
    g = flat6.g
    assert np.allclose(fam.S, 5 * c * g, atol=TOL_ALG)
    assert np.allclose(fam.S_prime, c * g, atol=TOL_ALG)
    assert np.allclose(fam.S_star, 2 * c * g, atol=TOL_ALG)
    assert fam.tau == pytest.approx(30 * c, abs=1e-12)
    assert fam.tau_prime == pytest.approx(6 * c, abs=1e-12)
    assert fam.tau_star == pytest.approx(12 * c, abs=1e-12)


def test_ricci_family_constant_hsc_m3(flat6):
    mu = 1.3
    fam = ricci_family(flat6, complex_space_form_tensor(flat6, mu))
    g = flat6.g
    assert np.allclose(fam.S, 2 * mu * g, atol=1e-12)
    assert np.allclose(fam.S_prime, 2 * mu * g, atol=1e-12)
    assert fam.tau == pytest.approx(12 * mu, abs=1e-11)
    assert fam.tau_prime == pytest.approx(12 * mu, abs=1e-11)
    # tau* = m(m+1) mu with m = 3
    assert fam.tau_star == pytest.approx(12 * mu, abs=1e-11)


def test_ricci_family_zero(flat6):
    fam = ricci_family(flat6, CurvTensor.zero(6))
    assert not np.any([fam.S, fam.S_prime, fam.S_star])
    assert fam.tau == fam.tau_prime == fam.tau_star == 0.0


def test_ricci_family_matches_frame_sum_oracle(skew_point6):
    """Contraction implementation agrees with literal orthonormal-frame sums
    over several random frames (frame independence)."""
    R = rk_project(skew_point6, random_curvature_tensor(6, 21))
    fam = ricci_family(skew_point6, R)
    L = np.linalg.cholesky(skew_point6.g_inv)  # L L^T = g^-1, so Q^T L^T has g-orthonormal rows
    for seed in range(4):
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 6)))
        frame = Q.T @ L.T
        assert np.max(np.abs(frame @ skew_point6.g @ frame.T - np.eye(6))) < TOL_ALG
        S, Sp, tau, tau_p = _frame_ricci_oracle(skew_point6, R, frame)
        assert np.max(np.abs(fam.S - 0.5 * (S + S.T))) < 1e-9
        assert np.max(np.abs(fam.S_prime - 0.5 * (Sp + Sp.T))) < 1e-9
        assert fam.tau == pytest.approx(tau, rel=1e-9, abs=1e-9)
        assert fam.tau_prime == pytest.approx(tau_p, rel=1e-9, abs=1e-9)


def test_s_star_j_invariant_for_general_input(skew_point6):
    """The Ricci trace of the symmetrized tensor is J-invariant even for
    curvature input with no special structure."""
    R = random_curvature_tensor(6, 31)
    gi, J = skew_point6.g_inv, skew_point6.J
    Ss = np.einsum("bc,abcd->ad", gi, star(skew_point6, R).components)
    assert np.max(np.abs(Ss - Ss.T)) < 1e-10
    assert np.max(np.abs(J.T @ Ss @ J - Ss)) < 1e-9


@pytest.mark.parametrize("dim", [6, 10])
def test_rotation_and_traces_take_batch_axes(dim):
    """A stack of points gives, bit for bit, what each point gives alone."""
    points = [random_hermitian_point(dim, seed) for seed in range(3)]
    g = np.stack([p.g for p in points])
    J = np.stack([p.J for p in points])
    R = np.stack([random_curvature_tensor(dim, 50 + i).components for i in range(3)])
    gi = _g_inv(g)
    traces = _traces(gi, J, R)  # S, S', tau, tau' and R(X,Y,JZ,JU)
    for i, p in enumerate(points):
        assert np.array_equal(gi[i], p.g_inv)
        assert np.array_equal(traces[-1][i], _rotate(R[i], p.J, 2, 3))
        for batched, alone in zip(traces, _traces(p.g_inv, p.J, R[i]), strict=True):
            assert np.array_equal(batched[i], alone)
    # one J for the whole stack
    assert np.array_equal(_rotate(R, J[0], 2, 3)[1], _rotate(R[1], J[0], 2, 3))


def test_each_call_rotates_r_into_its_last_pair_once(monkeypatch):
    """R(X,Y,JZ,JU) comes from ``_traces`` alone, and the traces, ``_star`` and
    the J-invariance defects share it.  Counted in J-slot rotations; rotating
    it again in each consumer cost 8, 6 and 13.  thm31_s6 reads every trace
    of the six-sphere from one ``ricci_family`` and its RK defect from
    ``rk_bochner``; a second trace-and-star pass beside them cost 18."""
    point, R, _ = make_model("PRODUCT(CD(1,-1),CP(3,1))")
    chart = charts.make_chart("CP(3,1)")
    x = chart.sample_points(7, 1)[0]
    slots, rotate = [], curvature._rotate

    def counted(A, J, *rotated):
        slots.append(len(rotated))
        return rotate(A, J, *rotated)

    for module in (curvature, bochner, charts):
        monkeypatch.setattr(module, "_rotate", counted)
    for call, expected in (
        (lambda: ricci_family(point, R), 6),  # traces 2, _star 4
        (lambda: bochner.rk_bochner(point, R), 4),  # traces 2, then slots 0, 1 of P
        (lambda: run_scenario("thm31_s6"), 10),  # ricci_family 6, rk_bochner 4
        # traces 2 and R(X,JY,Z,U) 1 at x, traces 2 on each of the n / 2 = 3
        # complex-step passes of two directions (11 on 4 stencil batches)
        (lambda: charts.nk_identity_suite(chart, x), 9),
    ):
        slots.clear()
        call()
        assert sum(slots) == expected


def test_thm31_s6_checks_and_symmetrizes_its_tensor_once(monkeypatch):
    """thm31_s6 checks the curvature class in ``ricci_family`` and ``rk_bochner``
    and forms R* once; a separate identity pass made it 3 checks and 2 passes."""
    checks, stars = [], []
    check, star_pass = curvature.require_curvature_class, curvature._star

    def counted_check(T, tol, what):
        checks.append(what)
        check(T, tol, what)

    def counted_star(A, J, P):
        stars.append(A)
        return star_pass(A, J, P)

    for module in (curvature, bochner):
        monkeypatch.setattr(module, "require_curvature_class", counted_check)
    monkeypatch.setattr(curvature, "_star", counted_star)
    run_scenario("thm31_s6")
    assert checks == ["ricci_family()", "rk_bochner()"]
    assert len(stars) == 1


def test_ricci_family_rejects_asymmetric_twisted_trace(flat6):
    """A generic curvature-class tensor outside the RK class has an
    asymmetric J-twisted trace; the family must refuse it, not hide it."""
    R = random_curvature_tensor(6, 41)
    with pytest.raises(SymmetryError):
        ricci_family(flat6, R)


# ---------------------------------------------------------------------------
# sectional curvatures, and constant antiholomorphic sectional curvature in
# closed form
# ---------------------------------------------------------------------------

def test_hsc_constant_model(flat6):
    mu = 2.5
    R = complex_space_form_tensor(flat6, mu)
    rng = np.random.default_rng(6)
    for _ in range(100):
        X = rng.standard_normal(6)
        JX = flat6.J @ X
        assert R(X, JX, JX, X) / flat6.inner(X, X) ** 2 == pytest.approx(mu, rel=1e-10)


def test_hsc_space_form(flat6):
    c = -0.75
    R = space_form_tensor(flat6, c)
    X = np.array([1.0, 2.0, 0.0, 1.0, -1.0, 0.5])
    # oracle: pi1(X, JX, JX, X) = g(X,X)^2
    JX = flat6.J @ X
    assert R(X, JX, JX, X) / flat6.inner(X, X) ** 2 == pytest.approx(c, rel=1e-12)


def test_ahsc_space_form_all_planes(flat6, skew_point6):
    """A space form of curvature c reads c on every antiholomorphic plane: its
    defect is 0 at nu = c and positive at c + 0.1, in flat and skew coordinates."""
    c = 1.4
    for point in (flat6, skew_point6):
        A = space_form_tensor(point, c).components
        assert _ahsc_defect(point, A, c) < TOL_ALG
        assert _ahsc_defect(point, A, c + 0.1) > 0.1


def test_ahsc_complex_space_form(flat6, skew_point6):
    """The J-paired generator vanishes on antiholomorphic planes, so the
    constant-HSC model has antiholomorphic curvature mu / 4."""
    mu = 2.0
    for point in (flat6, skew_point6):
        A = complex_space_form_tensor(point, mu).components
        assert _ahsc_defect(point, A, mu / 4.0) < TOL_ALG
        assert _ahsc_defect(point, A, mu / 4.0 + 0.1) > 0.1


def test_psi_reads_zero_on_antiholomorphic_planes(flat6, skew_point6):
    """Every term of psi(Q)(X,Y,Y,X) carries g(X,JY), g(X,JX) or g(Y,JY), so psi
    of any symmetric form reads 0 on sampled antiholomorphic planes."""
    rng = np.random.default_rng(3)
    for point in (flat6, skew_point6):
        B = rng.standard_normal((6, 6))
        A = _phi_psi_sum(point, np.zeros((6, 6)), B + B.T)
        X, Y = antiholomorphic_frames(point, rng, 256, 2).transpose(1, 0, 2)
        assert np.max(np.abs(np.einsum("ijkl,si,sj,sk,sl->s", A, X, Y, Y, X))) < TOL_ALG


def _span(rows) -> np.ndarray:
    """An orthonormal basis of the span of ``rows``, each flattened, as matrix rows."""
    _, s, Vt = np.linalg.svd(np.stack([np.ravel(r) for r in rows]), full_matrices=False)
    return Vt[: int(np.sum(s > 1e-9 * s[0]))]


def _j_invariant_forms(point) -> np.ndarray:
    """An orthonormal basis (m^2, n, n) of the symmetric forms with Q(JX,JY) = Q(X,Y)."""
    n, J, E = point.dim, point.J, np.eye(point.dim)
    forms = [np.outer(E[i], E[j]) + np.outer(E[j], E[i]) for i in range(n) for j in range(i, n)]
    return _span([F + J.T @ F @ J for F in forms]).reshape(-1, n, n)


def _psi(point, Q) -> np.ndarray:
    return _phi_psi_sum(point, np.zeros_like(Q), Q)


@pytest.mark.parametrize("n", [6, 8])
def test_rk_tensors_zero_on_antiholomorphic_planes_are_psi_of_j_invariant_forms(n):
    """Among RK tensors, those that read 0 on every antiholomorphic plane span a
    space of dimension m^2, with a clear gap, and it is psi of the J-invariant
    symmetric forms.  So nu pi1 + psi(Q) is every RK tensor of constant
    antiholomorphic sectional curvature nu, which ``_ahsc_defect`` relies on."""
    point, m = flat_point(n), n // 2
    class_dim = n * n * (n * n - 1) // 12  # spanned by as many random tensors
    rk = _span([rk_project(point, random_curvature_tensor(n, s)).components
                for s in range(class_dim)])
    X, Y = antiholomorphic_frames(point, np.random.default_rng(n), 4 * len(rk), 2).transpose(1, 0, 2)
    on_planes = np.einsum("si,sj,sk,sl->sijkl", X, Y, Y, X).reshape(len(X), -1) @ rk.T
    _, s, Vt = np.linalg.svd(on_planes)
    rank = int(np.sum(s > 1e-9 * s[0]))
    assert s[rank - 1] / s[0] > 0.05 and s[rank] / s[0] < 1e-14
    zero_on_planes = Vt[rank:] @ rk
    psi = [_psi(point, Q) for Q in _j_invariant_forms(point)]
    assert len(zero_on_planes) == len(psi) == len(_span(psi)) == m * m
    assert len(_span([*zero_on_planes, *psi])) == m * m


def _least_squares(point, A, nu) -> tuple:
    """The J-invariant symmetric Q that best fits A = nu pi1 + psi(Q), and the
    residual |A - nu pi1 - psi(Q)|; at a flat point, the invariant norm is the
    Frobenius norm that ``lstsq`` minimizes."""
    forms = _j_invariant_forms(point)
    target = (A - space_form_tensor(point, nu).components).ravel()
    M = np.stack([_psi(point, Q).ravel() for Q in forms], axis=1)
    coef = np.linalg.lstsq(M, target, rcond=None)[0]
    return np.tensordot(coef, forms, 1), float(np.linalg.norm(target - M @ coef))


@pytest.mark.parametrize("n", [6, 8])
def test_ahsc_defect_reads_the_least_squares_form_on_members(n):
    """On nu pi1 + psi(Q) with Q J-invariant, (S - (n-1) nu g) / 6 is Q, and so
    is the least-squares fit; the defect is 0."""
    point, rng = flat_point(n), np.random.default_rng(n)
    for nu in (-0.5, 0.7):
        B = rng.standard_normal((n, n))
        Q = B + B.T + point.J.T @ (B + B.T) @ point.J
        A = space_form_tensor(point, nu).components + _psi(point, Q)
        Q_hat = (curvature._ricci(point.g_inv, A) - ((n - 1) * nu) * point.g) / 6.0
        Q_fit, residual = _least_squares(point, A, nu)
        assert np.max(np.abs(Q_hat - Q)) < TOL_ALG
        assert np.max(np.abs(Q_fit - Q)) < TOL_ALG
        assert residual < TOL_ALG
        assert _ahsc_defect(point, A, nu) < TOL_ALG


def test_ahsc_defect_is_at_least_the_least_squares_residual_off_members():
    """An RK tensor without constant antiholomorphic sectional curvature reads
    at least its least-squares residual, and above 0, at every nu: projected
    random tensors, and PRODUCT(CD(1,-1),S6(1)), whose corrected tensor
    vanishes while its planes read 1 inside the sphere and 0 across factors."""
    point, R, _ = make_model("PRODUCT(CD(1,-1),S6(1))")
    assert bochner.rk_bochner(point, R).norm < TOL_ALG
    cases = [(point, R.components)]
    for n in (6, 8):
        flat = flat_point(n)
        cases.append((flat, rk_project(flat, random_curvature_tensor(n, n)).components))
    for point, A in cases:
        for nu in (-0.25, 0.0, 1.0):
            residual = _least_squares(point, A, nu)[1]
            assert residual > 1.0
            assert _ahsc_defect(point, A, nu) >= residual * (1.0 - 1e-12)

# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------

def test_direct_sum_of_flats_is_flat():
    point, R, _ = make_model("PRODUCT(CE(1),CE(2))")
    assert point.dim == 6
    assert not np.any(R.components)


def test_direct_sum_mixed_components_vanish():
    point, R, _ = make_model("PRODUCT(CP(2,1),S6(1))")
    e = np.eye(10)
    assert _ev(R, e[0], e[5], e[5], e[0]) == 0.0


def test_direct_sum_trace_additivity():
    p1, p2 = flat_point(4), flat_point(6)
    R1 = complex_space_form_tensor(p1, -2.0)
    R2 = space_form_tensor(p2, 0.5)
    point, R, _ = make_model("PRODUCT(CD(2,-2),S6(0.5))")
    fam = ricci_family(point, R)
    fam1 = ricci_family(p1, R1)
    fam2 = ricci_family(p2, R2)
    assert fam.tau == pytest.approx(fam1.tau + fam2.tau, rel=1e-12)
    assert fam.tau_star == pytest.approx(fam1.tau_star + fam2.tau_star, rel=1e-12)


def test_direct_sum_star_is_blockwise():
    p1, p2 = flat_point(4), flat_point(4)
    R1 = rk_project(p1, random_curvature_tensor(4, 51))
    R2 = rk_project(p2, random_curvature_tensor(4, 52))
    # the product of two flat points is the flat point
    point = flat_point(8)
    R = CurvTensor(8, _block_diagonal([R1.components, R2.components]))
    Rs = star(point, R).components
    blockwise = np.zeros_like(Rs)
    blockwise[:4, :4, :4, :4] = star(p1, R1).components
    blockwise[4:, 4:, 4:, 4:] = star(p2, R2).components
    assert np.max(np.abs(Rs - blockwise)) < TOL_ALG


# ---------------------------------------------------------------------------
# model tensors and identity diagnostics
# ---------------------------------------------------------------------------

def test_space_form_zero(flat6):
    assert not np.any(space_form_tensor(flat6, 0.0).components)


def test_space_form_every_sectional_curvature(flat6):
    c = 0.8
    R = space_form_tensor(flat6, c)
    g = flat6.g
    rng = np.random.default_rng(8)
    for _ in range(20):
        X, Y = rng.standard_normal((2, 6))
        gram = float((X @ g @ X) * (Y @ g @ Y) - (X @ g @ Y) ** 2)
        assert _ev(R, X, Y, Y, X) / gram == pytest.approx(c, rel=1e-9)


def _kahler_defect(point, R):
    """max |R(X,Y,Z,U) - R(X,Y,JZ,JU)| over index tuples."""
    P = _traces(point.g_inv, point.J, R.components)[4]
    return float(np.max(np.abs(R.components - P)))


def _star_relation(point, R):
    """The invariant norm of 4 S* - (S + 3 S'), which vanishes on RK tensors."""
    fam = ricci_family(point, R)
    return _norm(point.g_inv, 4.0 * fam.S_star
                 - (fam.S + 3.0 * fam.S_prime))


def _twisted_contraction(point, R):
    """|full contraction of (S - S') against (S - 5 S')|."""
    fam = ricci_family(point, R)
    return _ricci_identities(point, fam.S, fam.S_prime,
                             fam.tau, fam.tau_prime)[0]


def test_constant_hsc_is_kahler_type_and_rk(flat6):
    R = complex_space_form_tensor(flat6, 1.0)
    assert _kahler_defect(flat6, R) < TOL_ALG
    bochner.rk_bochner(flat6, R)  # raises NotRKError beyond TOL_ALG from RK
    assert _star_relation(flat6, R) < TOL_ALG
    assert _twisted_contraction(flat6, R) < TOL_ALG


def test_space_form_is_rk_but_not_kahler_type(flat6):
    c = 1.0
    R = space_form_tensor(flat6, c)
    assert _kahler_defect(flat6, R) > 0.5 * c
    bochner.rk_bochner(flat6, R)
    assert _star_relation(flat6, R) < TOL_ALG
    assert _twisted_contraction(flat6, R) < TOL_ALG  # (S - 5S') = 0 for this model
    zero = CurvTensor.zero(6)
    bochner.rk_bochner(flat6, zero, rk_tol=0.0)
    assert _kahler_defect(flat6, zero) == _star_relation(flat6, zero) == 0.0
    assert _twisted_contraction(flat6, zero) == 0.0


@given(seed=st.integers(0, 10**5))
@settings(max_examples=15, deadline=None)
def test_star_relation_for_rk_tensors(seed):
    """Every tensor invariant under four-slot J-rotation satisfies
    4 S* = S + 3 S'."""
    point = flat_point(6)
    R = rk_project(point, random_curvature_tensor(6, seed))
    bochner.rk_bochner(point, R)
    assert _star_relation(point, R) < 1e-10


@pytest.mark.parametrize("n", [2, 6, 12])
def test_flat_point_is_one_read_only_point_per_dimension(n):
    point = flat_point(n)
    assert flat_point(n) is point and flat_point(n + 2) is not point
    for field in (point.g, point.J, point.g_inv):
        with pytest.raises(ValueError):
            field[0, 0] = 2.0
    assert np.array_equal(point.g, np.eye(n)) and np.array_equal(point.J, standard_J(n))
