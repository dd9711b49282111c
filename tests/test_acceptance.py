"""Acceptance criteria.

Each test implements one exit criterion at its pinned tolerance and prints a
one-line verdict (visible with ``pytest -s`` or in the captured output).  The
tolerances here are fixed contract values, not tuning knobs.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from bochnerkit.bochner import generalized_bochner, rk_bochner
import fd_reference
from bochnerkit.charts import geometry_at, make_chart, nk_identity_suite
from bochnerkit.curvature import (
    complex_space_form_tensor,
    flat_point,
    random_curvature_tensor,
    ricci_family,
    space_form_tensor,
    star,
)
from bochnerkit.multilinear import _norm, invariant_norm
from bochnerkit.scenarios import _csf_spec, make_model
from frames import antiholomorphic_frames

TOL_ALG = 1e-12
TOL_FD1 = 1e-6
TOL_FD2 = 1e-4


def _report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_algebraic_bochner_vanishing():
    """B* and B vanish on the constant-curvature models, in under a second."""
    start = time.perf_counter()
    worst = 0.0
    for m in (3, 4, 5):
        point = flat_point(2 * m)
        R = complex_space_form_tensor(point, 1.0)
        worst = max(worst, generalized_bochner(point, R).norm)
        worst = max(worst, rk_bochner(point, R).norm)
    p6 = flat_point(6)
    worst = max(worst, rk_bochner(p6, space_form_tensor(p6, 1.0)).norm)
    elapsed = time.perf_counter() - start
    assert worst < TOL_ALG
    assert elapsed < 1.0
    _report("criterion 1", f"max corrected-tensor norm {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_product_theorem():
    """Opposite-curvature products are trace-free; detuning breaks it monotonically."""
    worst = 0.0
    for k, mk in ((1, 3), (2, 2), (2, 3)):
        point, R, _ = make_model(_csf_spec([(k, 1.0), (mk, -1.0)]))
        worst = max(worst, generalized_bochner(point, R).norm)
    assert worst < TOL_ALG
    norms = []
    for eps in (1e-3, 1e-2, 1e-1):
        point, R, _ = make_model(_csf_spec([(1, 1.0), (3, -1.0 + eps)]))
        norms.append(generalized_bochner(point, R).norm)
    assert norms[0] > 0.0
    assert norms[0] < norms[1] < norms[2]
    _report(
        "criterion 2",
        f"product norms {worst:.2e}; perturbed norms "
        + " < ".join(f"{n:.2e}" for n in norms),
    )


def test_criterion_3_product_classification_and_counterexample():
    point, R, _ = make_model("PRODUCT(CD(1,-1),S6(1))")
    good = rk_bochner(point, R).norm
    assert good < TOL_ALG
    point2, R2, _ = make_model("PRODUCT(CD(2,-1),S6(1))")
    bad = rk_bochner(point2, R2).norm
    F = antiholomorphic_frames(point2, np.random.default_rng(0), 512, 4)
    values = np.einsum("ijkl,si,sj,sk,sl->s", R2.components, *F.transpose(1, 0, 2))
    frame = float(np.max(np.abs(values)))
    assert bad > 1e-3
    assert frame > 1e-3
    _report(
        "criterion 3",
        f"dim-8 product B {good:.2e}; dim-10 product B {bad:.2e}, "
        f"4-frame defect {frame:.2e}",
    )


def test_criterion_4_scalar_identities_on_sphere():
    point = flat_point(6)
    R = space_form_tensor(point, 1.0)
    fam = ricci_family(point, R)
    assert abs(fam.tau - 30.0) < TOL_ALG
    assert abs(fam.tau_prime - 6.0) < TOL_ALG
    assert abs(fam.tau - 5.0 * fam.tau_prime) < TOL_ALG
    S, Sp, Ss = fam.S, fam.S_prime, fam.S_star
    rel = _norm(point.g_inv, 4.0 * Ss - (S + 3.0 * Sp))
    assert rel < TOL_ALG
    contraction = abs(
        float(
            np.einsum(
                "ac,bd,ab,cd->",
                point.g_inv,
                point.g_inv,
                S - Sp,
                S - 5.0 * Sp,
            )
        )
    )
    assert contraction < TOL_ALG
    from bochnerkit.bochner import nk_flat_form_3_4

    form = nk_flat_form_3_4(point, fam.S, fam.tau)
    recon = invariant_norm(point, form - R)
    assert recon < TOL_ALG
    _report(
        "criterion 4",
        f"tau 30, tau' 6, relation norm {rel:.2e}, contraction {contraction:.2e}, "
        f"closed-form residual {recon:.2e}",
    )


def test_criterion_5_chart_level_geometry():
    start = time.perf_counter()
    chart = make_chart("S6(1)")
    worst_rel = 0.0
    for x in chart.sample_points(7, 5):
        geo = geometry_at(chart, x)
        point, R = geo.point, geo.R
        target = space_form_tensor(point, 1.0)
        worst_rel = max(
            worst_rel, invariant_norm(point, R - target) / invariant_norm(point, target)
        )
    assert worst_rel < TOL_FD2

    x = chart.sample_points(7, 1)[0]
    geo = geometry_at(chart, x)
    g, nJ = geo.point.g, geo.nJ
    rng = np.random.default_rng(7)
    nk_defect, off_diag = 0.0, 0.0
    for _ in range(64):
        X, Y = rng.standard_normal((2, 6))
        X /= np.sqrt(X @ g @ X)
        Y /= np.sqrt(Y @ g @ Y)
        vxx = np.einsum("akj,a,j->k", nJ, X, X)
        vxy = np.einsum("akj,a,j->k", nJ, X, Y)
        nk_defect = max(nk_defect, float(np.sqrt(vxx @ g @ vxx)))
        off_diag = max(off_diag, float(np.sqrt(vxy @ g @ vxy)))
    assert nk_defect < TOL_FD1
    assert off_diag > 0.1

    suite = nk_identity_suite(chart, x)
    assert suite.id_1_1 < TOL_FD2
    assert suite.id_1_2 < TOL_FD2
    assert suite.id_1_3 < TOL_FD2
    assert suite.id_1_4 < TOL_FD2
    assert suite.id_1_6 < TOL_FD2
    assert suite.id_1_7 < TOL_FD2

    cp = make_chart("CP(3,4)")
    worst_cp = 0.0
    for x in cp.sample_points(7, 2):
        geo = geometry_at(cp, x)
        point, R = geo.point, geo.R
        target = complex_space_form_tensor(point, 4.0)
        worst_cp = max(
            worst_cp, invariant_norm(point, R - target) / invariant_norm(point, target)
        )
    assert worst_cp < TOL_FD2
    nJ_cp = geometry_at(cp, cp.sample_points(7, 1)[0]).nJ
    assert np.max(np.abs(nJ_cp)) < TOL_FD1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        "criterion 5",
        f"sphere rel {worst_rel:.2e}, nk {nk_defect:.2e}, |nabla J| {off_diag:.2f}, "
        f"identities <= {max(suite.id_1_1, suite.id_1_2, suite.id_1_3):.2e}, "
        f"traces <= {max(suite.id_1_4, suite.id_1_6, suite.id_1_7):.2e}, "
        f"cp rel {worst_cp:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_model_sweep():
    descriptors = [
        "CE(3)", "CD(3,-1)", "CP(3,1)", "S6(1)",
        "PRODUCT(CD(1,-1),S6(1))", "PRODUCT(CD(1,-1),CP(2,1))",
    ]
    worst_alg, worst_chart = 0.0, 0.0
    for desc in descriptors:
        point, R, _ = make_model(desc)
        worst_alg = max(worst_alg, rk_bochner(point, R).norm)
        chart = make_chart(desc)
        x = chart.sample_points(7, 1)[0]
        geo = geometry_at(chart, x)
        fd_point, fd_R = geo.point, geo.R
        worst_chart = max(worst_chart, rk_bochner(fd_point, fd_R).norm)
    assert worst_alg < TOL_ALG
    assert worst_chart < TOL_FD2
    _report(
        "criterion 6",
        f"algebraic B <= {worst_alg:.2e}, chart B <= {worst_chart:.2e} over "
        f"{len(descriptors)} models",
    )


def test_criterion_7_reconstruction_and_convergence(ref_rhs_2_1):
    point = flat_point(6)
    worst = 0.0
    for seed in range(20):
        R = random_curvature_tensor(6, seed)
        Rs = star(point, R)
        out = generalized_bochner(point, R)
        gi = point.g_inv
        S_star = np.einsum("bc,abcd->ad", gi, Rs.components)
        S_star = 0.5 * (S_star + S_star.T)
        tau_star = float(np.einsum("ad,ad->", gi, S_star))
        closed = ref_rhs_2_1(point, S_star, tau_star)
        worst = max(worst, _norm(gi, Rs.components - (out.tensor.components + closed)))
    assert worst < TOL_ALG

    # the finite-difference oracle converges at fourth order; the jets are exact
    chart = make_chart("S6(1)")
    x = chart.sample_points(7, 1)[0]
    residuals = [fd_reference.suite(chart, x, h).id_1_1 for h in (2e-3, 1e-3)]
    ratio = residuals[0] / residuals[1]
    assert ratio >= 12.0  # fourth order: 16 in exact arithmetic
    exact = nk_identity_suite(chart, x).id_1_1
    assert exact <= 1e-13
    _report(
        "criterion 7",
        f"reconstruction residual {worst:.2e} over 20 tensors; halving the oracle's "
        f"h improves the pairing residual {ratio:.2f}x; the jets read {exact:.2e}",
    )


@pytest.mark.slow
def test_criterion_8_deterministic_suite(tmp_path):
    """Two identical full-suite invocations produce byte-identical JSON."""
    argv = [sys.executable, "-m", "bochnerkit", "all", "--seed", "7", "--quiet"]
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        proc = subprocess.run(
            argv + ["--json", str(path)], capture_output=True, text=True, timeout=600
        )
        assert proc.returncode == 0, proc.stderr
    b1, b2 = paths[0].read_bytes(), paths[1].read_bytes()
    assert b1 == b2
    _report("criterion 8", f"identical reports, {len(b1)} bytes each")
