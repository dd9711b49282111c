"""Finite-difference geometry on the model charts."""

import dataclasses
import re

import numpy as np
import pytest

from bochnerkit import charts
from bochnerkit.bochner import rk_bochner
from bochnerkit.charts import (
    ChartModel,
    ChartSpec,
    ChartSpecError,
    FDConfig,
    FDConfigError,
    MarginError,
    NotNearlyKahlerError,
    geometry_at,
    make_chart,
    nk_identity_suite,
    parse_model_spec,
)
from bochnerkit.curvature import (
    PointValidationError,
    _ricci_identities,
    _traces,
    complex_space_form_tensor,
    random_hermitian_point,
    ricci_family,
    space_form_tensor,
    standard_J,
    validate_point,
)
from bochnerkit.multilinear import (
    TOL_ALG,
    CurvTensor,
    NonFiniteError,
    _norm,
    invariant_norm,
)

# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_parse_descriptors():
    assert parse_model_spec("CE(3)").kind == "CE"
    assert parse_model_spec("s6(2.5)").c == 2.5
    spec = parse_model_spec("PRODUCT(CD(1,-1), S6(1))")
    assert spec.kind == "PRODUCT" and len(spec.factors) == 2
    assert spec.label() == "PRODUCT(CD(1,-1),S6(1))"


def test_parse_rejects_unknown():
    with pytest.raises(ChartSpecError):
        parse_model_spec("TORUS(2)")


_BAD_DESCRIPTORS = {  # descriptor: the part of its error message that names the fault
    "CD(1,1)": "CD needs a negative holomorphic curvature mu",
    "CP(3,-4)": "CP needs a positive holomorphic curvature mu",
    "S6(-1)": "S6 needs a positive curvature parameter c",
    "S6(0)": "S6 needs a positive curvature parameter c",
    "CE(0)": "CE needs a complex dimension m >= 1",
    "CP(3)": "bad arguments in model descriptor 'CP(3)': CP(m, mu) takes 2 arguments, got 1",
    "PRODUCT(CE(1))": "PRODUCT needs at least two factors: 'PRODUCT(CE(1))'",
    "CE(7)": "CE(7) has real dimension 14; at most 12 is supported",
    "CP(7,1)": "CP(7,1) has real dimension 14",
    "PRODUCT(CP(4,1),S6(1))": "PRODUCT(CP(4,1),S6(1)) has real dimension 14",
    "PRODUCT(CE(2),PRODUCT(CE(2),CE(3)))": "PRODUCT(CE(2),PRODUCT(CE(2),CE(3))) has real dimension 14",
    # the whole descriptor is quoted, not the fragment where the parsing stops
    "PRODUCT(CE(1),S6(1)": "unbalanced parentheses in model descriptor 'PRODUCT(CE(1),S6(1)'",
    "PRODUCT(CE(1)),S6(1))": "unbalanced parentheses in model descriptor 'PRODUCT(CE(1)),S6(1))'",
    "S6(1,2)": "bad arguments in model descriptor 'S6(1,2)': S6(c) takes 1 argument, got 2",
    "CE(3,1)": "bad arguments in model descriptor 'CE(3,1)': CE(m) takes 1 argument, got 2",
    "PRODUCT(CE(1),PRODUCT(CE(1)))": "PRODUCT needs at least two factors: "
                                     "'PRODUCT(CE(1),PRODUCT(CE(1)))'",
}


@pytest.mark.parametrize("bad", list(_BAD_DESCRIPTORS))
def test_make_chart_rejects_bad_parameters(bad):
    with pytest.raises(ChartSpecError, match=re.escape(_BAD_DESCRIPTORS[bad])):
        make_chart(bad)


_KIND_NAMES = "a model kind, one of CE, S6, CP, CD, PRODUCT"
_GRAMMAR_FAULTS = {  # descriptor: the 1-based column where reading stops, what it expected
    "S6(1,)": (6, "a number"),
    "CE(,1)": (4, "an integer m"),
    "PRODUCT(CE(1),,S6(1))": (15, _KIND_NAMES),
    "PRODUCT(,CE(1),S6(1))": (9, _KIND_NAMES),
    "S6(1_0)": (5, "',' or ')'"),
    "CE(\u0663)": (4, "an integer m"),  # an Arabic-Indic three
    "S6(\u0661)": (4, "a number"),  # an Arabic-Indic one
    "CP(3.0,1)": (4, "an integer m"),
    "CE(1e1)": (4, "an integer m"),
    "S6(nan)": (4, "a number"),
    "S6(0x10)": (5, "',' or ')'"),
    "S6( 1 2 )": (7, "',' or ')'"),
    "TORUS(1)": (1, _KIND_NAMES),
    "\u017f6(1)": (1, _KIND_NAMES),  # a long s, which upper-cases to S
    "PRODUCTS(CE(1),CE(1))": (1, _KIND_NAMES),
    "(CE(1))": (1, _KIND_NAMES),
    "": (1, _KIND_NAMES),
    "CE": (3, "'('"),
    "CE(1)x": (6, "the end of the descriptor"),
    "CE(1),CE(2)": (6, "the end of the descriptor"),
}


@pytest.mark.parametrize("bad", list(_GRAMMAR_FAULTS))
def test_grammar_fault_quotes_the_descriptor_and_names_the_column(bad):
    column, expected = _GRAMMAR_FAULTS[bad]
    with pytest.raises(ChartSpecError) as err:
        parse_model_spec(bad)
    assert str(err.value) == f"bad model descriptor {bad!r} at column {column}: expected {expected}"


@pytest.mark.parametrize("text, label", [
    (" cp ( 3 , 1e2 ) ", "CP(3,100)"),
    ("product(ce(+2),S6(.5))", "PRODUCT(CE(2),S6(0.5))"),
    ("CD(03,-2.50E-1)", "CD(3,-0.25)"),
    ("PRODUCT(\tS6(5.),\nCE(1))", "PRODUCT(S6(5),CE(1))"),
])
def test_grammar_admits_case_signs_exponents_and_whitespace(text, label):
    assert parse_model_spec(text).label() == label


@pytest.mark.parametrize("kind", list(charts._KINDS))
def test_every_leaf_kind_round_trips_through_its_label(kind):
    """Each row of the model table parses back from its label and builds a chart of
    that label and dimension; a float argument takes whichever sign the kind admits."""
    specs = []
    for value in (2.5, -2.5):
        try:
            specs.append(ChartSpec(kind, **{a: 2 if a == "m" else value
                                            for a in charts._KINDS[kind].args}))
        except ChartSpecError:
            continue
    assert specs
    for spec in specs:
        assert parse_model_spec(spec.label()) == spec
        assert parse_model_spec(spec.label().lower()) == spec
        chart = make_chart(spec)
        assert (chart.label, chart.n) == (spec.label(), spec.dim)


@pytest.mark.parametrize("seed", range(5))
def test_product_model_tensor_is_the_direct_sum_at_a_non_flat_point(seed):
    """A product's exact curvature at a block-diagonal point is, bit for bit, the
    block-diagonal array of its factors' exact curvatures at their blocks; so is
    a nested product's."""
    p1, p2, p3 = (random_hermitian_point(n, seed + 100 * i) for i, n in enumerate((4, 6, 2)))

    def product(*pairs):
        g, J, R = (_block_diagonal(blocks, 0) for blocks in zip(
            *((p.g, p.J, R.components) for p, R in pairs)))
        return validate_point(g, J), CurvTensor(g.shape[0], R)

    R1, R2 = complex_space_form_tensor(p1, 1.5), space_form_tensor(p2, 2.0)
    point, R = product((p1, R1), (p2, R2))
    spec = parse_model_spec("PRODUCT(CP(2,1.5),S6(2))")
    assert np.array_equal(charts._model_tensor(spec, point).components, R.components)
    R3 = complex_space_form_tensor(p3, -1.0)
    point, R = product((p3, R3), (point, R))
    spec = parse_model_spec("PRODUCT(CD(1,-1),PRODUCT(CP(2,1.5),S6(2)))")
    assert np.array_equal(charts._model_tensor(spec, point).components, R.components)


# ---------------------------------------------------------------------------
# batched evaluators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "desc", ["CE(3)", "S6(1)", "CP(3,4)", "CD(2,-1)", "PRODUCT(CD(1,-1),S6(1))"]
)
def test_batched_evaluators_match_pointwise(desc):
    chart = make_chart(desc)
    X = chart.sample_points(31, 6).reshape(2, 3, chart.n)
    for field in (chart.metric_at, chart.J_at):
        loop = np.array([[field(x) for x in row] for row in X])
        assert loop.shape == (2, 3, chart.n, chart.n)
        for batch, ref in ((field(X[0]), loop[0]), (field(X), loop)):
            assert batch.shape == ref.shape
            assert np.max(np.abs(batch - ref)) <= 1e-14 * np.max(np.abs(ref))
        # every first derivative of a field is a complex step, exact only if the
        # field is analytic: a real central difference at h = 1e-6 must agree
        h, eye = 1e-6, np.eye(chart.n)
        central = (field(X[..., None, :] + h * eye) - field(X[..., None, :] - h * eye)) / (2 * h)
        exact = charts._complex_step(field, X)
        assert exact.shape == (2, 3, chart.n, chart.n, chart.n)
        assert np.max(np.abs(exact - central)) <= 1e-7 * max(1.0, np.max(np.abs(exact)))


@pytest.mark.parametrize("outside", [[1.0, 0.0, 0.0, 0.0], [0.3, -1.2, 0.5, 0.1]])
def test_cd_batch_with_one_point_outside_ball_raises(outside):
    chart = make_chart("CD(2,-1)")
    X = chart.sample_points(33, 4)
    X[2] = outside
    with pytest.raises(MarginError):
        chart.metric_at(X)
    chart.metric_at(np.delete(X, 2, axis=0))  # the interior rest is fine


def _counted_metric(chart):
    """The chart with ``metric_at`` wrapped by a counter of calls and points,
    and ``J_at`` by a counter of calls."""
    count = {"calls": 0, "points": 0, "J_calls": 0}

    def metric_at(x):
        count["calls"] += 1
        count["points"] += x[..., 0].size
        return chart.metric_at(x)

    def J_at(x):
        count["J_calls"] += 1
        return chart.J_at(x)

    return dataclasses.replace(chart, metric_at=metric_at, J_at=J_at), count


def test_curvature_makes_a_fixed_number_of_metric_calls():
    """Gamma is evaluated on all the points of the stencil of x at once, in
    calls of at most MAX_DIM^2 = 144 points, so the call count does not grow
    with the dimension."""
    counts = {}
    for desc in ("S6(1)", "CP(5,1)", "CE(1)"):
        chart, count = _counted_metric(make_chart(desc))
        geometry_at(chart, chart.sample_points(3, 1)[0])
        counts[desc] = count
    # Gamma at x and its 4n stencil points: 4n + 1 <= 49 <= 144 points for
    # n <= 12, one call of g and one of the complex step.  Lowering R and
    # validating the point reuse the g that Gamma at x read, and nabla J reuses
    # Gamma (10 calls while Gamma at x and each step and sign were separate
    # calls, 25 with a real-difference Gamma of 1 + 4 calls)
    assert counts["S6(1)"]["calls"] == counts["CP(5,1)"]["calls"] == 2
    # at n = 2 the 9 points take ceil(9 / 144) = 1 call of Gamma (3 calls, 6
    # metric calls, while calls held at most n^2 = 4 points)
    assert counts["CE(1)"]["calls"] == 2
    # Gamma at x and at its 4n stencil points, n + 1 metric points each: (n + 1)(4n + 1)
    assert counts["S6(1)"]["points"] == 175
    assert counts["CP(5,1)"]["points"] == 451


def test_suite_metric_calls_stay_batched():
    chart, count = _counted_metric(make_chart("CP(5,1)"))
    x = chart.sample_points(3, 1)[0]
    geo = geometry_at(chart, x)
    # one geometry evaluation at x, then the suite's one over its 4 batches (2
    # steps x 2 signs on the n stencil points), each validated from the g and J
    # it read:
    #   metric: 2 calls (g and the complex step) per MAX_DIM^2 = 144 points of
    #           the unmerged grid: 4n + 1 = 41 at x, 4n + 16n^2 = 1,640 for the
    #           suite, so 2 + 2 ceil(1,640 / 144) = 26 in all (36 while calls
    #           held at most n^2 = 100 points);
    #   J:      J 1 + the complex step dJ 1 = 2 calls a batch, 2 + 8 = 10 in all;
    #   points: n + 1 = 11 per distinct Gamma point, 41 at x and 801 for the
    #           suite at this point (_grid_size): 451 + 8,811 = 9,262.
    # 50 calls (18,491 points) while each batch evaluated Gamma afresh on its
    # own stencil, 70,766 single-point calls before batching, 1,137 before the
    # shared geometry, 171 (and 66 J calls) while each stencil point was
    # validated alone, 125 (68,921 points) while Gamma took real differences
    # of g, 25 J calls while dJ took real differences
    assert (count["calls"], count["J_calls"], count["points"]) == (2, 2, 451)
    assert _grid_size(x) == 801
    nk_identity_suite(chart, geo)
    assert (count["calls"], count["J_calls"], count["points"]) == (26, 10, 9262)


@pytest.mark.parametrize("desc", ["S6(1)", "CP(5,1)"])
def test_derivative_evaluators_make_fixed_call_counts(desc):
    """R evaluates Gamma at x and at the 4n stencil points, at most n^2 of
    them, in one metric call and one complex-step call (10 calls while x and
    each step and sign were separate calls), and nabla J costs one J call at x
    and one complex-step call (5 J calls while dJ took real differences).
    (The nabla^2 J of the deleted j_derivatives_at, which no check read, cost
    8 metric and 20 J calls more.)"""
    chart, count = _counted_metric(make_chart(desc))
    geometry_at(chart, chart.sample_points(3, 1)[0])
    assert (count["calls"], count["J_calls"]) == (2, 2)


# ---------------------------------------------------------------------------
# flat chart
# ---------------------------------------------------------------------------

def test_ce_chart_is_flat():
    chart = make_chart("CE(3)")
    geo = geometry_at(chart, chart.sample_points(0, 1)[0])
    assert np.max(np.abs(geo.G)) == 0.0
    assert not np.any(geo.R.components)
    assert np.max(np.abs(geo.nJ)) == 0.0
    # with R = nabla J = 0 the residual of id_1_2 is 2 |nabla^2 J|
    assert nk_identity_suite(chart, geo).id_1_2 == 0.0


# ---------------------------------------------------------------------------
# round six-sphere chart
# ---------------------------------------------------------------------------

def test_s6_chart_point_validity():
    chart = make_chart("S6(1)")
    for x in chart.sample_points(3, 4):
        point = validate_point(chart.metric_at(x), chart.J_at(x))
        J, g = point.J, point.g
        assert np.max(np.abs(J @ J + np.eye(6))) < TOL_ALG
        assert np.max(np.abs(J.T @ g @ J - g)) < TOL_ALG
        # stereographic metric is conformally flat
        lam2 = g[0, 0]
        assert np.max(np.abs(g - lam2 * np.eye(6))) < 1e-12


def test_s6_christoffel_vanishes_at_origin():
    """The conformal factor has zero gradient at the chart origin."""
    chart = make_chart("S6(1)")
    G = geometry_at(chart, np.zeros(6)).G
    assert np.max(np.abs(G)) < 1e-10


def test_christoffel_symmetric_lower_indices():
    chart = make_chart("S6(1.7)")
    x = chart.sample_points(1, 1)[0]
    G = geometry_at(chart, x).G
    assert np.array_equal(G, G.transpose(0, 2, 1))


@pytest.mark.parametrize(
    "desc", ["CE(2)", "S6(1)", "CP(3,1)", "CD(2,-1)", "PRODUCT(CD(1,-1),S6(1))"]
)
def test_christoffel_is_exactly_symmetric_at_every_batch_size(desc):
    """The grid keeps only the lower pairs i <= j of Gamma, which is exact only
    if Gamma^k_{ij} and Gamma^k_{ji} agree in every bit, in every call size."""
    chart = make_chart(desc)
    for size in (1, 7, chart.n**2):
        _, G = charts._christoffel(chart, chart.sample_points(size, size))
        assert G.shape == (size, chart.n, chart.n, chart.n)
        assert np.array_equal(G, np.swapaxes(G, -1, -2))


_PINNED_CHARTS = ["S6(1)", "CP(5,1)", "PRODUCT(CD(2,-1),S6(1))"]


@pytest.mark.parametrize("desc", _PINNED_CHARTS)
def test_curvature_antisymmetric_in_first_pair_exactly(desc):
    chart = make_chart(desc)
    R = geometry_at(chart, chart.sample_points(3, 1)[0]).R.components
    assert np.array_equal(R, -R.transpose(1, 0, 2, 3))


# The contractions in their index form, one einsum each, as a reference for the
# matmul forms in `charts`.

def _einsum_christoffel(chart, X):
    g = chart.metric_at(X)
    dg = charts._complex_step(chart.metric_at, X)
    t = dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)
    return g, 0.5 * np.einsum("...kl,...ijl->...kij", np.linalg.inv(g), t)


def _einsum_covariant(G, T, dT, variance):
    letters = "ijklmn"[: len(variance)]
    out = dT
    for axis, var in enumerate(variance):
        src = letters[:axis] + "p" + letters[axis + 1 :]
        if var == "u":
            out = out + np.einsum(f"...{letters[axis]}ap,...{src}->...a{letters}", G, T)
        else:
            out = out - np.einsum(f"...pa{letters[axis]},...{src}->...a{letters}", G, T)
    return out


def _einsum_geometry(chart, X):
    """nabla J and R at the points ``X``."""
    g, G = _einsum_christoffel(chart, X)
    gammas = (_einsum_christoffel(chart, Y)[1:] for Y in charts._stencil(X))
    (dG,) = charts._difference(gammas)
    R_up = (
        np.einsum("...iqjk->...ijkq", dG)
        - np.einsum("...jqik->...ijkq", dG)
        + np.einsum("...pjk,...qip->...ijkq", G, G)
        - np.einsum("...pik,...qjp->...ijkq", G, G)
    )
    nJ = _einsum_covariant(G, chart.J_at(X), charts._complex_step(chart.J_at, X), "ul")
    return nJ, np.einsum("...ijkq,...ql->...ijkl", R_up, g)


def _assert_close(new, ref, scale=None):
    """Agreement to 1e-12 of ``scale``, by default the largest entry of ``ref``."""
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= 1e-12 * (scale or np.max(np.abs(ref)))


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("desc", _PINNED_CHARTS)
def test_matmul_contractions_match_their_einsum_forms(desc, batch):
    chart = make_chart(desc)
    n = chart.n
    X = chart.sample_points(41, 6)[: int(np.prod(batch))].reshape(batch + (n,))
    g, G = charts._christoffel(chart, X)
    g_ref, G_ref = _einsum_christoffel(chart, X)
    assert np.array_equal(g, g_ref)
    _assert_close(G, G_ref)

    ((_, _, _, nJ, R),) = charts._geometry(chart, X[None])
    nJ_ref, R_ref = _einsum_geometry(chart, X)
    # on the Kahler CP(5,1) nabla J vanishes and both forms read rounding, so
    # it is measured against the size of its Gamma J terms
    _assert_close(nJ, nJ_ref, np.max(np.abs(G_ref)) * np.max(np.abs(chart.J_at(X))))
    _assert_close(R, R_ref)

    rng = np.random.default_rng(43)
    for variance in ("ul", "ll", "llll"):
        rank = (n,) * len(variance)
        T, dT = rng.standard_normal(batch + rank), rng.standard_normal(batch + (n,) + rank)
        _assert_close(charts._covariant(G, T, dT, variance),
                      _einsum_covariant(G_ref, T, dT, variance))


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_s6_curvature_matches_constant_curvature_model(c):
    chart = make_chart(f"S6({c})")
    for x in chart.sample_points(5, 3):
        geo = geometry_at(chart, x)
        point, R = geo.point, geo.R
        target = space_form_tensor(point, c)
        rel = invariant_norm(point, R - target) / invariant_norm(point, target)
        assert rel < FDConfig.tol_fd2
        assert R.symmetry_defect < FDConfig.tol_fd2


def test_s6_curvature_is_rk_and_star_related():
    chart = make_chart("S6(1)")
    x = chart.sample_points(7, 1)[0]
    geo = geometry_at(chart, x)
    point, R = geo.point, geo.R
    tol = FDConfig.tol_fd2
    rk_bochner(point, R, sym_tol=tol, rk_tol=tol)  # raises NotRKError beyond tol from RK
    fam = ricci_family(point, R, sym_tol=tol)
    star_relation = 4.0 * fam.S_star - (fam.S + 3.0 * fam.S_prime)
    assert _norm(point.g_inv, star_relation) < tol


def test_s6_nearly_kahler_not_kahler():
    chart = make_chart("S6(1)")
    x = chart.sample_points(9, 1)[0]
    point = validate_point(chart.metric_at(x), chart.J_at(x))
    g = point.g
    nJ = geometry_at(chart, x).nJ
    rng = np.random.default_rng(0)
    worst_xx, worst_xy = 0.0, 0.0
    for _ in range(32):
        X, Y = rng.standard_normal((2, 6))
        X /= np.sqrt(X @ g @ X)
        Y /= np.sqrt(Y @ g @ Y)
        vxx = np.einsum("akj,a,j->k", nJ, X, X)
        vxy = np.einsum("akj,a,j->k", nJ, X, Y)
        worst_xx = max(worst_xx, float(np.sqrt(vxx @ g @ vxx)))
        worst_xy = max(worst_xy, float(np.sqrt(vxy @ g @ vxy)))
    assert worst_xx < FDConfig.tol_fd1
    assert worst_xy > 0.1  # scale sqrt(c) with c = 1


def test_s6_nabla_j_pairing_antisymmetric():
    """g((nabla_X J)Y, Z) = -g((nabla_X J)Z, Y) on nearly Kahler charts."""
    chart = make_chart("S6(1)")
    x = chart.sample_points(29, 1)[0]
    point = validate_point(chart.metric_at(x), chart.J_at(x))
    nJ = geometry_at(chart, x).nJ
    pairing = np.einsum("apb,pc->abc", nJ, point.g)
    assert np.max(np.abs(pairing + pairing.transpose(0, 2, 1))) < FDConfig.tol_fd1


def test_s6_ricci_difference_from_nabla_j():
    """(S - S')(X, X) equals the frame sum of |(nabla_X J) E_i|^2."""
    chart = make_chart("S6(1)")
    x = chart.sample_points(11, 1)[0]
    geo = geometry_at(chart, x)
    point, R, nJ = geo.point, geo.R, geo.nJ
    g, gi = point.g, point.g_inv
    S = np.einsum("bc,abcd->ad", gi, R.components)
    Sp = np.einsum("bc,pc,ql,abpq->al", gi, point.J, point.J, R.components)
    # sum_i g((nabla_X J) E_i, (nabla_Y J) E_i) as a metric contraction
    pairing = np.einsum("apb,pq,cqd,bd->ac", nJ, g, nJ, gi)
    assert np.max(np.abs((S - Sp) - pairing)) < FDConfig.tol_fd1


# ---------------------------------------------------------------------------
# complex space form charts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("desc,mu", [("CP(3,4)", 4.0), ("CP(2,1)", 1.0), ("CD(2,-1)", -1.0)])
def test_complex_space_form_charts(desc, mu):
    chart = make_chart(desc)
    for x in chart.sample_points(13, 2):
        geo = geometry_at(chart, x)
        point, R = geo.point, geo.R
        target = complex_space_form_tensor(point, mu)
        rel = invariant_norm(point, R - target) / invariant_norm(point, target)
        assert rel < FDConfig.tol_fd2


@pytest.mark.parametrize("desc", ["CP(2,4)", "CD(1,-2)"])
def test_kahler_charts_have_parallel_j(desc):
    chart = make_chart(desc)
    x = chart.sample_points(15, 1)[0]
    nJ = geometry_at(chart, x).nJ
    assert np.max(np.abs(nJ)) < FDConfig.tol_fd1


# ---------------------------------------------------------------------------
# products and margins
# ---------------------------------------------------------------------------

def test_product_chart_mixed_curvature_vanishes():
    chart = make_chart("PRODUCT(CD(1,-1),S6(1))")
    assert chart.n == 8
    x = chart.sample_points(17, 1)[0]
    geo = geometry_at(chart, x)
    point, R = geo.point, geo.R
    A = np.array(R.components)
    A[:2, :2, :2, :2] = 0.0
    A[2:, 2:, 2:, 2:] = 0.0
    assert np.max(np.abs(A)) < FDConfig.tol_fd1


def test_product_sampler_respects_factor_margins():
    chart = make_chart("PRODUCT(CD(1,-0.5),CD(1,-0.5))")
    pts = chart.sample_points(19, 50)
    assert np.all(np.linalg.norm(pts[:, :2], axis=1) <= 0.5 + 1e-12)
    assert np.all(np.linalg.norm(pts[:, 2:], axis=1) <= 0.5 + 1e-12)


def test_margin_error_near_ball_boundary():
    chart = make_chart("CD(1,-1)")
    x = np.array([0.999, 0.0])
    with pytest.raises(MarginError):
        geometry_at(chart, x)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def test_nk_suite_on_s6():
    chart = make_chart("S6(1)")
    x = chart.sample_points(21, 1)[0]
    rep = nk_identity_suite(chart, geometry_at(chart, x))
    assert rep.nk < FDConfig.tol_fd1
    for value in (rep.id_1_1, rep.id_1_2, rep.id_1_3, rep.id_1_5, rep.id_3_2, rep.id_3_3):
        assert value < FDConfig.tol_fd2


def test_nk_suite_on_cp_kahler():
    chart = make_chart("CP(3,4)")
    x = chart.sample_points(23, 1)[0]
    rep = nk_identity_suite(chart, geometry_at(chart, x))
    assert rep.nk < FDConfig.tol_fd1
    assert rep.id_1_1 < FDConfig.tol_fd2  # both sides vanish
    assert rep.id_1_2 < FDConfig.tol_fd2
    assert rep.id_3_2 < FDConfig.tol_fd2
    # tau = 5 tau' fails on a Kahler model: tau = tau' = mu m (m+1) = 48
    assert rep.id_3_3 == pytest.approx(4 * 48.0, rel=1e-6)


def test_nk_suite_rejects_non_nearly_kahler_chart():
    """A non-constant conformal factor with the constant block J is Hermitian
    but not Kahler, hence not nearly Kahler either."""
    n = 4
    J0 = standard_J(n)
    chart = ChartModel(
        label="conformal",
        n=n,
        metric_at=lambda x: (1.0 + np.sum(x * x, -1))[..., None, None] * np.eye(n),
        J_at=lambda x: np.broadcast_to(J0, x.shape[:-1] + J0.shape).copy(),
    )
    x = np.array([0.3, 0.2, -0.1, 0.4])
    with pytest.raises(NotNearlyKahlerError) as err:
        nk_identity_suite(chart, geometry_at(chart, x))
    assert err.value.defect > 0.1


@pytest.mark.parametrize("desc", ["S6(1)", "CE(3)", "CP(3,4)"])
def test_bianchi_suite(desc):
    chart = make_chart(desc)
    x = chart.sample_points(25, 1)[0]
    rep = nk_identity_suite(chart, geometry_at(chart, x))
    assert rep.id_1_4 < FDConfig.tol_fd2
    assert rep.id_1_6 < FDConfig.tol_fd2
    assert rep.id_1_7 < FDConfig.tol_fd2


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_pointwise_identities_from_curvature_match_the_suite(seed):
    """id_1_5, id_3_2 and id_3_3 read from the point and R of a geometry are
    the suite's, bit for bit: the suite evaluates them from the g, J and R at x
    that its geometry holds."""
    chart = make_chart("PRODUCT(CD(1,-1),S6(1))")
    geo = geometry_at(chart, chart.sample_points(seed, 1)[0])
    suite = nk_identity_suite(chart, geo)
    point, R = geo.point, geo.R
    pointwise = _ricci_identities(point, *_traces(point.g_inv, point.J, R.components)[:4])
    assert pointwise == (suite.id_1_5, suite.id_3_2, suite.id_3_3)


def test_suite_evaluates_curvature_once_per_stencil_point(monkeypatch):
    """One geometry evaluation yields the geometry once per step and sign on
    the n stencil points around x, two steps and so four batches, no more; the
    values at x, Gamma among them, come from its geometry, so x is no centre."""
    chart = make_chart("S6(1)")
    x = chart.sample_points(25, 1)[0]
    geo = geometry_at(chart, x)
    centres, batches, gamma_at_x = [], [], []
    geometry, christoffel = charts._geometry, charts._christoffel

    def counted(chart, C):
        centres.append(C)
        for batch in geometry(chart, C):
            batches.append(batch[0].shape[0])
            yield batch

    def counted_christoffel(chart, Y):
        if Y.ndim == 1:
            gamma_at_x.append(Y)
        return christoffel(chart, Y)

    monkeypatch.setattr(charts, "_geometry", counted)
    monkeypatch.setattr(charts, "_christoffel", counted_christoffel)
    monkeypatch.setattr(charts, "geometry_at", None)  # the suite never calls it
    nk_identity_suite(chart, geo)
    assert len(centres) == 1 and np.array_equal(centres[0], charts._stencil(x))
    assert not np.any(np.all(centres[0] == x, axis=-1))
    assert batches == [chart.n] * 4
    assert gamma_at_x == []


def _grid_size(x):
    """The distinct points of the suite's two-level grid around ``x``, from the
    offsets o in {+/-h/2, +/-h} alone.

    A point moved in two coordinates, x + o1 e_i + o2 e_j with i < j, is one
    point for both orders.  A point moved in coordinate i alone is a first-level
    centre x_i + o or a diagonal (x_i + o1) + o2, and those merge only where
    their values agree; all of them that land back on x_i are x.
    """
    offsets = [o for s in charts._steps() for o in (s, -s)]
    n, x = len(x), x.tolist()
    moved = [{v + o for o in offsets} | {(v + o1) + o2 for o1 in offsets for o2 in offsets}
             for v in x]
    at_x = any(v in values for v, values in zip(x, moved))
    return n * (n - 1) // 2 * len(offsets) ** 2 + sum(len(m - {v}) for v, m in zip(x, moved)) + at_x


def _counted_christoffel(monkeypatch):
    """Patch ``charts._christoffel`` to record the points of each call."""
    calls, christoffel = [], charts._christoffel

    def counted(chart, Y):
        calls.append(np.array(Y))
        return christoffel(chart, Y)

    monkeypatch.setattr(charts, "_christoffel", counted)
    return calls


@pytest.mark.parametrize(
    "desc, distinct, grid",
    [("CP(5,1)", (803,), (1640,)), ("PRODUCT(CD(2,-1),S6(1))", (131, 289), (272, 600)),
     ("S6(1)", (291,), (600,))],
    ids=lambda v: "+".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_suite_evaluates_gamma_once_per_distinct_grid_point(monkeypatch, desc, distinct, grid):
    """The unmerged grid has 4n centres and 16n^2 points around them, which
    each batch evaluated afresh.  Merged, 16 n(n - 1)/2 points moved in two
    coordinates, the 4n centres, the 4n diagonals at +/-3h/2 and +/-2h, and x
    make 801 at n = 10 and 289 at n = 6.  At the seed-7 point two of the
    coincidences among the diagonal sums fail in the last bit, which adds a
    point each.  The calls are as many as MAX_DIM^2 = 144 points of the unmerged
    grid would fill, so their count does not depend on which points merge:
    ceil(1,640 / 144) = 12 on CP(5,1) and ceil(600 / 144) = 5 on S6(1) (17 and
    17 while calls held at most n^2 points).

    A product evaluates Gamma on each leaf alone, on the suite grid around the
    leaf's own coordinates x_f: 4 n_f + 16 n_f^2 = 272 and 600 points for
    n_f = 4 and 6, in ceil(272 / 144) + ceil(600 / 144) = 2 + 5 = 7 calls (17,
    7 + 10, while each leaf was evaluated on the product's 4n centres, n = 10,
    at 680 and 1,000 points).  Merged, 129 + 2 and 289 points, where the full
    product had 803."""
    chart = make_chart(desc)
    x = chart.sample_points(7, 1)[0]
    geo = geometry_at(chart, x)
    calls = _counted_christoffel(monkeypatch)
    nk_identity_suite(chart, geo)
    assert all(Y.ndim == 2 and 1 <= len(Y) <= charts.MAX_DIM**2 for Y in calls)
    leaves = chart.factors or (chart,)
    assert len(calls) == sum(-(-size // charts.MAX_DIM**2) for size in grid)
    ends = np.cumsum([leaf.n for leaf in leaves])
    for leaf, end, merged, size in zip(leaves, ends, distinct, grid, strict=True):
        own = [Y for Y in calls if Y.shape[-1] == leaf.n]  # the leaves differ in dimension
        assert len(own) == -(-size // charts.MAX_DIM**2)
        assert size == 4 * leaf.n + 16 * leaf.n**2
        points = np.concatenate(own)
        x_leaf = x[end - leaf.n : end]
        assert len(points) == len({p.tobytes() for p in points}) == merged
        assert merged == _grid_size(x_leaf)


def test_product_suite_evaluates_each_leaf_on_its_own_stencil_alone(monkeypatch):
    """Each leaf of a product is differentiated on the stencil of its own
    coordinates of x alone: its J calls take batches of n_leaf centres, 4 and 6
    (10 while each leaf was evaluated at every centre of the product, 8 of 20
    leaf rows per batch repeats of x_leaf), 8 J calls per leaf, and its Gamma
    points are, bit for bit and in order, those of the suite on the leaf chart
    alone at x_leaf: no point moved along the other factor."""
    batches = {}

    def recording(leaf):
        def J_at(X):
            batches.setdefault(leaf.label, []).append(X.shape[0])
            return leaf.J_at(X)

        return dataclasses.replace(leaf, J_at=J_at)

    chart = make_chart("PRODUCT(CD(2,-1),S6(1))")
    chart = dataclasses.replace(chart, factors=tuple(map(recording, chart.factors)))
    x = chart.sample_points(7, 1)[0]
    geo = geometry_at(chart, x)
    batches.clear()
    calls = _counted_christoffel(monkeypatch)
    nk_identity_suite(chart, geo)
    own = {n: np.concatenate([Y for Y in calls if Y.shape[-1] == n]) for n in (4, 6)}
    for leaf, sl in zip(chart.factors, (slice(0, 4), slice(4, 10)), strict=True):
        # per batch one J call on its centres and one on their complex steps
        assert batches[leaf.label] == [leaf.n] * 8
        alone = make_chart(leaf.label)
        geo_alone = geometry_at(alone, x[sl])
        start = len(calls)
        nk_identity_suite(alone, geo_alone)
        assert np.array_equal(own[leaf.n], np.concatenate(calls[start:]))
        assert len(own[leaf.n]) == _grid_size(x[sl])


def test_diagonal_sums_that_differ_in_the_last_bit_are_both_evaluated(monkeypatch):
    """(0.5 + h/2) + h/2 rounds one ulp below 0.5 + h at h = 1e-3, so the
    diagonal point and the first-level centre are two points; at 0.25 the two
    sums agree and are one point."""
    h = FDConfig.h
    assert (0.5 + h / 2) + h / 2 != 0.5 + h and (0.25 + h / 2) + h / 2 == 0.25 + h
    chart = make_chart("CP(2,1)")
    x = np.array([0.5, 0.25, 0.1, -0.2])
    geo = geometry_at(chart, x)
    calls = _counted_christoffel(monkeypatch)
    nk_identity_suite(chart, geo)
    seen = [p.tobytes() for p in np.concatenate(calls)]

    def moved(i, v):
        y = x.copy()
        y[i] = v
        return y.tobytes()

    for i, v in ((0, 0.5), (1, 0.25)):
        assert seen.count(moved(i, (v + h / 2) + h / 2)) == seen.count(moved(i, v + h)) == 1
    assert len(seen) == len(set(seen)) == _grid_size(x)


def _block_diagonal(blocks, b):
    """Zeros with each block, whose first ``b`` axes are batch axes, written on
    its own coordinates, in order."""
    n, rank = sum(B.shape[-1] for B in blocks), blocks[0].ndim - b
    out, offset = np.zeros(blocks[0].shape[:b] + (n,) * rank), 0
    for B in blocks:
        out[(...,) + np.ix_(*[np.arange(offset, offset + B.shape[-1])] * rank)] = B
        offset += B.shape[-1]
    return out


def _nested_geometry(chart, C):
    """The nested formulation the grid replaced: at each batch of the centres
    ``C`` of a leaf chart, Gamma evaluated afresh at every point of each step
    and sign."""
    eye = np.eye(chart.n)
    for X in C:
        g, G = charts._christoffel(chart, X)

        def central(s):
            p = charts._christoffel(chart, X[..., None, :] + s * eye)[1]
            m = charts._christoffel(chart, X[..., None, :] - s * eye)[1]
            return (p - m) / (2.0 * s)

        dG = (4.0 * central(FDConfig.h / 2) - central(FDConfig.h)) / 3.0
        J = chart.J_at(X)
        nJ = charts._covariant(G, J, charts._complex_step(chart.J_at, X), "ul")
        yield g, J, G, nJ, charts._curvature(g, G, dG)


@pytest.mark.parametrize("desc", ["CP(5,1)", "PRODUCT(CD(2,-1),S6(1))", "S6(1)", "CE(3)"])
def test_grid_matches_the_nested_formulation_bit_for_bit(monkeypatch, desc):
    chart = make_chart(desc)
    x = chart.sample_points(7, 1)[0]
    geo = geometry_at(chart, x)
    suite = nk_identity_suite(chart, geo)
    monkeypatch.setattr(charts, "_geometry", _nested_geometry)
    ref = geometry_at(chart, x)
    assert np.array_equal(geo.R.components, ref.R.components)
    assert np.array_equal(geo.G, ref.G) and np.array_equal(geo.nJ, ref.nJ)
    assert dataclasses.astuple(suite) == dataclasses.astuple(nk_identity_suite(chart, ref))



_PRODUCTS = [
    "PRODUCT(CD(2,-1),S6(1))", "PRODUCT(CD(1,-1),CP(2,1))",
    "PRODUCT(PRODUCT(CD(1,-1),CD(1,-1)),S6(1))",
    # a real constant block ahead of a complex-stepped one: the assembled field
    # must keep the second block's imaginary part
    "PRODUCT(CE(1),S6(1))",
]


def _leaves(chart):
    """The leaf charts of ``chart`` in the order of their coordinates."""
    return [leaf for f in chart.factors for leaf in _leaves(f)] if chart.factors else [chart]


@pytest.mark.parametrize("desc", _PRODUCTS)
def test_product_geometry_is_the_block_assembly_of_its_leaves(monkeypatch, desc):
    """g, J, Gamma, nabla J and R of a product at x, and the suite's
    differentiated fields dR, dS, d(S - S'), dtau, d(tau - tau') and d nabla J,
    are the block-diagonal assembly over all their axes of each leaf chart's, on
    its own coordinates, bit for bit: each leaf's geometry at x_leaf, and its
    one difference pass over the stencil of x_leaf.  A nested product is
    flattened to its leaves."""
    chart = make_chart(desc)
    x = chart.sample_points(7, 1)[0]
    leaves = _leaves(chart)
    coords = [slice(e - leaf.n, e) for leaf, e in zip(leaves, np.cumsum([f.n for f in leaves]))]
    geo = geometry_at(chart, x)
    parts = [geometry_at(leaf, x[sl]) for leaf, sl in zip(leaves, coords)]
    for field in (lambda g: g.point.g, lambda g: g.point.J, lambda g: g.G, lambda g: g.nJ,
                  lambda g: g.R.components):
        assert np.array_equal(field(geo), _block_diagonal([field(p) for p in parts], 0))
    seen, assembled = [], charts._assembled

    def recorded(part, y, leaf):
        out = assembled(part, y, leaf)
        if part is chart:
            seen.append(out)
        return out

    monkeypatch.setattr(charts, "_assembled", recorded)
    nk_identity_suite(chart, geo)
    (fields,) = seen
    per_leaf = [charts._difference(map(charts._fields, charts._geometry(leaf, charts._stencil(y))))
                for leaf, y in zip(leaves, (x[sl] for sl in coords))]
    for field, blocks in zip(fields, zip(*per_leaf), strict=True):
        assert np.array_equal(field, _block_diagonal(blocks, 0))


@pytest.mark.parametrize("desc", _PRODUCTS)
def test_product_geometry_agrees_with_the_whole_product_chart(desc):
    """The product read as one chart of its block fields (``factors`` dropped)
    is the evaluation the block assembly replaced.  g and J agree exactly.
    Gamma and nabla J differ by rounding of the full-size inverse metric, and R
    and the suite residuals by that rounding divided by the step.  Measured at
    seeds 0-11: at most 2.2e-16 in Gamma, 2.8e-17 in nabla J, 4.8e-14 of
    max|R| in R and 6.7e-10 in a suite residual (PRODUCT(CD(1,-1),CP(2,1))),
    against a tol_fd2 of 1e-4."""
    chart = make_chart(desc)
    whole = dataclasses.replace(chart, factors=())
    for seed in range(12):
        x = chart.sample_points(seed, 1)[0]
        new, old = geometry_at(chart, x), geometry_at(whole, x)
        assert np.array_equal(new.point.g, old.point.g)
        assert np.array_equal(new.point.J, old.point.J)
        assert np.max(np.abs(new.G - old.G)) <= 1e-15
        assert np.max(np.abs(new.nJ - old.nJ)) <= 1e-15
        R_new, R_old = new.R.components, old.R.components
        assert np.max(np.abs(R_new - R_old)) <= 1e-12 * np.max(np.abs(R_old))
        residuals = zip(dataclasses.astuple(nk_identity_suite(chart, new)),
                        dataclasses.astuple(nk_identity_suite(whole, old)))
        assert max(abs(a - b) for a, b in residuals) <= 5e-9


@pytest.mark.parametrize(
    "desc", ["PRODUCT(CE(1),CE(1))", "PRODUCT(CD(1,-1),CP(2,1))",
             "PRODUCT(PRODUCT(CD(1,-1),CD(1,-1)),S6(1))"],
)
def test_every_leaf_gamma_call_holds_1_to_n_squared_points(monkeypatch, desc):
    """A product's leaves evaluate Gamma in calls of at most n^2 points, n =
    MAX_DIM = 12 the largest dimension, and never in an empty call, down to
    2-dimensional leaves in the smallest product (n = 4) and in a nested one.
    At x each leaf's 4 n_f + 1 points take one call; in the suite each leaf's
    calls are as many as its own unmerged grid of 4 n_f + 16 n_f^2 points
    fills, at every seed: 1 for n_f = 2 (72 points) and n_f = 4 (272), 5 for
    n_f = 6 (600)."""
    chart = make_chart(desc)
    leaves = _leaves(chart)
    calls, shapes = _counted_christoffel(monkeypatch), []
    for seed in (0, 7, 11):
        start = len(calls)
        nk_identity_suite(chart, geometry_at(chart, chart.sample_points(seed, 1)[0]))
        assert all(Y.ndim == 2 and 1 <= len(Y) <= charts.MAX_DIM**2 for Y in calls[start:])
        shapes.append([Y.shape[-1] for Y in calls[start:]])
    assert shapes[0] == shapes[1] == shapes[2]
    suite_calls = [-(-(4 * leaf.n + 16 * leaf.n**2) // charts.MAX_DIM**2) for leaf in leaves]
    suite = [leaf.n for leaf, k in zip(leaves, suite_calls) for _ in range(k)]
    assert shapes[0] == [leaf.n for leaf in leaves] + suite

def _perturbed_off(chart, x, field, perturb):
    """``chart`` with ``field`` passed through ``perturb`` at every point but ``x``."""
    def at(y):
        value = getattr(chart, field)(y)
        away = ~np.all(y == x, axis=-1)[..., None, None]
        return np.where(away, perturb(value, y), value)

    return dataclasses.replace(chart, **{field: at})


def test_suite_validates_every_stencil_point():
    """J scaled by 1.001 off x breaks J^2 = -1 on the stencil only; the
    constant J keeps nabla J zero, so the nearly Kahler check passes first."""
    chart = make_chart("CP(3,4)")
    x = chart.sample_points(23, 1)[0]
    bad = _perturbed_off(chart, x, "J_at", lambda J, y: 1.001 * J)
    with pytest.raises(PointValidationError) as err:
        nk_identity_suite(bad, geometry_at(bad, x))
    assert "J squares to -identity" in [v.invariant for v in err.value.violations]


def test_suite_rejects_non_finite_stencil_curvature():
    """The curvature at x reads the metric up to h away and the curvature on
    the stencil up to 2h: a metric that is NaN beyond 1.5h leaves (g, J) on
    the stencil and R at x finite, and only the stencil curvature is not."""
    chart = make_chart("CP(3,4)")
    x = chart.sample_points(23, 1)[0]
    far = lambda g, y: np.where(
        (np.max(np.abs(y - x), axis=-1) > 1.5 * FDConfig.h)[..., None, None], np.nan, g
    )
    bad = _perturbed_off(chart, x, "metric_at", far)
    with pytest.raises(NonFiniteError):
        nk_identity_suite(bad, geometry_at(bad, x))


def test_id_1_1_fourth_order_convergence(monkeypatch):
    """Each halving of h from 3.2e-2 down to the default 1e-3 cuts the residual
    of the pairing identity by >= 12, a fourth-order scheme's 16 within
    rounding (15.9-16.3 measured at seeds 7 and 27)."""
    chart = make_chart("S6(1)")
    x = chart.sample_points(27, 1)[0]
    residuals = []
    for h in (3.2e-2, 1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3):
        monkeypatch.setattr(FDConfig, "h", h)
        residuals.append(nk_identity_suite(chart, geometry_at(chart, x)).id_1_1)
    for coarse, fine in zip(residuals, residuals[1:]):
        assert coarse / fine >= 12.0


def test_difference_differentiates_each_field_of_a_tuple():
    """One derivative array per field, in order, with the derivative index right
    after the batch axes; the Richardson-extrapolated central difference is
    exact on a quadratic and on a cubic, up to rounding."""
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 3, 4))
    field = lambda X: (X[..., :, None] * X[..., None, :], np.sum(X**3, axis=-1))
    eye = np.eye(4)
    d_outer = eye[:, :, None] * x[..., None, None, :] + x[..., None, :, None] * eye[:, None, :]
    derivatives = charts._difference(map(field, charts._stencil(x)))
    assert [d.shape for d in derivatives] == [(2, 3, 4, 4, 4), (2, 3, 4)]
    np.testing.assert_allclose(derivatives[0], d_outer, rtol=0, atol=1e-10)
    np.testing.assert_allclose(derivatives[1], 3.0 * x**2, rtol=0, atol=1e-10)


SWEEP_STEPS = (8e-3, 4e-3, 2e-3, 1e-3, 5e-4)


def _s6_sweep(monkeypatch):
    """id_1_1, id_1_3, id_1_4 and the relative deviation of R from c * pi1 on
    S6(1) at the seed-7 point, one row per step of ``SWEEP_STEPS``."""
    spec = parse_model_spec("S6(1)")
    chart = make_chart(spec)
    x = chart.sample_points(7, 1)[0]
    rows = []
    for h in SWEEP_STEPS:
        monkeypatch.setattr(FDConfig, "h", h)
        geo = geometry_at(chart, x)
        suite = nk_identity_suite(chart, geo)
        target = space_form_tensor(geo.point, spec.c)
        rel = invariant_norm(geo.point, geo.R - target) / invariant_norm(geo.point, target)
        rows.append((suite.id_1_1, suite.id_1_3, suite.id_1_4, rel))
    return dict(zip(SWEEP_STEPS, rows))


def test_fd_step_sweep_on_s6(monkeypatch):
    """The scheme is fourth order in the pairing identity at every halving down
    to the default step; below it rounding takes over.  The residuals nearest
    their gates stay far below tol_fd2 at the default step and twice it, and
    id_1_3 is smallest at h = 2e-3: below it the rounding of the outer levels
    outgrows truncation."""
    sweep = _s6_sweep(monkeypatch)
    for coarse, fine in zip(SWEEP_STEPS, SWEEP_STEPS[1:4]):
        assert sweep[coarse][0] / sweep[fine][0] >= 12.0
    for h in (2e-3, 1e-3):
        assert max(sweep[h]) < 1e-4
    assert min(SWEEP_STEPS, key=lambda h: sweep[h][1]) == 2e-3


def test_step_that_collapses_the_stencil_is_rejected():
    """The doubles near 1e13 are 2**-9 apart, so x +/- h/2 rounds back to x
    there: a library caller's far-out point is named with the step, not blamed
    on the identities.  Near 1e12, 2**-13 apart, the offsets still move x."""
    chart = make_chart("CE(2)")
    with pytest.raises(FDConfigError) as err:
        geometry_at(chart, np.array([1e13, 0.0, 0.0, 0.0]))
    assert str(err.value) == (
        "step h = 0.001 collapses the stencil: x[0] +/- 0.0005 both round to x[0] = 1e+13"
    )
    geometry_at(chart, np.array([1e12, 0.0, 0.0, 0.0]))


def test_fd_config_validation():
    """The policy takes no arguments: a step is not a setting."""
    with pytest.raises(TypeError):
        FDConfig(h=2e-3)
    with pytest.raises(TypeError):
        FDConfig(richardson=False)


def test_fd_config_holds_the_step_policy_alone():
    # constants only; the gates belong to ToleranceConfig and their defaults
    # stay readable here
    assert dataclasses.fields(FDConfig) == ()
    assert FDConfig.h == 1e-3 and FDConfig().h == 1e-3
    with pytest.raises(TypeError):
        FDConfig(tol_fd1=1e-6)
    assert FDConfig().tol_fd1 == 1e-6 and FDConfig.tol_fd2 == 1e-4
