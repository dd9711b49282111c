"""Geometry from exact jet derivatives on the model charts."""

import dataclasses
import re
from itertools import product

import numpy as np
import pytest

import fd_reference as fd
from bochnerkit import charts
from bochnerkit._jet import Jet
from bochnerkit.bochner import rk_bochner
from bochnerkit.charts import (
    ChartModel,
    ChartSpec,
    ChartSpecError,
    FDConfig,
    MarginError,
    NKIdentityReport,
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
    DimensionMismatchError,
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
        # the fields are analytic, as their jets need: a complex step agrees
        # with a real central difference at h = 1e-6
        h, eye = 1e-6, np.eye(chart.n)
        central = (field(X[..., None, :] + h * eye) - field(X[..., None, :] - h * eye)) / (2 * h)
        exact = fd.complex_step(field, X)
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
        count["points"] += int(np.prod(x.shape[:-1]))
        return chart.metric_at(x)

    def J_at(x):
        count["J_calls"] += 1
        return chart.J_at(x)

    return dataclasses.replace(chart, metric_at=metric_at, J_at=J_at), count


def test_curvature_makes_a_fixed_number_of_metric_calls():
    """The geometry at x evaluates the metric once, on its order-2 jets: one
    point per index pair i <= j, n(n + 1)/2 of them, so the call count does not
    grow with the dimension."""
    counts = {}
    for desc in ("S6(1)", "CP(5,1)", "CE(1)"):
        chart, count = _counted_metric(make_chart(desc))
        geometry_at(chart, chart.sample_points(3, 1)[0])
        counts[desc] = count
    # g, dg and d2g from one call; lowering R and validating the point reuse its
    # g.  (2 calls of 4n + 1 points while Gamma was differenced on a stencil, 10
    # while x and each step and sign were separate calls, 25 with a
    # real-difference Gamma)
    assert counts["S6(1)"]["calls"] == counts["CP(5,1)"]["calls"] == counts["CE(1)"]["calls"] == 1
    # n(n + 1)/2 jet points: 21 at n = 6, 55 at n = 10 (175 and 451 metric points
    # while Gamma was differenced on a stencil)
    assert counts["S6(1)"]["points"] == 21
    assert counts["CP(5,1)"]["points"] == 55


def test_suite_metric_calls_stay_batched():
    """The suite at x makes one metric call, on the n(n + 1)(n + 2)/6 order-3
    jets (220 at n = 10), and one J call, on its order-2 jets; g, J, Gamma,
    nabla J and R at x come from the same jets.  (2 and 2 calls, 55 + 220 = 275
    metric points on CP(5,1), while the suite took a geometry_at evaluated
    beside it; 26 calls, 10 J calls and 9,262 points while the suite differenced
    the geometry on a two-level stencil grid, 70,766 single-point calls before
    batching.)  The geometry at x alone is one call of each, on order-2 jets."""
    for desc, points in (("CP(5,1)", 220), ("S6(1)", 56)):
        chart, count = _counted_metric(make_chart(desc))
        x = chart.sample_points(3, 1)[0]
        nk_identity_suite(chart, x)
        assert (count["calls"], count["J_calls"], count["points"]) == (1, 1, points)
        geometry_at(chart, x)
        pairs = chart.n * (chart.n + 1) // 2
        assert (count["calls"], count["J_calls"], count["points"]) == (2, 2, points + pairs)


@pytest.mark.parametrize("desc", ["S6(1)", "CP(5,1)"])
def test_derivative_evaluators_make_fixed_call_counts(desc):
    """R and nabla J at x cost one metric call and one J call, on their jets (2
    and 2 while Gamma at x and its stencil took a call and a complex-step call;
    the nabla^2 J of the deleted j_derivatives_at cost 8 metric and 20 J calls)."""
    chart, count = _counted_metric(make_chart(desc))
    geometry_at(chart, chart.sample_points(3, 1)[0])
    assert (count["calls"], count["J_calls"]) == (1, 1)


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
    assert nk_identity_suite(chart, chart.sample_points(0, 1)[0]).id_1_2 == 0.0


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


def _stacked_jets(chart, X):
    """g, dg, d2g, J and dJ at each point of ``X`` (..., n), batch axes first;
    a product's are the block-diagonal assembly of its leaves', in every axis."""
    def leaf(part, y):
        return (*charts._jets(part.metric_at, y, 2), *charts._jets(part.J_at, y, 1))

    points = [charts._assembled(chart, x, leaf) for x in X.reshape(-1, chart.n)]
    return [np.array(f).reshape(X.shape[:-1] + f[0].shape) for f in zip(*points)]


@pytest.mark.parametrize(
    "desc", ["CE(2)", "S6(1)", "CP(3,1)", "CD(2,-1)", "PRODUCT(CD(1,-1),S6(1))"]
)
def test_christoffel_is_exactly_symmetric_at_every_batch_size(desc):
    """Gamma^k_{ij} and Gamma^k_{ji} agree in every bit, in every batch size of
    ``_pointwise``: the jet product is commutative in every bit, so the
    derivatives of g are exactly symmetric in its two indices."""
    chart = make_chart(desc)
    for size in (1, 7, chart.n**2):
        G, _, _ = charts._pointwise(*_stacked_jets(chart, chart.sample_points(size, size)))
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


def _einsum_pointwise(g, dg, d2g, J, dJ):
    """Gamma, nabla J and R from the fields and their derivatives at the points."""
    g_inv = np.linalg.inv(g)
    t = dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)
    dt = d2g + np.einsum("...ajil->...aijl", d2g) - np.einsum("...alij->...aijl", d2g)
    G = 0.5 * np.einsum("...kl,...ijl->...kij", g_inv, t)
    dG = np.einsum("...kl,...aijl->...akij", g_inv, 0.5 * dt
                   - np.einsum("...alq,...qij->...aijl", dg, G))
    R_up = (
        np.einsum("...iqjk->...ijkq", dG)
        - np.einsum("...jqik->...ijkq", dG)
        + np.einsum("...pjk,...qip->...ijkq", G, G)
        - np.einsum("...pik,...qjp->...ijkq", G, G)
    )
    return G, _einsum_covariant(G, J, dJ, "ul"), np.einsum("...ijkq,...ql->...ijkl", R_up, g)


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
    jets = _stacked_jets(chart, X)
    G, nJ, R = charts._pointwise(*jets)
    G_ref, nJ_ref, R_ref = _einsum_pointwise(*jets)
    _assert_close(G, G_ref)
    # on the Kahler CP(5,1) nabla J vanishes and both forms read rounding, so
    # it is measured against the size of its Gamma J terms
    _assert_close(nJ, nJ_ref, np.max(np.abs(G_ref)) * np.max(np.abs(jets[3])))
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
    rk_bochner(point, R)  # raises NotRKError off the RK class
    fam = ricci_family(point, R)
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
    """A point on the boundary of the CD ball lies outside the chart; one 1e-3
    inside it is a point of the chart like any other, since no stencil reaches out."""
    chart = make_chart("CD(1,-1)")
    with pytest.raises(MarginError):
        geometry_at(chart, np.array([1.0, 0.0]))
    geometry_at(chart, np.array([0.999, 0.0]))


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def test_nk_suite_on_s6():
    chart = make_chart("S6(1)")
    x = chart.sample_points(21, 1)[0]
    rep = nk_identity_suite(chart, x)
    assert rep.nk < FDConfig.tol_fd1
    for value in (rep.id_1_1, rep.id_1_2, rep.id_1_3, rep.id_1_5, rep.id_3_2, rep.id_3_3):
        assert value < FDConfig.tol_fd2


def test_nk_suite_on_cp_kahler():
    chart = make_chart("CP(3,4)")
    x = chart.sample_points(23, 1)[0]
    rep = nk_identity_suite(chart, x)
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
        nk_identity_suite(chart, x)
    assert err.value.defect > 0.1


@pytest.mark.parametrize("desc", ["S6(1)", "CE(3)", "CP(3,4)"])
def test_bianchi_suite(desc):
    chart = make_chart(desc)
    x = chart.sample_points(25, 1)[0]
    rep = nk_identity_suite(chart, x)
    assert rep.id_1_4 < FDConfig.tol_fd2
    assert rep.id_1_6 < FDConfig.tol_fd2
    assert rep.id_1_7 < FDConfig.tol_fd2


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_pointwise_identities_from_curvature_match_the_suite(seed):
    """id_1_5, id_3_2 and id_3_3 read from the point and R of a geometry are
    the suite's, bit for bit: the suite evaluates them from its own g, J and R
    at x, which are the geometry's."""
    chart = make_chart("PRODUCT(CD(1,-1),S6(1))")
    x = chart.sample_points(seed, 1)[0]
    geo, suite = geometry_at(chart, x), nk_identity_suite(chart, x)
    point, R = geo.point, geo.R
    pointwise = _ricci_identities(point, *_traces(point.g_inv, point.J, R.components)[:4])
    assert pointwise == (suite.id_1_5, suite.id_3_2, suite.id_3_3)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "desc", ["CE(2)", "S6(1)", "CP(3,1)", "CD(2,-1)", "PRODUCT(CD(2,-1),S6(1))"]
)
def test_suite_geometry_at_x_is_geometry_at_bit_for_bit(monkeypatch, desc, seed):
    """g, J, Gamma, nabla J and R that the suite builds at x from the lower
    coefficients of its order-3 and order-2 jets are the geometry_at values of
    the same point in every bit."""
    chart = make_chart(desc)
    x = chart.sample_points(seed, 1)[0]
    seen, assembled = [], charts._assembled

    def recorded(part, y, leaf):
        out = assembled(part, y, leaf)
        if part is chart:
            seen.append(out[:5])
        return out

    monkeypatch.setattr(charts, "_assembled", recorded)
    nk_identity_suite(chart, x)
    (at_x,) = seen
    geo = geometry_at(chart, x)
    for mine, theirs in zip(at_x, (geo.point.g, geo.point.J, geo.G, geo.nJ, geo.R.components),
                            strict=True):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


@pytest.mark.parametrize("desc", ["S6(1)", "PRODUCT(CD(1,-1),S6(1))"])
def test_a_point_of_the_wrong_shape_is_refused(desc):
    """A point must have the chart's shape (n,): one too long, one too short and
    a stack of points are refused by both entry points, naming n and the shape,
    before any field is evaluated.  A product used to slice an extra coordinate
    away and pass; a leaf failed in numpy's broadcasting."""
    chart = make_chart(desc)
    n = chart.n
    x = chart.sample_points(3, 2)
    for bad in (np.append(x[0], 0.1), x[0, :-1], x):
        for evaluate in (geometry_at, nk_identity_suite):
            with pytest.raises(DimensionMismatchError, match=re.escape(
                    f"shape ({n},), got {bad.shape}")):
                evaluate(chart, bad)


def _block_diagonal(blocks, b):
    """Zeros with each block, whose first ``b`` axes are batch axes, written on
    its own coordinates, in order."""
    n, rank = sum(B.shape[-1] for B in blocks), blocks[0].ndim - b
    out, offset = np.zeros(blocks[0].shape[:b] + (n,) * rank), 0
    for B in blocks:
        out[(...,) + np.ix_(*[np.arange(offset, offset + B.shape[-1])] * rank)] = B
        offset += B.shape[-1]
    return out


def test_product_suite_evaluates_each_leaf_at_its_own_coordinates_alone():
    """Each leaf of a product is evaluated on the jets of its own coordinates of
    x alone: one metric call and one J call for the suite, on jet points that
    are, bit for bit, those of the leaf chart alone at x_leaf: no point moved
    along the other factor."""
    calls = []

    def recording(leaf):
        def record(field):
            return lambda X: calls.append((leaf.label, field, X.tobytes())) or getattr(leaf, field)(X)

        return dataclasses.replace(leaf, metric_at=record("metric_at"), J_at=record("J_at"))

    chart = make_chart("PRODUCT(CD(2,-1),S6(1))")
    chart = dataclasses.replace(chart, factors=tuple(map(recording, chart.factors)))
    x = chart.sample_points(7, 1)[0]
    nk_identity_suite(chart, x)
    product_calls = list(calls)
    for leaf, sl in zip(chart.factors, (slice(0, 4), slice(4, 10)), strict=True):
        own = [c for c in product_calls if c[0] == leaf.label]
        assert [c[1] for c in own] == ["metric_at", "J_at"]
        calls.clear()
        nk_identity_suite(leaf, x[sl])
        assert own == calls


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
    """g, J, Gamma, nabla J and R of a product at x, in its geometry and in its
    suite, and the suite's differentiated fields dR, dS, d(S - S'), dtau,
    d(tau - tau') and d nabla J, are the block-diagonal assembly over all their
    axes of each leaf chart's, on its own coordinates, bit for bit: each leaf's
    geometry at x_leaf, and its one complex-step pass at x_leaf.  A nested
    product is flattened to its leaves."""
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
    nk_identity_suite(chart, x)
    (fields,) = seen
    per_leaf = [charts._suite_fields(leaf, x[sl]) for leaf, sl in zip(leaves, coords)]
    for field, blocks in zip(fields, zip(*per_leaf), strict=True):
        assert np.array_equal(field, _block_diagonal(blocks, 0))


@pytest.mark.parametrize("desc", _PRODUCTS)
def test_product_geometry_agrees_with_the_whole_product_chart(desc):
    """The product read as one chart of its block fields (``factors`` dropped),
    whose block-diagonal fields take complex points but no jets, evaluated by
    the finite-difference oracle, agrees with the assembly of its leaves' jets.
    g and J agree exactly; Gamma and nabla J differ by rounding of the full-size
    inverse metric; R and the suite residuals by the oracle's FD error.
    Measured at seeds 0-11: at most 3.3e-16 in Gamma, 1.2e-15 in nabla J,
    2.2e-12 of max|R| in R and 2.1e-8 in a suite residual, against a tol_fd2
    of 1e-4."""
    chart = make_chart(desc)
    whole = dataclasses.replace(chart, factors=())
    for seed in range(12):
        x = chart.sample_points(seed, 1)[0]
        new, old = geometry_at(chart, x), fd.geometry(whole, x)
        assert np.array_equal(new.point.g, old.point.g)
        assert np.array_equal(new.point.J, old.point.J)
        assert np.max(np.abs(new.G - old.G)) <= 1e-15
        assert np.max(np.abs(new.nJ - old.nJ)) <= 5e-15
        R_new, R_old = new.R.components, old.R.components
        assert np.max(np.abs(R_new - R_old)) <= 1e-11 * np.max(np.abs(R_old))
        residuals = zip(dataclasses.astuple(nk_identity_suite(chart, x)),
                        dataclasses.astuple(fd.suite(whole, x)))
        assert max(abs(a - b) for a, b in residuals) <= 1e-7


@pytest.mark.parametrize(
    "desc", ["PRODUCT(CE(1),CE(1))", "PRODUCT(CD(1,-1),CP(2,1))",
             "PRODUCT(PRODUCT(CD(1,-1),CD(1,-1)),S6(1))"],
)
def test_every_leaf_gamma_call_holds_1_to_n_squared_points(monkeypatch, desc):
    """A product's leaves build Gamma (in ``_pointwise``) in calls of at most n^2
    points, n = MAX_DIM = 12 the largest dimension, and never in an empty call,
    down to 2-dimensional leaves in the smallest product (n = 4) and in a nested
    one.  In the suite each leaf's n_f complex-step points x + i h e_b go
    PASS_DIRECTIONS = 2 to a call, at every seed: n_f / 2 calls, 1 for n_f = 2,
    2 for n_f = 4 and 3 for n_f = 6; then it builds Gamma once at x alone."""
    chart = make_chart(desc)
    leaves = _leaves(chart)
    calls, pointwise = [], charts._pointwise

    def counted(g, *rest):
        calls.append((int(np.prod(g.shape[:-2])), g.shape[-1]))
        return pointwise(g, *rest)

    monkeypatch.setattr(charts, "_pointwise", counted)
    width = charts.PASS_DIRECTIONS
    suite = [call for leaf in leaves
             for call in [(width, leaf.n)] * (leaf.n // width) + [(1, leaf.n)]]
    for seed in (0, 7, 11):
        calls.clear()
        nk_identity_suite(chart, chart.sample_points(seed, 1)[0])
        assert all(1 <= size <= charts.MAX_DIM**2 for size, _ in calls)
        assert calls == suite


_SCORED = [name for name in NKIdentityReport.GATES if name not in NKIdentityReport.MODEL_DEPENDENT]


@pytest.mark.parametrize("desc", ["S6(1)", "CP(3,1)", "CD(2,-1)", "PRODUCT(CD(2,-1),S6(1))"])
def test_jets_agree_with_the_fd_oracle_within_its_own_error(desc):
    """R from the jets is the exact model tensor to 1e-14 relative (1.2e-16 to
    3.7e-16 measured; the oracle reads 1.8e-13 to 1.4e-12).  It differs from the
    oracle's R by no more than the oracle's own FD error, estimated as the
    distance of its R at 2h from its R at h.  Each scored residual, zero on these
    models, is within the oracle's own reading of it, its FD error, or rounding."""
    chart, spec = make_chart(desc), parse_model_spec(desc)
    for seed in range(3):
        x = chart.sample_points(seed, 1)[0]
        geo, ref, coarse = geometry_at(chart, x), fd.geometry(chart, x), fd.geometry(chart, x, 2 * fd.H)
        point, target = geo.point, charts._model_tensor(spec, geo.point)
        scale = invariant_norm(point, target)
        assert invariant_norm(point, geo.R - target) <= 1e-14 * scale
        assert invariant_norm(point, geo.R - ref.R) <= invariant_norm(point, coarse.R - ref.R)
        jets, oracle = nk_identity_suite(chart, x), fd.suite(chart, x)
        for name in _SCORED:
            assert abs(getattr(jets, name) - getattr(oracle, name)) <= max(getattr(oracle, name), 1e-14)


@pytest.mark.parametrize("desc", ["S6(1)", "CP(3,1)", "PRODUCT(CD(1,-1),S6(1))"])
def test_each_complex_step_direction_reads_the_same_bits_in_any_pass(monkeypatch, desc):
    """The suite's derivatives are the same in every bit whether a pass takes one
    direction, the default two, or all n: the passes bound memory only."""
    chart = make_chart(desc)
    x = chart.sample_points(5, 1)[0]
    default, fields = charts.PASS_DIRECTIONS, {}
    for width in (1, default, chart.n):
        monkeypatch.setattr(charts, "PASS_DIRECTIONS", width)
        fields[width] = charts._assembled(chart, x, charts._suite_fields)
    assert default == 2
    for width in (1, chart.n):
        assert all(map(np.array_equal, fields[width], fields[default]))


def test_suite_evaluates_curvature_once_per_stencil_point(monkeypatch):
    """The suite reads the curvature on the n points x + i h e_b of its complex
    step, its stencil: R is built once per direction b, in order,
    PASS_DIRECTIONS = 2 to a call, so n / 2 = 3 calls of 2 on S6(1), and then
    once at x, from the real jets.  The metric there is g + i h d_b g, bit for
    bit.  The suite never calls geometry_at or its leaf evaluator."""
    chart = make_chart("S6(1)")
    x = chart.sample_points(25, 1)[0]
    g, dg = charts._jets(chart.metric_at, x, 3)[:2]
    metrics, curvature = [], charts._curvature

    def counted(g, G, dG):
        metrics.append(g)
        return curvature(g, G, dG)

    monkeypatch.setattr(charts, "_curvature", counted)
    monkeypatch.setattr(charts, "geometry_at", None)  # the suite never calls it
    monkeypatch.setattr(charts, "_leaf_geometry", None)
    nk_identity_suite(chart, x)
    assert np.array_equal(metrics.pop(), g)
    assert [m.shape for m in metrics] == [(charts.PASS_DIRECTIONS, chart.n, chart.n)] * 3
    stencil = np.concatenate(metrics)
    assert np.array_equal(stencil.real, np.broadcast_to(g, stencil.shape))
    assert np.array_equal(stencil.imag, charts.H_C * dg)
    assert np.all(np.any(stencil.imag != 0.0, axis=(-2, -1)))


def _jet_field(x_at, edit):
    """A field that passes its jets on after ``edit(coefficients)`` where it is
    evaluated at the jets of the point ``x_at``."""
    def at(field):
        def edited(X):
            out = field(X)
            if isinstance(X, Jet) and np.array_equal(X.c[0, 0], x_at):
                out = Jet(out.c.copy())
                edit(out.c)
            return out

        return edited

    return at


def test_the_point_is_validated_once_at_x():
    """J scaled by 1.001 at x breaks J^2 = -1 there: the geometry at x and the
    suite both refuse the point, the suite before any residual.  The constant J
    keeps nabla J zero."""
    chart = make_chart("CP(3,4)")
    x = chart.sample_points(23, 1)[0]
    bad = dataclasses.replace(chart, J_at=lambda X: 1.001 * chart.J_at(X))
    for evaluate in (geometry_at, nk_identity_suite):
        with pytest.raises(PointValidationError) as err:
            evaluate(bad, x)
        assert "J squares to -identity" in [v.invariant for v in err.value.violations]


@pytest.mark.parametrize("units, stage", [(slice(1, None), "geometry"), (slice(7, None), "suite")])
def test_non_finite_derivative_at_x_is_rejected(units, stage):
    """A metric whose derivative at x is NaN is refused with NonFiniteError.
    Its third derivative alone is read only by the suite, whose order-3 jets
    carry the coefficient e_1 e_2 e_3 (index 7); the geometry at x passes then."""
    chart = make_chart("S6(1)")
    x = chart.sample_points(23, 1)[0]

    def nan(c):
        c[units] = np.nan

    bad = dataclasses.replace(chart, metric_at=_jet_field(x, nan)(chart.metric_at))
    if stage == "suite":
        geometry_at(bad, x)
    else:
        with pytest.raises(NonFiniteError):
            geometry_at(bad, x)
    with pytest.raises(NonFiniteError):
        nk_identity_suite(bad, x)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jets_of_a_rational_field_are_exact():
    """f = x0^2 x1 / (1 + x2^2) and its derivatives up to third order to 1e-15,
    against the closed form: the derivative that takes a, b and c derivatives
    along x0, x1 and x2 is (x0^2)^(a) x1^(b) h^(c), h = 1 / (1 + x2^2)."""
    x0, x1, x2 = x = np.array([0.3, -0.7, 0.4])
    q = 1 + x2**2
    closed = ([x0**2, 2 * x0, 2.0, 0.0], [x1, 1.0, 0.0, 0.0],
              [1 / q, -2 * x2 / q**2, (6 * x2**2 - 2) / q**3, 24 * x2 * (1 - x2**2) / q**4])

    def field(X):
        return (X[..., 0] ** 2 * X[..., 1] / (1 + X[..., 2] ** 2))[..., None, None]

    for order, jet in enumerate(charts._jets(field, x, 3)):
        assert jet.shape == (3,) * order + (1, 1)
        for index in product(range(3), repeat=order):
            a, b, c = (index.count(axis) for axis in range(3))
            assert abs(jet[index][0, 0] - closed[0][a] * closed[1][b] * closed[2][c]) <= 1e-15


@pytest.mark.parametrize("desc", ["CE(2)", "S6(1.5)", "CP(3,4)", "CD(2,-1)"])
def test_jets_of_each_leaf_equal_the_complex_step_and_are_exactly_symmetric(desc):
    """dg and dJ of each leaf kind are the complex steps of its fields to 1e-15
    relative; the value is the field's own, bit for bit.  The second and third
    derivatives are exactly symmetric in their derivative indices, and the
    derivatives of g in its two indices as well."""
    chart = make_chart(desc)
    for x in chart.sample_points(5, 3):
        for field, order in ((chart.metric_at, 3), (chart.J_at, 2)):
            jets = charts._jets(field, x, order)
            assert np.array_equal(jets[0], field(x))
            step = fd.complex_step(field, x)
            assert np.max(np.abs(jets[1] - step)) <= 1e-15 * max(1.0, np.max(np.abs(step)))
            assert np.array_equal(jets[2], np.swapaxes(jets[2], 0, 1))
            if order == 3:
                for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
                    assert np.array_equal(jets[3], jets[3].transpose(*axes, 3, 4))
                for d in jets:
                    assert np.array_equal(d, np.swapaxes(d, -1, -2))


def test_jets_at_a_point_do_not_depend_on_earlier_calls():
    """The plan of each (n, order) is built once per process and shared by every
    later call: the jets at x are bit for bit the same before and after calls at
    other points, dimensions and orders, and the same as from a plan built anew."""
    chart = make_chart("S6(1)")
    x = chart.sample_points(7, 1)[0]
    first = [charts._jets(field, x, order) for field, order in ((chart.metric_at, 3), (chart.J_at, 2))]
    for desc, seed, order in (("S6(1)", 8, 3), ("CP(5,1)", 7, 3), ("CD(2,-1)", 7, 1),
                              ("S6(2)", 7, 2), ("CE(2)", 7, 2), ("CP(6,1)", 7, 2)):
        other = make_chart(desc)
        charts._jets(other.metric_at, other.sample_points(seed, 1)[0], order)
    again = [charts._jets(field, x, order) for field, order in ((chart.metric_at, 3), (chart.J_at, 2))]
    charts._jet_plan.cache_clear()
    fresh = [charts._jets(field, x, order) for field, order in ((chart.metric_at, 3), (chart.J_at, 2))]
    for jets in (again, fresh):
        for a, b in zip(sum(first, []), sum(jets, [])):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, order, combos", [(6, 2, 21), (10, 2, 55), (10, 3, 220), (2, 1, 2)])
def test_jet_plans_are_read_only(n, order, combos):
    seeds, gathers = charts._jet_plan(n, order)
    assert charts._jet_plan(n, order)[0] is seeds
    assert seeds.shape == (2**order, combos, n) and not seeds[0].any()
    assert [g.shape for g in gathers] == [(n,) * d for d in range(1, order + 1)]
    for a in (seeds, *gathers):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1


def _interleaved_metric(mu, m, xy):
    """The CP/CD metric as it was first written: the Hermitian form A + iB of the
    complex coordinates, written into x1,y1,x2,y2,... coordinates slice by slice."""
    s, c0 = np.sign(mu), 4.0 / abs(mu)
    x, y = xy[..., 0::2], xy[..., 1::2]
    q = 1 + s * np.sum(xy * xy, axis=-1)[..., None, None]
    outer = lambda u, v: u[..., :, None] * v[..., None, :]
    A = c0 * (q * np.eye(m) - s * (outer(x, x) + outer(y, y))) / q**2
    B = -s * c0 * (outer(x, y) - outer(y, x)) / q**2
    g = np.zeros(A.shape[:-2] + (2 * m, 2 * m), dtype=A.dtype)
    g[..., 0::2, 0::2] = A
    g[..., 1::2, 1::2] = A
    g[..., 0::2, 1::2] = B
    g[..., 1::2, 0::2] = -B
    return g


@pytest.mark.parametrize("desc", ["CP(3,4)", "CD(2,-1)", "CP(1,0.5)"])
def test_csf_metric_is_the_interleaved_formula_bit_for_bit(desc):
    """c0 (q I - s (v v^T + Jv Jv^T)) / q^2 equals the interleaved formula in every
    bit, on real points and on complex ones."""
    chart, spec = make_chart(desc), parse_model_spec(desc)
    X = chart.sample_points(3, 12).reshape(3, 4, chart.n)
    Z = X + 1j * np.random.default_rng(4).uniform(-0.1, 0.1, X.shape)
    for P in (X, Z, X[0, 0]):
        assert np.array_equal(chart.metric_at(P), _interleaved_metric(spec.mu, spec.m, P))


# ---------------------------------------------------------------------------
# the finite-difference oracle
# ---------------------------------------------------------------------------

def test_id_1_1_fourth_order_convergence():
    """The oracle's scheme is fourth order: each halving of h from 3.2e-2 down to
    its 1e-3 cuts its residual of the pairing identity by >= 12, a fourth-order
    scheme's 16 within rounding (15.9-16.3 measured at seeds 7 and 27)."""
    chart = make_chart("S6(1)")
    x = chart.sample_points(27, 1)[0]
    residuals = [fd.suite(chart, x, h).id_1_1 for h in (3.2e-2, 1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3)]
    for coarse, fine in zip(residuals, residuals[1:]):
        assert coarse / fine >= 12.0


def test_difference_differentiates_each_field_of_a_tuple():
    """One derivative array per field, in order, with the derivative index right
    after the batch axes; the oracle's Richardson-extrapolated central
    difference is exact on a quadratic and on a cubic, up to rounding."""
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 3, 4))
    field = lambda X: (X[..., :, None] * X[..., None, :], np.sum(X**3, axis=-1))
    eye = np.eye(4)
    d_outer = eye[:, :, None] * x[..., None, None, :] + x[..., None, :, None] * eye[:, None, :]
    derivatives = fd.difference(map(field, fd.stencil(x, fd.H)), fd.H)
    assert [d.shape for d in derivatives] == [(2, 3, 4, 4, 4), (2, 3, 4)]
    np.testing.assert_allclose(derivatives[0], d_outer, rtol=0, atol=1e-10)
    np.testing.assert_allclose(derivatives[1], 3.0 * x**2, rtol=0, atol=1e-10)


SWEEP_STEPS = (8e-3, 4e-3, 2e-3, 1e-3, 5e-4)


def test_fd_step_sweep_on_s6():
    """The oracle's error budget on S6(1) at the seed-7 point: its scheme is
    fourth order in the pairing identity at every halving down to its step
    1e-3, and below it rounding takes over.  Its residuals stay far below
    tol_fd2 at 1e-3 and 2e-3, and id_1_3 is smallest at h = 2e-3: below it the
    rounding of the outer levels outgrows truncation.  The jets read every one
    of these residuals, and R's relative deviation from c * pi1, below 1e-13."""
    spec = parse_model_spec("S6(1)")
    chart = make_chart(spec)
    x = chart.sample_points(7, 1)[0]

    def row(geo, suite):
        target = space_form_tensor(geo.point, spec.c)
        rel = invariant_norm(geo.point, geo.R - target) / invariant_norm(geo.point, target)
        return suite.id_1_1, suite.id_1_3, suite.id_1_4, rel

    sweep = {h: row(fd.geometry(chart, x, h), fd.suite(chart, x, h)) for h in SWEEP_STEPS}
    for coarse, fine in zip(SWEEP_STEPS, SWEEP_STEPS[1:4]):
        assert sweep[coarse][0] / sweep[fine][0] >= 12.0
    for h in (2e-3, 1e-3):
        assert max(sweep[h]) < 1e-4
    assert min(SWEEP_STEPS, key=lambda h: sweep[h][1]) == 2e-3
    assert max(row(geometry_at(chart, x), nk_identity_suite(chart, x))) < 1e-13


def test_fd_config_validation():
    """The policy takes no arguments: a step is not a setting."""
    with pytest.raises(TypeError):
        FDConfig(h=2e-3)
    with pytest.raises(TypeError):
        FDConfig(richardson=False)


def test_fd_config_holds_the_gates_alone():
    # constants only, and no step: every derivative is exact
    assert dataclasses.fields(FDConfig) == ()
    assert not hasattr(FDConfig, "h")
    with pytest.raises(TypeError):
        FDConfig(tol_fd1=1e-6)
    assert FDConfig().tol_fd1 == 1e-6 and FDConfig.tol_fd2 == 1e-4
