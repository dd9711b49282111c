"""Scenario layer: reports, statuses, determinism."""

import dataclasses
import math
import re
from fnmatch import fnmatchcase
from types import SimpleNamespace

import numpy as np
import pytest

from bochnerkit import charts, scenarios
from bochnerkit.curvature import _block_diagonal, complex_space_form_tensor, flat_point
from bochnerkit.multilinear import TOL_ALG
from bochnerkit.scenarios import (
    SCENARIO_IDS,
    ScenarioParamError,
    ScenarioParams,
    UnknownScenarioError,
    make_model,
    run_all,
    run_scenario,
)

FAST = ScenarioParams(seed=7, chart_points=1)


def test_scenario_ids_pinned():
    assert set(SCENARIO_IDS) == {
        "thm21_forward", "thm21_converse", "cor22", "thm31_s6", "thm31_product",
        "thm31_counterexample", "thm32_models", "cor33_spotcheck",
        "identities_s6", "identities_cp", "bianchi",
    }


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_every_scenario_passes(scenario_id):
    report = run_scenario(scenario_id, FAST)
    failing = [c.name for c in report.checks if c.status == "fail"]
    assert report.passed, failing


def test_unknown_scenario():
    with pytest.raises(UnknownScenarioError):
        run_scenario("thm99", FAST)


def test_parameter_range_validation():
    with pytest.raises(ScenarioParamError):
        run_scenario("thm21_forward", ScenarioParams(m=7))
    with pytest.raises(ScenarioParamError):
        run_scenario("thm21_forward", ScenarioParams(m=3, k=3))
    with pytest.raises(ScenarioParamError):
        run_scenario("thm31_s6", ScenarioParams(c=-1.0))
    with pytest.raises(ScenarioParamError):
        run_scenario("thm32_models", ScenarioParams(m=2))
    with pytest.raises(ScenarioParamError):
        run_scenario("thm21_forward", ScenarioParams(c=math.nan))
    with pytest.raises(ScenarioParamError):
        run_scenario("thm21_forward", ScenarioParams(mu=math.inf))


@pytest.mark.parametrize("sid", ["thm32_models", "cor33_spotcheck"])
def test_scenarios_that_need_m_3_name_it(sid):
    with pytest.raises(ScenarioParamError, match=f"^{sid} needs m >= 3 .*, got m = 2$"):
        run_scenario(sid, ScenarioParams(m=2))


def test_run_all_checks_m_before_running_any_scenario(monkeypatch):
    ran = []
    for sid, fn in scenarios._SCENARIOS.items():
        monkeypatch.setitem(scenarios._SCENARIOS, sid,
                            lambda p, table, sid=sid, fn=fn: ran.append(sid) or fn(p, table))
    with pytest.raises(ScenarioParamError, match="^thm32_models needs m >= 3"):
        run_all(ScenarioParams(m=2))
    assert ran == []
    # every other scenario runs at m = 2
    others = [sid for sid in SCENARIO_IDS if sid not in ("thm32_models", "cor33_spotcheck")]
    for sid in others:
        run_scenario(sid, dataclasses.replace(FAST, m=2))
    assert ran == others


def test_chart_symmetry_gate_is_derived_not_a_field(monkeypatch):
    """A chart curvature meets the input gates of an algebraic one: no call of
    the corrected tensor or the traces in a run passes a tolerance, and every
    report states the three scoring gates only."""
    calls = []
    for name in ("rk_bochner", "ricci_family"):
        entry = getattr(scenarios, name)
        monkeypatch.setattr(scenarios, name, lambda *args, entry=entry, **kwargs:
                            calls.append((entry.__name__, len(args), kwargs)) or entry(*args, **kwargs))
    reports = run_all(FAST)
    assert {name for name, _, _ in calls} == {"rk_bochner", "ricci_family"}
    assert {(n_args, tuple(kwargs)) for _, n_args, kwargs in calls} == {(2, ())}
    for report in reports:
        assert list(report.to_dict()["parameters"]["tolerances"]) == ["tol_alg", "tol_fd1", "tol_fd2"]


def test_the_step_policy_is_no_parameter():
    """The step and Richardson are constants of FDConfig: no field of the
    parameters and no key of a report, whose schema is version 3."""
    assert not {"h", "richardson"} & {f.name for f in dataclasses.fields(ScenarioParams)}
    payload = run_scenario("thm21_forward", FAST).to_dict()
    assert payload["schema_version"] == 3
    assert not {"h", "richardson"} & set(payload["parameters"])


def test_counterexample_statuses():
    report = run_scenario("thm31_counterexample", FAST)
    by_name = {c.name: c for c in report.checks}
    assert by_name["b_nonvanishing"].status == "expected-fail"
    assert by_name["b_nonvanishing"].defect > 1e-3
    assert by_name["antiholo_4frame"].status == "expected-fail"
    assert by_name["bstar_vanishes"].status == "pass"
    # the gate of both nonvanishing rows of _CHECKS, which no report states under
    # parameters.tolerances
    assert by_name["b_nonvanishing"].tolerance == by_name["antiholo_4frame"].tolerance == 1e-3


def test_thm21_forward_names_its_factor_dimensions():
    report = run_scenario("thm21_forward", dataclasses.replace(FAST, m=5, k=2))
    assert [c.name for c in report.checks] == ["bstar_product_2_3"]


def test_run_all_states_a_fixed_set_of_tolerances():
    """The three gates, the counterexample's nonvanishing gate 1e-3 and the
    converse's monotonicity count 0 are every tolerance a suite report states."""
    stated = {c.tolerance for report in run_all(FAST) for c in report.checks}
    assert stated == {0.0, 1e-12, 1e-6, 1e-4, 1e-3}


def test_every_catalog_check_carries_its_gate_from_the_table():
    """A chart check of a residual of the identity catalog (chart_nk, chart_id_*,
    and id_1_4, id_1_6 and id_1_7 of each bianchi chart) is scored at the gate
    that NKIdentityReport.GATES gives that residual, and every residual is checked."""
    gates, seen = charts.NKIdentityReport.GATES, set()
    for report in run_all(FAST):
        for check in report.checks:
            match = re.fullmatch(r"chart_(nk|id_\d_\d)|(id_1_[467])_.+", check.name)
            if match:
                residual = match[1] or match[2]
                assert check.tolerance == gates[residual], f"{report.scenario}.{check.name}"
                seen.add(residual)
    assert seen == set(gates)


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_antiholo_4frame_has_a_witness_at_every_sample_count(c):
    """The check scores the flat-point frame (e0 + e4, e2 + e6, e2 - e6, e0 - e4)/sqrt2
    of PRODUCT(CD(2,-c),S6(c)) alone, which reads 3c/16 whatever the seed."""
    for seed in range(12):
        report = run_scenario("thm31_counterexample", ScenarioParams(c=c, seed=seed))
        frame = {ch.name: ch for ch in report.checks}["antiholo_4frame"]
        assert report.passed and frame.status == "expected-fail"
        assert frame.defect == 3.0 * c / 16.0


def test_product_scenario_reports_expected_fail_for_metric_multiple():
    report = run_scenario("thm31_product", FAST)
    by_name = {c.name: c for c in report.checks}
    assert by_name["chart_id_3_2"].status == "expected-fail"
    assert by_name["b_vanishes"].status == "pass"
    assert by_name["chart_b_vanishes"].status == "pass"


def test_converse_monotonicity_check():
    report = run_scenario("thm21_converse", FAST)
    by_name = {c.name: c for c in report.checks}
    assert by_name["bstar_growth_monotone"].status == "pass"
    assert by_name["bstar_unperturbed"].status == "pass"


def test_cor22_zero_curvature_case():
    report = run_scenario("cor22", FAST)
    by_name = {c.name: c for c in report.checks}
    assert by_name["bstar_triple_zero_hsc"].status == "pass"
    others = [c for c in report.checks if c.name != "bstar_triple_zero_hsc"]
    assert all(c.status == "expected-fail" for c in others)


@pytest.mark.parametrize("scale", [1e6, 1e-6])
def test_cor33_spotcheck_passes_at_every_scale(scale):
    """At the flat point the constant-antiholomorphic-curvature defect reads 0
    at any scale, so the absolute tol_alg holds far from unit curvature too."""
    assert run_scenario("cor33_spotcheck", ScenarioParams(c=scale, mu=scale)).passed


@pytest.mark.parametrize("scenario_id", ["thm21_forward", "thm21_converse", "cor22", "thm31_s6",
                                         "thm31_counterexample", "cor33_spotcheck"])
def test_scenarios_without_a_chart_do_not_read_the_seed(scenario_id):
    """The seed moves chart sample points only."""
    checks = [run_scenario(scenario_id, ScenarioParams(seed=seed)).checks for seed in (0, 5)]
    assert checks[0] == checks[1]


def test_reports_are_deterministic():
    a = run_scenario("thm31_s6", FAST).to_dict()
    b = run_scenario("thm31_s6", FAST).to_dict()
    assert a == b
    assert "wall_time_s" not in a


def test_report_round_trips_through_canonical_json():
    import json

    from bochnerkit.serialization import canonical_json

    payload = run_scenario("cor33_spotcheck", FAST).to_dict()
    assert json.loads(canonical_json(payload)) == payload


def test_report_timing_available_on_request():
    report = run_scenario("thm21_forward", FAST)
    assert report.to_dict(include_timing=True)["wall_time_s"] >= 0.0


def _csf_product_by_hand(dims_mus):
    """g, J and R of the product, assembled block by block from each factor's
    constant-HSC tensor at its own flat point."""
    points = [flat_point(2 * dim_c) for dim_c, _ in dims_mus]
    Rs = [complex_space_form_tensor(fp, mu).components for fp, (_, mu) in zip(points, dims_mus)]
    return (_block_diagonal([fp.g for fp in points]),
            _block_diagonal([fp.J for fp in points]), _block_diagonal(Rs))


@pytest.mark.parametrize("dims_mus, label", [
    ([(1, 1.0), (2, -1.0)], "PRODUCT(CP(1,1),CD(2,-1))"),
    ([(2, 2.5), (3, -2.5)], "PRODUCT(CP(2,2.5),CD(3,-2.5))"),
    ([(1, 0.0), (1, 0.0), (1, 0.0)], "PRODUCT(CE(1),CE(1),CE(1))"),
    ([(1, 1.0), (1, -1.0), (1, 0.0)], "PRODUCT(CP(1,1),CD(1,-1),CE(1))"),
    ([(1, 1.0), (2, -1.0 + 1e-3)], "PRODUCT(CP(1,1),CD(2,-0.999))"),
])
def test_scenario_products_are_built_by_make_model(monkeypatch, dims_mus, label):
    labels, build = [], scenarios.make_model

    def counted(spec):
        labels.append(spec.label())
        return build(spec)

    monkeypatch.setattr(scenarios, "make_model", counted)
    point, R, _ = scenarios._model(scenarios._csf_spec(dims_mus), {})
    assert labels == [label]
    g, J, ref_R = _csf_product_by_hand(dims_mus)
    assert np.array_equal(point.g, g)
    assert np.array_equal(point.J, J)
    assert np.array_equal(R.components, ref_R)


def test_make_model_labels():
    point, R, label = make_model("PRODUCT(CD(1,-1),S6(1))")
    assert point.dim == 8
    assert label == "PRODUCT(CD(1,-1),S6(1))"
    assert R.components[2, 3, 3, 2] != 0.0


def _counted_suites(monkeypatch) -> list[str]:
    """Labels of the charts ``nk_identity_suite`` is called on from the scenarios."""
    labels = []
    suite = scenarios.nk_identity_suite

    def counted(chart, *args, **kwargs):
        labels.append(chart.label)
        return suite(chart, *args, **kwargs)

    monkeypatch.setattr(scenarios, "nk_identity_suite", counted)
    return labels


def test_run_all_evaluates_each_chart_suite_once(monkeypatch):
    # identities_s6, identities_cp and bianchi share the S6 and CP suites, and
    # thm31_product reads id_3_2 from its curvature: 3 suites, not 6
    labels = _counted_suites(monkeypatch)
    run_all(FAST)
    assert sorted(labels) == ["CE(3)", "CP(3,1)", "S6(1)"]
    run_all(FAST)  # nothing carries over from the first run
    assert len(labels) == 6


def _counted_builds(monkeypatch) -> dict[str, list]:
    """The inputs of each call the scenarios make of ``make_model``, ``make_chart``,
    ``rk_bochner`` and ``generalized_bochner``: the descriptor, or the bytes of
    g, J and R."""
    calls = {}
    for name in ("make_model", "make_chart", "rk_bochner", "generalized_bochner"):
        fn, calls[name] = getattr(scenarios, name), []

        def counted(*args, fn=fn, seen=calls[name]):
            seen.append(args[0] if len(args) == 1 else
                        (args[0].g.tobytes(), args[0].J.tobytes(), args[1].components.tobytes()))
            return fn(*args)

        monkeypatch.setattr(scenarios, name, counted)
    return calls


def test_run_all_builds_each_model_chart_and_norm_once(monkeypatch):
    # 14 models: the 7 products of thm21_forward, thm21_converse and cor22, S6(1),
    # the products CD(1) x S6, CD(2) x S6 and CD(1) x CP(2), and CE(3), CD(3,-1) and
    # CP(3,1); 6 charts, those of thm32_models; rk_bochner on 7 models and on the 6
    # chart points of thm32_models, one of them thm31_product's too; and
    # generalized_bochner on the 9 models of Theorem 2.1, Corollary 2.2 and the
    # two products of Theorem 3.1
    calls = _counted_builds(monkeypatch)
    run_all(FAST)
    first = {name: list(seen) for name, seen in calls.items()}
    assert {name: len(seen) for name, seen in first.items()} == {
        "make_model": 14, "make_chart": 6, "rk_bochner": 13, "generalized_bochner": 9}
    for name in ("make_model", "make_chart", "generalized_bochner"):
        assert len(set(first[name])) == len(first[name]), name
    # CE(3)'s model and its chart point are the same flat point with R = 0
    assert len(set(first["rk_bochner"])) == 12
    run_all(FAST)  # nothing carries over from the first run
    assert {name: seen[len(first[name]):] for name, seen in calls.items()} == first


def test_run_all_reports_equal_single_scenario_runs(monkeypatch):
    labels = _counted_suites(monkeypatch)
    shared = [r.to_dict() for r in run_all(FAST)]
    assert len(labels) == 3
    assert shared == [run_scenario(sid, FAST).to_dict() for sid in SCENARIO_IDS]
    # alone, identities_s6 and identities_cp evaluate one suite each, bianchi three
    assert len(labels) == 3 + 5


def test_run_all_evaluates_each_chart_point_once(monkeypatch):
    # thm31_product, thm32_models, identities_s6 and identities_cp read the
    # geometry from the run's table, and the three suites evaluate none; the
    # scenarios reach the chart geometry only through geometry_at
    assert scenarios.geometry_at is charts.geometry_at and not hasattr(scenarios, "_geometry")
    monkeypatch.setattr(charts, "geometry_at", None)
    points, at_x = [], []
    geometry_at, geometry = scenarios.geometry_at, charts._leaf_geometry

    def counted(chart, x):
        points.append((chart.label, tuple(x)))
        return geometry_at(chart, x)

    def counted_geometry(chart, x):
        # the geometry at x of each leaf chart of geometry_at's chart
        at_x.append(x)
        return geometry(chart, x)

    monkeypatch.setattr(scenarios, "geometry_at", counted)
    monkeypatch.setattr(charts, "_leaf_geometry", counted_geometry)
    run_all(FAST)
    # one point each on CE(3), CD(3,-1), CP(3,1), S6(1) and the two products,
    # whose 2 leaves each are evaluated at x once: 4 + 2 x 2 = 8 leaf points;
    # the suites on CE(3), CP(3,1) and S6(1) take their own order-3 jets at x
    # and build their geometry there from them
    assert len(points) == len(set(points)) == 6 and len(at_x) == 8
    run_all(FAST)  # nothing carries over from the first run
    assert len(points) == 12 and len(at_x) == 16 and set(points[6:]) == set(points[:6])


def test_run_all_makes_a_fixed_number_of_metric_and_j_calls(monkeypatch):
    count = {"metric": 0, "J": 0}
    build = scenarios.make_chart

    def counted_chart(desc):
        chart = build(desc)

        def metric_at(x):
            count["metric"] += 1
            return chart.metric_at(x)

        def J_at(x):
            count["J"] += 1
            return chart.J_at(x)

        return dataclasses.replace(chart, metric_at=metric_at, J_at=J_at)

    monkeypatch.setattr(scenarios, "make_chart", counted_chart)
    run_all(ScenarioParams(seed=7))
    # 9 chart points, 3 of them on products, whose geometry evaluates their
    # factors' fields and never the product's wrapped ones; the other 6 at 1
    # metric call (its order-2 jets) and 1 J call (its order-1 jets) each; 3
    # suites at n = 6, each at 1 metric call (its 56 order-3 jets) and 1 J call
    # (its 21 order-2 jets): 6 + 3 = 9 and 6 + 3 = 9.
    # 42 and 36 while Gamma was differenced on a two-level stencil grid in calls
    # of at most MAX_DIM^2 = 144 points each,
    # 114 metric calls while Gamma calls held at most n^2 = 36 points, 120 and
    # 42 while the products evaluated their own fields, 210 metric calls
    # while each batch evaluated Gamma afresh on its own stencil, 240 and 120
    # while each suite evaluated its point again, 725 and 137 while
    # thm32_models evaluated 3 points again and identities_cp took nabla^2 J
    # at its 2 points, 600 metric calls while Gamma took real differences of
    # g, 105 J calls while dJ took real differences
    assert count == {"metric": 9, "J": 9}
    run_all(ScenarioParams(seed=7))  # the second run repeats every evaluation
    assert count == {"metric": 18, "J": 18}


def test_run_all_keeps_apart_charts_whose_labels_agree():
    # thm32_models' CP(3,c) and identities_cp's CP(3,mu) both print as
    # CP(3,1) here, so the run's table keys chart points by descriptor
    params = dataclasses.replace(FAST, c=1.0000001)
    shared = [r.to_dict() for r in run_all(params)]
    assert shared == [run_scenario(sid, params).to_dict() for sid in SCENARIO_IDS]


def test_a_nan_defect_anywhere_is_the_worst():
    """``max`` drops a NaN that is not its first argument, which let a NaN chart
    defect read as a pass; the worst-of reduction keeps it in every position."""
    for defects in ([math.nan, 1.0], [1.0, math.nan], [2.0, math.nan, 3.0]):
        assert math.isnan(scenarios._worst(defects))
    assert scenarios._worst([]) == 0.0
    assert scenarios._worst([1e-3, 2e-3]) == 2e-3


def test_a_nan_chart_defect_fails(monkeypatch):
    monkeypatch.setattr(scenarios, "rk_bochner", lambda point, R: SimpleNamespace(norm=math.nan))
    by_name = {c.name: c for c in run_scenario("thm31_product", FAST).checks}
    assert by_name["chart_b_vanishes"].status == "fail"
    assert math.isnan(by_name["chart_b_vanishes"].defect)


@pytest.mark.parametrize("defect, status", [
    (2e-3, "expected-fail"), (math.inf, "fail"), (math.nan, "fail"), (1e-3, "fail"),
])
def test_only_a_finite_defect_above_its_gate_confirms_a_nonvanishing(defect, status):
    """An overflow to inf is not the predicted nonzero value."""
    assert scenarios._check("thm31_counterexample", "antiholo_4frame", defect).status == status


@pytest.mark.parametrize("defect, status", [
    (TOL_ALG, "pass"), (2 * TOL_ALG, "fail"), (math.inf, "fail"), (math.nan, "fail"),
])
def test_only_a_defect_within_its_gate_confirms_a_vanishing(defect, status):
    """A NaN compares false with the gate, so it fails; a defect at the gate passes."""
    assert scenarios._check("thm31_counterexample", "bstar_vanishes", defect).status == status


def test_each_check_matches_one_row_of_its_scenario_and_each_row_is_reached():
    """Every check name of run_all, at the defaults and at two other parameter
    sets whose names differ, matches exactly one pattern of ``_CHECKS``, and the
    default run reaches every row."""
    assert set(scenarios._CHECKS) == set(SCENARIO_IDS)
    reached = set()
    for params in (ScenarioParams(), ScenarioParams(seed=3, m=4, k=2, c=2.5, mu=0.5),
                   ScenarioParams(m=6, k=5)):
        for report in run_all(params):
            for check in report.checks:
                rows = [pattern for pattern in scenarios._CHECKS[report.scenario]
                        if fnmatchcase(check.name, pattern)]
                assert len(rows) == 1, f"{report.scenario}.{check.name}: {rows}"
                if params == ScenarioParams():
                    reached.add((report.scenario, rows[0]))
    assert reached == {(sid, pattern) for sid, rows in scenarios._CHECKS.items()
                       for pattern in rows}


def test_an_overflowing_product_fails_its_chart_checks():
    """At c = 1e100, outside the CLI's np.errstate, the chart's corrected tensor
    is NaN and its Ricci difference overflows; both used to count as success."""
    with np.errstate(all="ignore"):
        report = run_scenario("thm31_product", ScenarioParams(c=1e100, mu=1e100))
    by_name = {c.name: c for c in report.checks}
    assert by_name["chart_b_vanishes"].status == "fail"
    assert by_name["chart_id_3_2"].status == "fail"
