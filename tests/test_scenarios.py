"""Scenario layer: reports, statuses, determinism."""

import pytest

from bochnerkit import scenarios
from bochnerkit.scenarios import (
    SCENARIO_IDS,
    ScenarioParamError,
    ScenarioParams,
    UnknownScenarioError,
    make_model,
    run_all,
    run_scenario,
)

FAST = ScenarioParams(seed=7, chart_points=1, samples=64)


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


def test_counterexample_statuses():
    report = run_scenario("thm31_counterexample", FAST)
    by_name = {c.name: c for c in report.checks}
    assert by_name["b_nonvanishing"].status == "expected-fail"
    assert by_name["b_nonvanishing"].defect > 1e-3
    assert by_name["antiholo_4frame"].status == "expected-fail"
    assert by_name["bstar_vanishes"].status == "pass"


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


def test_run_all_reports_equal_single_scenario_runs(monkeypatch):
    labels = _counted_suites(monkeypatch)
    shared = [r.to_dict() for r in run_all(FAST)]
    assert len(labels) == 3
    assert shared == [run_scenario(sid, FAST).to_dict() for sid in SCENARIO_IDS]
    # alone, identities_s6 and identities_cp evaluate one suite each, bianchi three
    assert len(labels) == 3 + 5
