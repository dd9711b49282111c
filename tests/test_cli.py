"""Command-line interface: exit codes, files, determinism."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bochnerkit
from bochnerkit import charts, scenarios
from bochnerkit.bochner import NotRKError
from bochnerkit.charts import FDConfig, parse_model_spec
from bochnerkit import cli
from bochnerkit.cli import cli_dispatch
from bochnerkit.multilinear import TOL_ALG, DimensionMismatchError, InputError
from bochnerkit.scenarios import ScenarioParams
from bochnerkit.serialization import DocumentFormatError


def test_scenario_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_dispatch(
        ["scenario", "thm31_s6", "--json", str(out), "--points", "1"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["scenario"] == "thm31_s6"
    assert payload["status"] == "pass"
    assert "wall_time_s" not in payload
    assert "[PASS]" in capsys.readouterr().out


def test_tensor_product_descriptor(capsys):
    assert cli_dispatch(["tensor", "PRODUCT(CD(1,-1),S6(1))"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["document"]["dim"] == 8
    assert payload["rk_bochner"]["norm"] < 1e-12
    assert payload["generalized_bochner"]["norm"] < 1e-12


def test_scenario_unknown_id(capsys):
    assert cli_dispatch(["scenario", "thm99"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_scenario_bad_params(capsys):
    assert cli_dispatch(["scenario", "thm21_forward", "--m", "9"]) == 2


def test_tensor_s6_fixes_dimension(capsys):
    """S6 takes c alone: its model is six-dimensional, and an m is a second argument."""
    assert cli_dispatch(["tensor", "s6"]) == 0
    assert json.loads(capsys.readouterr().out)["document"]["dim"] == 6
    assert cli_dispatch(["tensor", "S6(3,1)"]) == 2
    assert capsys.readouterr().err == ("error: bad arguments in model descriptor 'S6(3,1)': "
                                       "S6(c) takes 1 argument, got 2\n")


@pytest.mark.parametrize("argv, model", [
    (["tensor", "s6"], "S6(1)"),
    (["tensor", "s6(2)"], "S6(2)"),
    (["tensor", "ce(2)"], "CE(2)"),
    (["tensor", " CP( 2 , 3 ) "], "CP(2,3)"),
    (["tensor", "cd"], "CD(3,-1)"),
    (["tensor", "CD(3,-2)"], "CD(3,-2)"),
])
def test_bare_model_flags_are_its_descriptor_arguments(argv, model, capsys):
    """A model's parameters are its descriptor's arguments, and a bare name is its
    kind at m = 3 and curvature 1 signed as the kind admits."""
    assert cli_dispatch(argv) == 0
    assert json.loads(capsys.readouterr().out)["model"] == model


def test_tensor_bundle_stdout(capsys):
    assert cli_dispatch(["tensor", "s6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "S6(1)"
    assert payload["rk_bochner"]["norm"] < 1e-12
    assert payload["ricci"]["tau"] == 30.0


def test_tensor_small_dimension_has_no_rk_tensor(capsys):
    assert cli_dispatch(["tensor", "CD(1,-1)"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rk_bochner"] is None
    assert "rk_bochner_status" in payload


def test_tensor_dump_then_validate(tmp_path, capsys):
    doc = tmp_path / "cp.json"
    assert cli_dispatch(["tensor", "CP(3,4)", "--dump", str(doc), "--quiet"]) == 0
    assert cli_dispatch(["validate", str(doc)]) == 0
    assert "valid tensor document" in capsys.readouterr().out


def test_validate_rejects_broken_document(tmp_path, capsys):
    doc = tmp_path / "cp.json"
    cli_dispatch(["tensor", "CP(2,4)", "--dump", str(doc), "--quiet"])
    payload = json.loads(doc.read_text())
    payload["J"] = [0.0] * len(payload["J"])
    doc.write_text(json.dumps(payload))
    assert cli_dispatch(["validate", str(doc)]) == 1


def test_validate_writes_the_report_of_an_invalid_document(tmp_path, capsys):
    doc, report = tmp_path / "s6.json", tmp_path / "report.json"
    cli_dispatch(["tensor", "s6", "--dump", str(doc), "--quiet"])
    payload = json.loads(doc.read_text())
    payload["R"][5] += 1e-3
    doc.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli_dispatch(["validate", str(doc), "--json", str(report)]) == 1
    line = capsys.readouterr().out.strip()
    assert line.startswith("invalid: document tensor is not curvature-class")
    assert json.loads(report.read_text()) == {
        "file": str(doc), "status": "invalid", "error": line.removeprefix("invalid: ")}


def test_validate_malformed_json(tmp_path):
    doc = tmp_path / "junk.json"
    doc.write_text("{]")
    assert cli_dispatch(["validate", str(doc)]) == 2


def test_validate_missing_file():
    assert cli_dispatch(["validate", "/nonexistent/never.json"]) == 2


_MALFORMED = {  # a valid S6 document, broken one way
    "not_utf8": lambda raw: json.dumps({**raw, "label": "S\u00e9"}, ensure_ascii=False)
    .encode("latin-1"),
    "string_in_R": lambda raw: json.dumps({**raw, "R": ["x"] + raw["R"][1:]}).encode(),
    "numeric_strings_in_R": lambda raw: json.dumps({**raw, "R": [str(v) for v in raw["R"]]})
    .encode(),
    "nested_g": lambda raw: json.dumps({**raw, "g": [[v] for v in raw["g"]]}).encode(),
    "dim_true": lambda raw: json.dumps({**raw, "dim": True, "g": [1], "J": [0], "R": [0]})
    .encode(),
    "int_too_large": lambda raw: json.dumps({**raw, "g": ["BIG"] + raw["g"][1:]})
    .replace('"BIG"', "1" + "0" * 400).encode(),
    "bools_in_J": lambda raw: json.dumps({**raw, "J": [bool(v) if v >= 0 else v for v in raw["J"]]})
    .encode(),
    "deep_nesting": lambda raw: b"[" * 100_000 + b"]" * 100_000,
    "nan_in_g": lambda raw: json.dumps({**raw, "g": [math.nan] + raw["g"][1:]}).encode(),
    "infinity_in_R": lambda raw: json.dumps({**raw, "R": raw["R"][:-1] + [-math.inf]}).encode(),
    "schema_version_true": lambda raw: json.dumps({**raw, "schema_version": True}).encode(),
    "schema_version_float": lambda raw: json.dumps({**raw, "schema_version": 1.0}).encode(),
    "schema_version_string": lambda raw: json.dumps({**raw, "schema_version": "1"}).encode(),
}


@pytest.mark.parametrize("kind", _MALFORMED)
def test_validate_malformed_document_exits_2_with_one_line(kind, tmp_path, capsys):
    doc = tmp_path / "s6.json"
    assert cli_dispatch(["tensor", "s6", "--quiet", "--dump", str(doc)]) == 0
    doc.write_bytes(_MALFORMED[kind](json.loads(doc.read_text())))
    assert cli_dispatch(["validate", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind, key", [("nan_in_g", "g"), ("infinity_in_R", "R")])
def test_validate_names_the_non_finite_array(kind, key, tmp_path, capsys):
    """NaN and Infinity parse as JSON floats; the structural check rejects them
    before any geometry is built."""
    doc = tmp_path / "s6.json"
    assert cli_dispatch(["tensor", "s6", "--quiet", "--dump", str(doc)]) == 0
    doc.write_bytes(_MALFORMED[kind](json.loads(doc.read_text())))
    assert cli_dispatch(["validate", str(doc)]) == 2
    assert capsys.readouterr().err == f"error: {key} contains non-finite entries\n"


@pytest.mark.parametrize("argv, code", [
    (["tensor", "CE(\u0663)"], 2),  # an Arabic-Indic three
    (["tensor", "\uff23\uff25"], 2),  # a fullwidth CE
    (["validate", "nofile_\u00e9.json"], 2),
    (["tensor", "CE(1)", "extra\u00e9"], 2),
    (["validate", "{doc}"], 0),  # a document labelled S\u2076(1), on stdout
])
def test_every_printed_line_is_ascii(argv, code, tmp_path, capsys):
    """Non-ASCII text the user gave is printed backslash-escaped, on stdout and
    in every error line alike."""
    doc = tmp_path / "s6.json"
    assert cli_dispatch(["tensor", "s6", "--quiet", "--dump", str(doc)]) == 0
    doc.write_text(json.dumps({**json.loads(doc.read_text()), "label": "S\u2076(1)"}))
    capsys.readouterr()
    assert cli_dispatch([str(doc) if a == "{doc}" else a for a in argv]) == code
    captured = capsys.readouterr()
    assert (captured.out + captured.err).isascii()
    given = "".join(argv) if code else "S\u2076(1)"
    for char in filter(lambda c: not c.isascii(), given):
        assert char.encode("ascii", "backslashreplace").decode() in captured.out + captured.err


def test_identities_chart(tmp_path, capsys):
    out = tmp_path / "identities.json"
    code = cli_dispatch(["identities", "S6(1)", "--points", "1", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["chart"] == "S6(1)"
    assert payload["status"] == "pass"
    assert payload["residuals"]["nk"] < 1e-6
    # every residual is reported, and the scored ones are the table's, at its gates
    catalog = charts.NKIdentityReport
    assert set(payload["residuals"]) == {f.name for f in dataclasses.fields(catalog)}
    assert set(payload["residuals"]) == set(catalog.GATES)
    assert set(payload["scored"]) == set(catalog.GATES) - catalog.MODEL_DEPENDENT
    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()}
    for name, gate in catalog.GATES.items():
        assert (f"tol={gate:.1e}" if name in payload["scored"] else "not scored") in lines[name]


def test_a_non_finite_defect_is_reported_as_a_string(monkeypatch, tmp_path):
    """Canonical JSON has no NaN or infinity, so a report writes them as text
    and keeps its verdict; a NaN used to end in exit 2 and an empty file."""
    monkeypatch.setattr(scenarios, "rk_bochner", lambda point, R: SimpleNamespace(norm=math.nan))
    out = tmp_path / "report.json"
    assert cli_dispatch(["scenario", "thm31_product", "--points", "1", "--json", str(out)]) == 1
    text = out.read_text()
    assert '"defect":"nan"' in text
    assert json.loads(text)["status"] == "fail"
    suite = cli.nk_identity_suite
    monkeypatch.setattr(cli, "nk_identity_suite",
                        lambda chart, x: dataclasses.replace(suite(chart, x), nk=math.inf))
    assert cli_dispatch(["identities", "CE(1)", "--points", "1", "--json", str(out)]) == 1
    assert json.loads(out.read_text())["residuals"]["nk"] == "inf"


def test_a_payload_canonical_json_refuses_leaves_no_file(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(DocumentFormatError):
        cli._write_json(argparse.Namespace(json=str(out)), {"defect": -math.inf})
    assert not out.exists()


def test_identities_fail_on_a_nan_residual_at_a_later_point(monkeypatch, capsys):
    """The worst residual over the points is NaN when any point's is, not the
    first point's number."""
    reports, suite = [], cli.nk_identity_suite

    def second_nan(chart, x):
        report = suite(chart, x)
        reports.append(report)
        return dataclasses.replace(report, nk=math.nan) if len(reports) == 2 else report

    monkeypatch.setattr(cli, "nk_identity_suite", second_nan)
    assert cli_dispatch(["identities", "CE(1)", "--points", "2"]) == 1
    assert "[FAIL]   nk  residual=nan" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    # third-order nested differences of a valid round sphere, which crossed
    # tol_fd2 while the innermost derivative was a real difference
    ["S6(2.5)", "--points", "2", "--seed", "5"],
    # valid charts of large curvature, which failed id_1_3, id_1_6 or id_1_7 by up to
    # 54x while the derivatives were finite differences at a fixed step
    ["CP(3,1e3)", "--points", "1"],
    ["CP(3,1e4)", "--points", "1"],
    ["CD(1,-3e4)", "--points", "1"],
    ["CD(1,-1e5)", "--points", "1"],
])
def test_identities_pass_on_valid_models(argv, tmp_path, capsys):
    out = tmp_path / "identities.json"
    assert cli_dispatch(["identities", *argv, "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "pass"
    assert payload["residuals"]["id_1_3"] <= FDConfig.tol_fd2
    assert payload["residuals"]["id_1_4"] <= FDConfig.tol_fd2


@pytest.mark.parametrize("desc, points", [("CP(3,1)", 3), ("PRODUCT(CD(1,-1),S6(1))", 2)])
def test_identities_evaluates_each_leaf_field_once_per_point(monkeypatch, desc, points):
    """``identities X --points P`` calls each leaf chart's metric and J P times:
    the suite at each point evaluates each field once, and no geometry is
    evaluated beside it (2P each while the CLI passed the suite a geometry_at)."""
    calls, build = [], cli.make_chart

    def counted(chart):
        if chart.factors:
            return dataclasses.replace(chart, factors=tuple(map(counted, chart.factors)))

        def field(name):
            return lambda X: calls.append((chart.label, name)) or getattr(chart, name)(X)

        return dataclasses.replace(chart, metric_at=field("metric_at"), J_at=field("J_at"))

    monkeypatch.setattr(cli, "make_chart", lambda text: counted(build(text)))
    assert cli_dispatch(["identities", desc, "--points", str(points), "--quiet"]) == 0
    leaves = {label for label, _ in calls}
    assert len(leaves) == len(parse_model_spec(desc).factors or [desc])
    for leaf in leaves:
        assert calls.count((leaf, "metric_at")) == calls.count((leaf, "J_at")) == points


def test_identities_and_the_s6_scenario_read_the_same_bits(tmp_path):
    """``identities 'S6(1)' --points 1 --seed 7`` and ``scenario identities_s6
    --seed 7`` evaluate the suite at the same first sample point, so the seven
    residuals they share are equal in every bit."""
    ident, scen = tmp_path / "identities.json", tmp_path / "scenario.json"
    assert cli_dispatch(["identities", "S6(1)", "--points", "1", "--seed", "7", "--quiet",
                         "--json", str(ident)]) == 0
    assert cli_dispatch(["scenario", "identities_s6", "--seed", "7", "--quiet",
                         "--json", str(scen)]) == 0
    residuals = json.loads(ident.read_text())["residuals"]
    defects = {c["name"]: c["defect"] for c in json.loads(scen.read_text())["checks"]}
    shared = ("nk", "id_1_1", "id_1_2", "id_1_3", "id_1_5", "id_3_2", "id_3_3")
    assert [residuals[r] for r in shared] == [defects[f"chart_{r}"] for r in shared]
    assert any(residuals[r] != 0.0 for r in shared)


def test_identities_bad_chart(capsys):
    assert cli_dispatch(["identities", "TORUS(1)"]) == 2


@pytest.mark.parametrize("argv", [
    ["tensor", "S6(-1)"],
    ["tensor", "CP(3,-2)"],
    ["tensor", "CP(0,1)"],
    ["tensor", "CE(0)"],
    ["identities", "CD(2,1)"],
    ["identities", "CE(1)", "--points", "0"],
    ["identities", "S6(1)", "--points", "-1"],
    ["identities", "S6(0)"],
    ["identities", "S6(inf)"],
    ["scenario", "bianchi", "--m", "7"],
    ["identities", "S6(nan)"],
    ["identities", "PRODUCT(CD(1,-1),S6(-1))", "--points", "1"],
    ["scenario", "thm21_forward", "--k", "0"],
    ["identities", "S6(1)", "--seed", "-1", "--points", "1"],
    ["all", "--seed", "-5"],
    ["identities", "S6(1e300)", "--points", "1"],
    ["identities", "CE(7)"],
    ["tensor", "PRODUCT(CP(4,1),S6(1))"],
    ["tensor", "S6(1e308)"],
    *(["scenario", "thm31_s6", "--c", c] for c in ("nan", "inf", "-1", "0")),
    ["validate"],
    ["validate", "{doc}", "{doc}"],
    ["validate", "{doc}.missing"],
    ["validate", "{dir}"],
    # NaN fails every comparison, so a sign check alone lets a NaN scale through
    ["scenario", "thm21_forward", "--c", "nan"],
    ["scenario", "thm21_forward", "--c", "nan", "--json", "{json}"],
    ["all", "--mu", "nan"],
    # a curvature that overflows to inf, and a k that leaves no second factor
    ["identities", "CP(2,1e999)", "--points", "1"],
    ["all", "--k", "3"],
    # a bare model takes no parameter flag
    ["tensor", "cp", "--c", "2"],
    ["tensor", "cd", "--c", "3"],
    ["tensor", "ce", "--mu", "3"],
    ["tensor", "ce", "--c", "1"],
    ["tensor", "s6", "--mu", "5"],
    ["tensor", "\u017f6"],  # a long s, which upper-cases to S
])
def test_bad_model_input_exits_2_with_one_line(argv, tmp_path, capsys):
    doc = tmp_path / "s6.json"
    if any("{doc}" in a for a in argv):  # a valid document, so only the call can be at fault
        assert cli_dispatch(["tensor", "s6", "--quiet", "--dump", str(doc)]) == 0
    argv = [a.format(doc=doc, dir=tmp_path, json=tmp_path / "report.json") for a in argv]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def _sample_at(monkeypatch, x):
    """Patch every chart's sampler to return the one point ``x``, which no
    seed draws, as a library caller may pass it."""
    monkeypatch.setattr(charts.ChartModel, "sample_points",
                        lambda self, seed, count: np.array([x], dtype=float))


@pytest.mark.parametrize("argv", [["identities", "CE(2)"], ["identities", "PRODUCT(CE(1),CE(1))"]])
def test_point_far_from_the_origin_is_evaluated(argv, monkeypatch, capsys):
    """The doubles near 1e13 are 2**-9 apart, which collapsed a stencil of step
    h = 1e-3 there; the jets take no step, so the point is evaluated."""
    _sample_at(monkeypatch, [1e13, 0.0, 0.0, 0.0])
    assert cli_dispatch([*argv, "--points", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("x", [[1.0, 0.0], [0.3, -1.2]])
def test_point_outside_the_ball_exits_2_with_one_line(x, monkeypatch, capsys):
    """A point must lie inside the chart, here the open unit ball, and nothing
    more: no stencil reaches beyond it."""
    _sample_at(monkeypatch, x)
    assert cli_dispatch(["identities", "CD(1,-1)", "--points", "1"]) == 2
    radius = np.linalg.norm(x)
    assert capsys.readouterr().err == f"error: CD chart is the open unit ball; |x| = {radius:.3f}\n"


@pytest.mark.parametrize("argv, unknown", [(["all", "--fd-step", "1e-3"], "--fd-step 1e-3"),
                                           (["identities", "CE(1)", "--no-richardson"],
                                            "--no-richardson")])
def test_step_policy_flags_are_gone(argv, unknown, capsys):
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {unknown} (see bochnerkit --help)\n"


def test_the_gates_are_no_parameter(tmp_path, capsys):
    """The three gates are constants: no flag moves them, no scenario parameter
    holds them, and every report states the constants themselves."""
    doc = tmp_path / "s6.json"
    assert cli_dispatch(["tensor", "s6", "--quiet", "--dump", str(doc)]) == 0
    for argv, unknown in ((["all", "--tol-fd1", "1e-20"], "--tol-fd1 1e-20"),
                          (["identities", "CE(1)", "--tol-fd2", "1"], "--tol-fd2 1"),
                          (["validate", str(doc), "--tol-alg", "1"], "--tol-alg 1")):
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {unknown} (see bochnerkit --help)\n"
    assert "tolerances" not in {f.name for f in dataclasses.fields(ScenarioParams)}
    report = tmp_path / "all.json"
    assert cli_dispatch(["all", "--points", "1", "--quiet", "--json", str(report)]) == 0
    gates = {"tol_alg": TOL_ALG, "tol_fd1": FDConfig.tol_fd1, "tol_fd2": FDConfig.tol_fd2}
    assert gates == {"tol_alg": 1e-12, "tol_fd1": 1e-6, "tol_fd2": 1e-4}
    for scenario in json.loads(report.read_text())["reports"]:
        assert scenario["parameters"]["tolerances"] == gates


@pytest.mark.parametrize("flag", ["--c", "--mu"])
@pytest.mark.parametrize("scale", ["1e-8", "1e-4", "1e-3", "1e4", "1e8"])
def test_a_scaled_run_is_never_refused(flag, scale, capsys):
    """A scaled model is a valid input: its chart curvature meets the same
    relative input gates as the algebraic one, so a run may fail a check but
    never ends in an input error."""
    assert cli_dispatch(["all", flag, scale, "--points", "1", "--quiet"]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_unread_flags_are_gone(tmp_path, capsys):
    """Every flag sets a value its command reads: a model's parameters are its
    descriptor's, the witness frame needs no samples, and only the commands that
    sample take a seed."""
    doc = tmp_path / "s6.json"
    assert cli_dispatch(["tensor", "s6", "--quiet", "--dump", str(doc)]) == 0
    for argv, unknown in ((["all", "--samples", "8"], "--samples 8"),
                          (["scenario", "thm31_counterexample", "--samples", "1"], "--samples 1"),
                          (["tensor", "cp", "--m", "2"], "--m 2"),
                          (["tensor", "s6", "--c", "2"], "--c 2"),
                          (["tensor", "cd", "--mu", "-2"], "--mu -2"),
                          (["tensor", "s6", "--seed", "1"], "--seed 1"),
                          (["validate", str(doc), "--seed", "1"], "--seed 1")):
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {unknown} (see bochnerkit --help)\n"
    assert "samples" not in {f.name for f in dataclasses.fields(ScenarioParams)}


@pytest.mark.parametrize("argv, column", [
    (["tensor", "S6(1e999)"], 4),
    (["identities", "CP(2,1e999)", "--points", "1"], 6),
    (["tensor", "PRODUCT(CD(1, -1e999),S6(1))"], 15),
])
def test_overflowing_descriptor_number_is_named_at_its_column(argv, column, capsys):
    """A number beyond the largest double is a grammar fault at its column, not a
    value outside its kind's range."""
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err == (f"error: bad model descriptor {argv[1]!r} at column "
                                       f"{column}: expected a finite number\n")


def _run_module(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m bochnerkit argv`` in a fresh interpreter on this checkout."""
    src = str(Path(bochnerkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "bochnerkit", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ["tensor", "CP(1,1e308)", "--quiet"],
    ["identities", "S6(1e-300)", "--points", "1"],
    ["scenario", "identities_s6", "--c", "1e100"],  # the model norm underflows to 0
    ["scenario", "identities_cp", "--mu", "1e200"],
    ["all", "--mu", "1e300"],
    ["scenario", "thm31_product", "--c", "1e100"],  # the chart traces overflow
    ["scenario", "thm32_models", "--c", "1e100", "--json", "{json}"],
    ["identities", "S6(1e300)", "--points", "1"],  # the chart metric underflows to 0
    # a metric whose derivative the complex step cannot resolve: Gamma, R and every
    # residual would read 0, and a product would check nothing of that factor
    ["identities", "CD(1,-1e300)", "--points", "1"],
    ["identities", "PRODUCT(CD(1,-1e300),S6(1))", "--points", "1"],
])
def test_floating_point_failure_exits_2_with_one_line(argv, tmp_path):
    """Overflow or an invalid value ends in one error line and no numpy warning.
    Runs in a subprocess, because pytest captures warnings before stderr."""
    proc = _run_module([str(tmp_path / "report.json") if a == "{json}" else a for a in argv])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: numerical failure in the model: ")
    assert proc.stderr.count("\n") == 1


def test_non_rk_chart_curvature_exits_2_with_one_line(monkeypatch, capsys):
    """A chart curvature that misses the RK gate of the corrected tensor ends in
    one error line, no traceback.  At the one step policy no valid chart misses
    it, so the scenario command is patched to raise what rk_bochner raises."""
    def not_rk(args):
        raise NotRKError(2.5e-3, 1e-5)

    monkeypatch.setitem(cli._COMMANDS, "scenario", not_rk)
    assert cli_dispatch(["scenario", "thm32_models", "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: curvature is not RK (defect 2.500e-03 above tolerance 1.0e-05)\n"


def test_only_an_input_error_is_reported_as_one(monkeypatch):
    """The eleven input-error classes share one base, which the CLI reports as one
    line and exit 2; any other fault keeps its traceback."""
    modules = (bochnerkit.bochner, charts, bochnerkit.curvature, bochnerkit.multilinear,
               bochnerkit.scenarios, bochnerkit.serialization)
    inputs = {name for module in modules for name, cls in vars(module).items()
              if isinstance(cls, type) and issubclass(cls, InputError) and cls is not InputError}
    assert inputs == {"DimensionTooSmallError", "NotRKError", "ChartSpecError", "MarginError",
                      "NotNearlyKahlerError", "PointValidationError",
                      "NonFiniteError", "SymmetryError", "ScenarioParamError",
                      "UnknownScenarioError", "DocumentFormatError"}

    def internal_fault(args):
        raise DimensionMismatchError("operands disagree")

    monkeypatch.setitem(cli._COMMANDS, "scenario", internal_fault)
    with pytest.raises(DimensionMismatchError):
        cli_dispatch(["scenario", "thm21_forward"])


_NUMBER = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e308", "-1e308", "1e-300", "1e999", "-0", "0x10", "1_0", "", " ", "nan"]),
)
_LEAF = st.builds(
    lambda kind, args: f"{kind}({','.join(args)})",
    st.sampled_from(["CE", "S6", "CP", "CD", "cp", "s6", "TORUS"]),
    st.lists(_NUMBER, max_size=3),
)
_DESCRIPTOR = st.recursive(
    _LEAF,
    lambda parts: st.lists(parts, max_size=3).map(lambda ps: f"PRODUCT({','.join(ps)})"),
    max_leaves=5,
)
_JUNK = st.one_of(
    st.text(max_size=20),
    _DESCRIPTOR.flatmap(lambda d: st.integers(0, len(d)).map(lambda i: d[:i])),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_DESCRIPTOR, _JUNK))
def test_tensor_descriptor_fuzz(desc):
    """Any descriptor either yields the bundle or one error line: never a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_dispatch(["tensor", desc, "--quiet"])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# inputs the reader once let through: empty arguments and factors were dropped, and
# numbers went through int()/float(), which read digit separators and non-ASCII digits
_FOUND_DESCRIPTORS = {  # descriptor: the column its error line names
    "S6(1,)": 6,
    "CE(,1)": 4,
    "PRODUCT(CE(1),,S6(1))": 15,
    "PRODUCT(,CE(1),S6(1))": 9,
    "S6(1_0)": 5,
    "CE(\u0663)": 4,  # an Arabic-Indic three
}
_FOUND_FLAGS = [
    ["scenario", "thm21_forward", "--k", "\u0663"],
    ["all", "--m", "\u0663"],
    ["all", "--c", "1_0"],
    ["scenario", "thm21_forward", "--c", "1_0"],
    ["identities", "CE(1)", "--points", "\u0662"],  # an Arabic-Indic two
    ["all", "--points", "1_0"],
    ["all", "--mu", "1_0"],
]


@pytest.mark.parametrize("argv", [["tensor", d] for d in _FOUND_DESCRIPTORS] + _FOUND_FLAGS)
def test_found_inputs_exit_2_with_one_error_line(argv, capsys):
    assert cli_dispatch([*argv, "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if argv[1] in _FOUND_DESCRIPTORS:  # the whole descriptor, and where reading stopped
        where = f"{argv[1]!a} at column {_FOUND_DESCRIPTORS[argv[1]]}: "
        assert captured.err.startswith(f"error: bad model descriptor {where}")


def test_points_and_samples_are_checked_by_their_flag(capsys):
    for argv in (["identities", "CE(1)", "--points", "0"], ["all", "--points", "-1"]):
        assert cli_dispatch(argv) == 2
        flag, value = argv[-2:]
        assert capsys.readouterr().err == (f"error: argument {flag}: must be an integer >= 1, "
                                           f"got {value!r} (see bochnerkit {argv[0]} --help)\n")


def _spaced(texts: list[str], draw) -> str:
    """``texts`` joined by commas, with whitespace drawn around each."""
    space = st.sampled_from(["", " ", "  ", "\t"])
    return ",".join(f"{draw(space)}{t}{draw(space)}" for t in texts)


@st.composite
def _grammar_descriptor(draw, max_dim: int = 12) -> str:
    """A valid descriptor of real dimension at most ``max_dim`` (6 or more), drawn
    from the grammar: one to three leaves, each argument in one of several
    spellings, and a product when there are two or more."""
    def leaf(room: int) -> tuple[str, int]:
        kind = draw(st.sampled_from([k for k in charts._KINDS if k != "S6" or room >= 6]))
        args, dim = [], 6
        for name, (sign, _) in charts._KINDS[kind].args.items():
            if name == "m":
                m = draw(st.integers(1, min(3, room // 2)))
                args.append(draw(st.sampled_from(["{}", "+{}", "0{}"])).format(m))
                dim = 2 * m
            else:
                value = sign * draw(st.floats(0.01, 100.0))
                args.append(draw(st.sampled_from(["{!r}", "{:g}", "{:e}", "{:E}"])).format(value))
        name = draw(st.sampled_from([kind, kind.lower(), kind.capitalize()]))
        return f"{name}({_spaced(args, draw)})", dim

    count, room, texts = draw(st.integers(1, 3)), max_dim, []
    for later in reversed(range(count)):  # keep 2 dimensions for each later factor
        text, dim = leaf(room - 2 * later)
        texts.append(text)
        room -= dim
    if count == 1:
        return texts[0]
    return f"{draw(st.sampled_from(['PRODUCT', 'product']))}({_spaced(texts, draw)})"


_MUTANT_CHARS = st.sampled_from(list("(),. _+-eE0123456789CDEPS") + ["\u0663", "\u00a0"])


def _dispatch(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    return code, err.getvalue()


@settings(max_examples=25, deadline=None)
@given(_grammar_descriptor(), st.data())
def test_grammar_draws_round_trip_and_their_mutants_fail_cleanly(desc, data):
    """A label is a fixed point of the reader (labels print floats with :g, so the
    spec need not be); one character deleted, replaced or inserted ends in the
    bundle or in one error line, never a traceback."""
    label = parse_model_spec(desc).label()
    assert parse_model_spec(label).label() == label
    i = data.draw(st.integers(0, len(desc)))
    char = data.draw(_MUTANT_CHARS)
    mutant = data.draw(st.sampled_from(
        [desc[:i] + desc[i + 1:], desc[:i] + char + desc[i + 1:], desc[:i] + char + desc[i:]]))
    code, err = _dispatch(["tensor", mutant, "--quiet"])
    assert code in (0, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=12, deadline=None)
@given(_grammar_descriptor(max_dim=6))
def test_identities_on_small_grammar_draws_never_trace_back(desc):
    code, err = _dispatch(["identities", desc, "--points", "1", "--quiet"])
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_code():
    assert cli_dispatch([]) == 2
    assert cli_dispatch(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [["all", "--m", "2"], ["scenario", "cor33_spotcheck", "--m", "2"],
                                  ["scenario", "thm32_models", "--m", "2", "--json", "{json}"]])
def test_minimum_m_is_named_before_any_scenario_runs(argv, tmp_path, capsys):
    """The scenarios that take the corrected tensor of m-dimensional models need
    m >= 3; the error names m, and no report is written."""
    report = tmp_path / "report.json"
    assert cli_dispatch([str(report) if a == "{json}" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    assert captured.err.endswith("needs m >= 3 for the corrected tensor, got m = 2\n")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert cli_dispatch(["scenario", "thm21_forward", "--m", "2", "--quiet"]) == 0


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, capsys):
    """The parser is built once per process; each invocation through it, usage
    errors and rejected flags among them, exits and prints what it does
    through a parser of its own."""
    doc = tmp_path / "s6.json"
    argvs = [
        ["identities", "CE(1)", "--points", "1", "--seed", "3"],
        ["identities", "--bogus"],
        ["all", "--c", "nan"],
        ["scenario", "thm21_forward", "--points", "-1"],
        ["tensor", "s6", "--quiet", "--dump", str(doc)],
        ["validate", str(doc), "--seed", "-1"],
        ["validate", str(doc)],
        ["all", "--m", "2"],
        ["identities", "--help"],
        ["frobnicate"],
        ["identities", "CE(1)", "--points", "1", "--seed", "3", "--quiet"],
    ]
    cli._build_parser.cache_clear()
    shared = []
    for argv in argvs:
        code = cli_dispatch(argv)
        shared.append((code, *capsys.readouterr()))
    assert cli._build_parser.cache_info().misses == 1
    assert [r[0] for r in shared] == [0, 2, 2, 2, 0, 2, 0, 2, 0, 2, 0]
    for argv, result in zip(argvs, shared):
        cli._build_parser.cache_clear()
        code = cli_dispatch(argv)
        assert (code, *capsys.readouterr()) == result


def test_quiet_suppresses_output(capsys):
    assert cli_dispatch(["scenario", "thm21_forward", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_all_reports_the_s6_chart_checks_once(tmp_path):
    """The S6 chart suite runs in identities_s6 only; thm31_s6 keeps its
    algebraic checks."""
    out = tmp_path / "all.json"
    assert cli_dispatch(["all", "--seed", "7", "--quiet", "--json", str(out)]) == 0
    names = {r["scenario"]: [c["name"] for c in r["checks"]]
             for r in json.loads(out.read_text())["reports"]}
    assert not [n for n in names["thm31_s6"] if n.startswith("chart_")]
    s6_chart = ["chart_curvature_matches_model", "chart_nk", "chart_id_1_1", "chart_id_1_2",
                "chart_id_1_3", "chart_id_1_5", "chart_id_3_2", "chart_id_3_3"]
    assert sorted(names["identities_s6"]) == sorted(s6_chart)


@pytest.mark.slow
def test_all_seed7_byte_identical(tmp_path):
    """Two identical invocations serialize to identical bytes."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["all", "--seed", "7", "--points", "1", "--quiet"]
    assert cli_dispatch(argv + ["--json", str(a)]) == 0
    assert cli_dispatch(argv + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
