"""Theorem-level verification scenarios.

Every scenario assembles model data, runs the relevant constructions, and
returns its defects by check name, in report order.  One table, ``_CHECKS``,
gives each check its kind, gate and claim, keyed by scenario and check-name
pattern, and ``_check`` scores every check of a report by it:

* a *vanish* check passes when its defect is within its gate;
* a *nonvanish* check asserts that a quantity predicted to be nonzero really
  is: when the prediction holds (a finite defect above its gate) the status
  is ``expected-fail`` (the identity fails, as it must), which counts as
  success; only ``fail`` blocks a report.

Each check name matches exactly one pattern of its scenario, so the order of
the rows carries no meaning.  The rows of identity-catalog residuals read
their gates from :attr:`charts.NKIdentityReport.GATES`.

A defect taken over several points or samples is their worst, and NaN if any
of them is NaN, so a NaN never passes.

The seed moves only the sample points of the charts; every algebraic check
reads the exact model tensor at its flat point.  So a report is a pure
function of (scenario id, parameters), and a scenario without a chart does
not depend on the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Callable

import numpy as np

from .bochner import generalized_bochner, nk_flat_form_3_4, rk_bochner
from .charts import (
    ChartSpec,
    FDConfig,
    NKIdentityReport,
    geometry_at,
    make_chart,
    nk_identity_suite,
    parse_model_spec,
    _model_tensor,
)
from .curvature import (
    HermitianPoint,
    _ahsc_defect,
    _ricci_identities,
    _traces,
    flat_point,
    ricci_family,
)
from .multilinear import TOL_ALG, CurvTensor, InputError, _norm, invariant_norm

__all__ = [
    "SCENARIO_IDS",
    "ScenarioParams",
    "CheckResult",
    "ScenarioReport",
    "ScenarioParamError",
    "UnknownScenarioError",
    "make_model",
    "run_scenario",
    "run_all",
]


class ScenarioParamError(InputError):
    """Parameter outside the documented range for the requested scenario."""


class UnknownScenarioError(InputError):
    """No scenario with the requested id."""


# the three gates, as every report states them
_TOLERANCES = {"tol_alg": TOL_ALG, "tol_fd1": FDConfig.tol_fd1, "tol_fd2": FDConfig.tol_fd2}


@dataclass(frozen=True)
class ScenarioParams:
    """Scenario inputs; defaults are the smallest faithful instances."""

    m: int = 3
    k: int = 1
    c: float = 1.0
    mu: float = 1.0
    seed: int = 0
    chart_points: int = 2

    def validate(self) -> None:
        if not (2 <= self.m <= 6):
            raise ScenarioParamError(f"m must be in [2, 6], got {self.m}")
        if not (1 <= self.k < self.m):
            raise ScenarioParamError(f"k must satisfy 1 <= k < m, got k={self.k}, m={self.m}")
        if not (0 < self.c < np.inf and 0 < self.mu < np.inf):  # NaN fails both
            raise ScenarioParamError("curvature scales c and mu must be finite and positive")
        if self.chart_points < 1:
            raise ScenarioParamError("chart_points must be >= 1")


@dataclass(frozen=True)
class CheckResult:
    """One named check: the measured defect against its tolerance."""

    name: str
    claim: str
    defect: float
    tolerance: float
    status: str  # pass | fail | expected-fail


@dataclass
class ScenarioReport:
    scenario: str
    parameters: dict
    checks: list[CheckResult]
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema_version": 3,
            "scenario": self.scenario,
            "parameters": self.parameters,
            "checks": [{**vars(c), "defect": _json_number(c.defect)} for c in self.checks],
            "status": "pass" if self.passed else "fail",
        }
        # timing is excluded by default so identical runs serialize to
        # identical bytes
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out


def _worst(defects) -> float:
    """The largest of 0 and ``defects``, or NaN if any defect is NaN: ``max``
    keeps whichever of a number and a NaN comes first, so a NaN could pass."""
    defects = [0.0, *defects]
    return math.nan if any(map(math.isnan, defects)) else max(defects)


def _json_number(x: float) -> float | str:
    """``x``, or its text nan, inf or -inf, which canonical JSON writes as no number."""
    return x if math.isfinite(x) else str(x)


# ---------------------------------------------------------------------------
# algebraic model gallery (shared with the CLI)
# ---------------------------------------------------------------------------

def make_model(spec: ChartSpec | str) -> tuple[HermitianPoint, CurvTensor, str]:
    """Algebraic (pointwise) model for a descriptor, product or leaf: the flat
    point of its dimension plus the exact curvature tensor of the named space."""
    if isinstance(spec, str):
        spec = parse_model_spec(spec)
    point = flat_point(spec.dim)
    return point, _model_tensor(spec, point), spec.label()


def _csf_spec(dims_mus: list[tuple[int, float]]) -> ChartSpec:
    """Product of constant-HSC factors given as (complex dim, mu) pairs: CP for
    mu > 0, CD for mu < 0 and CE for mu = 0."""
    return ChartSpec("PRODUCT", factors=tuple(
        ChartSpec("CE", m=m) if mu == 0 else ChartSpec("CP" if mu > 0 else "CD", m=m, mu=mu)
        for m, mu in dims_mus
    ))


# ---------------------------------------------------------------------------
# the run's table: each distinct input is built once per run
# ---------------------------------------------------------------------------

def _memo(table: dict, key, build: Callable[[], Any]) -> Any:
    """``table[key]``, built by ``build()`` the first time the run asks for it.
    The table lives for one run, so nothing carries over between runs."""
    if key not in table:
        table[key] = build()
    return table[key]


def _model(desc: ChartSpec | str, table: dict) -> tuple[HermitianPoint, CurvTensor, str]:
    """:func:`make_model` of ``desc``, kept by descriptor; labels round the parameters."""
    return _memo(table, ("model", desc), lambda: make_model(desc))


def _model_norm(fn: Callable, desc: ChartSpec | str, table: dict) -> float:
    """The norm of ``fn`` (rk_bochner or generalized_bochner) on the model of ``desc``."""
    return _memo(table, (fn, desc), lambda: fn(*_model(desc, table)[:2]).norm)


def _chart(p: ScenarioParams, desc: str, table: dict) -> tuple:
    """The chart of ``desc`` and its first ``p.chart_points`` sample points; a
    scenario that reads fewer reads the first ones, which fewer draws give too."""
    chart = _memo(table, ("chart", desc), lambda: make_chart(desc))
    return chart, _memo(table, ("x", desc), lambda: chart.sample_points(p.seed, p.chart_points))


def _geometries(p: ScenarioParams, desc: str, count: int, table: dict) -> list:
    """The geometry at the first ``count`` sample points of the chart of ``desc``."""
    chart, xs = _chart(p, desc, table)
    return [_memo(table, ("geometry", desc, i), lambda: geometry_at(chart, xs[i]))
            for i in range(count)]


def _chart_b_norms(p: ScenarioParams, desc: str, count: int, table: dict) -> list[float]:
    """The rk_bochner norm at each of the first ``count`` sample points of ``desc``."""
    return [_memo(table, (rk_bochner, desc, i), lambda: rk_bochner(geo.point, geo.R).norm)
            for i, geo in enumerate(_geometries(p, desc, count, table))]


def _suite(p: ScenarioParams, desc: str, table: dict) -> NKIdentityReport:
    """The suite at the first sample point of the chart of ``desc``."""
    chart, xs = _chart(p, desc, table)
    return _memo(table, ("suite", desc), lambda: nk_identity_suite(chart, xs[0]))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _thm21_forward(p: ScenarioParams, table: dict) -> dict[str, float]:
    spec = _csf_spec([(p.k, p.mu), (p.m - p.k, -p.mu)])
    return {f"bstar_product_{p.k}_{p.m - p.k}": _model_norm(generalized_bochner, spec, table)}


_EPSILONS = (1e-3, 1e-2, 1e-1)


def _thm21_converse(p: ScenarioParams, table: dict) -> dict[str, float]:
    defects = {"bstar_unperturbed": _model_norm(
        generalized_bochner, _csf_spec([(p.k, p.mu), (p.m - p.k, -p.mu)]), table)}
    for eps in _EPSILONS:
        spec = _csf_spec([(p.k, p.mu), (p.m - p.k, -p.mu + eps)])
        defects[f"bstar_perturbed_eps_{eps:g}"] = _model_norm(generalized_bochner, spec, table)
    norms = list(defects.values())[1:]  # the perturbed norms, by growing detuning
    defects["bstar_growth_monotone"] = _worst(a - b for a, b in zip(norms, norms[1:]))
    return defects


def _cor22(p: ScenarioParams, table: dict) -> dict[str, float]:
    zero = _csf_spec([(1, 0.0), (1, 0.0), (1, 0.0)])
    defects = {"bstar_triple_zero_hsc": _model_norm(generalized_bochner, zero, table)}
    for mus in ((p.mu, -p.mu, p.mu), (p.mu, -p.mu, 0.0)):
        spec = _csf_spec([(1, mu) for mu in mus])
        name = "bstar_triple_hsc_" + "_".join(f"{v:g}" for v in mus)
        defects[name] = _model_norm(generalized_bochner, spec, table)
    return defects


def _thm31_s6(p: ScenarioParams, table: dict) -> dict[str, float]:
    desc = f"S6({p.c!r})"
    point, R, _ = _model(desc, table)
    fam = ricci_family(point, R)
    S, Sp = fam.S, fam.S_prime
    return {
        "b_vanishes": _model_norm(rk_bochner, desc, table),
        "tau_value": abs(fam.tau - 30.0 * p.c),
        "tau_prime_value": abs(fam.tau_prime - 6.0 * p.c),
        "tau_ratio": abs(fam.tau - 5.0 * fam.tau_prime),
        "star_relation": _norm(point.g_inv, 4.0 * fam.S_star - (S + 3.0 * Sp)),
        "twisted_contraction": _ricci_identities(point, S, Sp, fam.tau, fam.tau_prime)[0],
        "flat_form_reconstruction":
            invariant_norm(point, nk_flat_form_3_4(point, S, fam.tau) - R),
    }


def _mixed_component_max(R: CurvTensor, n1: int) -> float:
    inside = np.array(R.components)
    inside[:n1, :n1, :n1, :n1] = 0.0
    inside[n1:, n1:, n1:, n1:] = 0.0
    return float(np.max(np.abs(inside)))


def _thm31_product(p: ScenarioParams, table: dict) -> dict[str, float]:
    desc = f"PRODUCT(CD(1,{-p.c!r}),S6({p.c!r}))"
    geometries = _geometries(p, desc, p.chart_points, table)
    point0, R0 = geometries[0].point, geometries[0].R
    traces = _traces(point0.g_inv, point0.J, R0.components)[:4]
    return {
        "b_vanishes": _model_norm(rk_bochner, desc, table),
        "bstar_vanishes": _model_norm(generalized_bochner, desc, table),
        "chart_b_vanishes": _worst(_chart_b_norms(p, desc, p.chart_points, table)),
        "chart_mixed_components": _worst(_mixed_component_max(geo.R, 2) for geo in geometries),
        "chart_id_3_2": _ricci_identities(point0, *traces)[1],
    }


def _thm31_counterexample(p: ScenarioParams, table: dict) -> dict[str, float]:
    desc = f"PRODUCT(CD(2,{-p.c!r}),S6({p.c!r}))"
    point, R, _ = _model(desc, table)
    # the witness (e0 + e4, e2 + e6, e2 - e6, e0 - e4)/sqrt2 is an orthonormal
    # antiholomorphic frame of the flat point, on which R reads c/4 (S6 block) - c/16
    # (CD block) = 3c/16, the largest |R| on such frames that maximization finds; the
    # four 1/sqrt2 are applied as one exact 1/4
    e = np.eye(point.dim)
    x, y, z, u = e[0] + e[4], e[2] + e[6], e[2] - e[6], e[0] - e[4]
    return {
        "b_nonvanishing": _model_norm(rk_bochner, desc, table),
        "bstar_vanishes": _model_norm(generalized_bochner, desc, table),
        "antiholo_4frame": abs(np.einsum("abcd,a,b,c,d->", R.components, x, y, z, u)) / 4.0,
    }


def _thm32_models(p: ScenarioParams, table: dict) -> dict[str, float]:
    descriptors = [
        f"CE({p.m})",
        f"CD({p.m},{-p.c!r})",
        f"CP({p.m},{p.c!r})",
        f"S6({p.c!r})",
        f"PRODUCT(CD(1,{-p.c!r}),S6({p.c!r}))",
        f"PRODUCT(CD(1,{-p.c!r}),CP({p.m - 1},{p.c!r}))",
    ]
    defects = {}
    for desc in descriptors:
        label = _model(desc, table)[2]
        defects[f"b_{label}"] = _model_norm(rk_bochner, desc, table)
        [defects[f"chart_b_{label}"]] = _chart_b_norms(p, desc, 1, table)
    return defects


def _cor33_spotcheck(p: ScenarioParams, table: dict) -> dict[str, float]:
    cases = [
        (f"S6({p.c!r})", p.c),
        (f"CP({p.m},{p.mu!r})", p.mu / 4.0),
        (f"CD({p.m},{-p.mu!r})", -p.mu / 4.0),
    ]
    defects = {}
    for desc, nu in cases:
        point, R, label = _model(desc, table)
        defects[f"b_{label}"] = _model_norm(rk_bochner, desc, table)
        defects[f"ahsc_constant_{label}"] = _ahsc_defect(point, R.components, nu)
    return defects


def _model_error(geometries: list, desc: str) -> float:
    """Worst relative invariant distance of the chart curvatures from the exact one of ``desc``."""
    spec, errors = parse_model_spec(desc), []
    for geo in geometries:
        target = _model_tensor(spec, geo.point)
        norm = invariant_norm(geo.point, target)
        if norm == 0.0:  # underflow; np.errstate does not see a Python float division
            raise FloatingPointError("the model curvature norm underflows to 0")
        errors.append(invariant_norm(geo.point, geo.R - target) / norm)
    return _worst(errors)


def _identities_s6(p: ScenarioParams, table: dict) -> dict[str, float]:
    desc = f"S6({p.c!r})"
    geometries = _geometries(p, desc, p.chart_points, table)
    defects = {"chart_curvature_matches_model": _model_error(geometries, desc)}
    suite = _suite(p, desc, table)
    for r in ("nk", "id_1_1", "id_1_2", "id_1_3", "id_1_5", "id_3_2", "id_3_3"):
        defects[f"chart_{r}"] = getattr(suite, r)
    return defects


def _identities_cp(p: ScenarioParams, table: dict) -> dict[str, float]:
    desc = f"CP({p.m},{p.mu!r})"
    geometries = _geometries(p, desc, p.chart_points, table)
    defects = {
        "chart_curvature_matches_model": _model_error(geometries, desc),
        # full norm of nabla J, its upper index lowered
        "chart_nabla_j": _worst(_norm(geo.point.g_inv, geo.point.g @ geo.nJ) for geo in geometries),
    }
    fam = ricci_family(geometries[0].point, geometries[0].R)
    suite = _suite(p, desc, table)
    for r in ("nk", "id_1_1", "id_1_2", "id_1_3", "id_1_5", "id_3_2"):
        defects[f"chart_{r}"] = getattr(suite, r)
    return {**defects, "chart_tau_equality": abs(fam.tau - fam.tau_prime),
            "chart_id_3_3": suite.id_3_3}


def _bianchi(p: ScenarioParams, table: dict) -> dict[str, float]:
    defects = {}
    for desc in (f"S6({p.c!r})", f"CE({p.m})", f"CP({p.m},{p.mu!r})"):
        label, suite = _chart(p, desc, table)[0].label, _suite(p, desc, table)
        for r in ("id_1_4", "id_1_6", "id_1_7"):
            defects[f"{r}_{label}"] = getattr(suite, r)
    return defects


_SCENARIOS = {
    "thm21_forward": _thm21_forward,
    "thm21_converse": _thm21_converse,
    "cor22": _cor22,
    "thm31_s6": _thm31_s6,
    "thm31_product": _thm31_product,
    "thm31_counterexample": _thm31_counterexample,
    "thm32_models": _thm32_models,
    "cor33_spotcheck": _cor33_spotcheck,
    "identities_s6": _identities_s6,
    "identities_cp": _identities_cp,
    "bianchi": _bianchi,
}

SCENARIO_IDS = tuple(_SCENARIOS)

_GATES = NKIdentityReport.GATES
# each scenario's checks: a pattern of check names, matched by fnmatchcase against
# the whole name, maps to (predicts a nonzero value, gate, claim); every name of a
# scenario matches exactly one of its patterns
_CHECKS: dict[str, dict[str, tuple[bool, float, str]]] = {
    "thm21_forward": {
        "bstar_product_*": (False, TOL_ALG, "a product of two spaces of opposite constant "
                            "holomorphic sectional curvature has vanishing trace-free symmetrized "
                            "curvature"),
    },
    "thm21_converse": {
        "bstar_unperturbed": (False, TOL_ALG, "the unperturbed opposite-curvature product is "
                              "trace-free"),
        "bstar_perturbed_eps_*": (True, TOL_ALG, "detuning one factor away from opposite curvature "
                                  "produces a nonvanishing trace-free part"),
        "bstar_growth_monotone": (False, 0.0, "the trace-free norm grows strictly with the "
                                  "detuning"),
    },
    "cor22": {
        "bstar_triple_zero_hsc": (False, TOL_ALG, "a triple product with all factors of zero "
                                  "holomorphic sectional curvature is trace-free"),
        "bstar_triple_hsc_*": (True, TOL_ALG, "a triple product with any nonzero factor curvature "
                               "is not trace-free"),
    },
    "thm31_s6": {
        "b_vanishes": (False, TOL_ALG, "the round six-sphere has vanishing corrected curvature"),
        "tau_value": (False, TOL_ALG, "scalar trace equals 30c on the six-sphere"),
        "tau_prime_value": (False, TOL_ALG, "twisted scalar trace equals 6c on the six-sphere"),
        "tau_ratio": (False, TOL_ALG, "the scalar traces sit in the 5:1 ratio"),
        "star_relation": (False, TOL_ALG, "four times the symmetrized Ricci equals S + 3S'"),
        "twisted_contraction": (False, TOL_ALG, "the twisted Ricci contraction vanishes"),
        "flat_form_reconstruction": (False, TOL_ALG, "the closed 5:1-ratio curvature form "
                                     "reproduces the six-sphere tensor"),
    },
    "thm31_product": {
        "b_vanishes": (False, TOL_ALG, "the hyperbolic-line times six-sphere product has vanishing "
                       "corrected curvature"),
        "bstar_vanishes": (False, TOL_ALG, "the product pairs opposite constant holomorphic "
                           "curvatures, so the trace-free symmetrized tensor vanishes"),
        "chart_b_vanishes": (False, FDConfig.tol_fd2, "the corrected curvature also vanishes for "
                             "the exact-derivative product chart"),
        "chart_mixed_components": (False, FDConfig.tol_fd1, "product curvature has no mixed "
                                   "components"),
        "chart_id_3_2": (True, _GATES["id_3_2"], "the Ricci difference of the product is not a "
                         "multiple of the metric, as the two blocks carry different constants"),
    },
    "thm31_counterexample": {
        "b_nonvanishing": (True, 1e-3, "the hyperbolic-plane times six-sphere product has "
                           "nonvanishing corrected curvature"),
        "bstar_vanishes": (False, TOL_ALG, "the same product still pairs opposite holomorphic "
                           "curvatures, so the trace-free symmetrized tensor is blind to it"),
        "antiholo_4frame": (True, 1e-3, "curvature does not vanish on orthonormal antiholomorphic "
                            "4-frames, which a vanishing corrected tensor would force"),
    },
    "thm32_models": {
        "b_*": (False, TOL_ALG,
                "constant-scalar-curvature model has vanishing corrected curvature"),
        "chart_b_*": (False, FDConfig.tol_fd2, "the exact-derivative chart agrees"),
    },
    "cor33_spotcheck": {
        "b_*": (False, TOL_ALG, "a space of constant antiholomorphic sectional curvature has "
                "vanishing corrected curvature"),
        "ahsc_constant_*": (False, TOL_ALG, "every antiholomorphic plane reports the model "
                            "constant: the curvature is that constant times pi1 plus a psi term, "
                            "which vanishes on them"),
    },
    "identities_s6": {
        "chart_curvature_matches_model": (False, FDConfig.tol_fd2, "exact-derivative curvature of "
                                          "the round six-sphere chart matches the "
                                          "constant-curvature tensor"),
        "chart_nk": (False, _GATES["nk"], "the chart is nearly Kahler"),
        "chart_id_1_1": (False, _GATES["id_1_1"], "curvature J-rotation defect equals the nabla-J "
                         "pairing"),
        "chart_id_1_2": (False, _GATES["id_1_2"], "second derivatives of J are determined by "
                         "curvature"),
        "chart_id_1_3": (False, _GATES["id_1_3"], "the derivative of the twisted Ricci difference "
                         "couples to nabla J"),
        "chart_id_1_5": (False, _GATES["id_1_5"], "the twisted Ricci contraction vanishes"),
        "chart_id_3_2": (False, _GATES["id_3_2"], "the Ricci difference is a multiple of the "
                         "metric"),
        "chart_id_3_3": (False, _GATES["id_3_3"], "the scalar traces sit in the 5:1 ratio"),
    },
    "identities_cp": {
        "chart_curvature_matches_model": (False, FDConfig.tol_fd2, "exact-derivative curvature "
                                          "matches the constant holomorphic curvature tensor"),
        "chart_nabla_j": (False, FDConfig.tol_fd1, "the chart is Kahler: nabla J vanishes"),
        "chart_nk": (False, _GATES["nk"], "Kahler charts are nearly Kahler"),
        "chart_id_1_1": (False, _GATES["id_1_1"], "both sides of the J-rotation pairing vanish"),
        "chart_id_1_2": (False, _GATES["id_1_2"], "second derivatives of J are determined by "
                         "curvature"),
        "chart_id_1_3": (False, _GATES["id_1_3"], "the Ricci-difference derivative identity "
                         "degenerates to 0 = 0"),
        "chart_id_1_5": (False, _GATES["id_1_5"], "the twisted Ricci contraction vanishes"),
        "chart_id_3_2": (False, _GATES["id_3_2"], "the Ricci difference vanishes, hence is a "
                         "multiple of the metric"),
        "chart_tau_equality": (False, FDConfig.tol_fd2, "the two scalar traces agree on a Kahler "
                               "model"),
        "chart_id_3_3": (True, _GATES["id_3_3"], "the 5:1 scalar ratio does not apply to the "
                         "Kahler model"),
    },
    "bianchi": {
        "id_1_4_*": (False, _GATES["id_1_4"], "the scalar trace difference is locally constant"),
        "id_1_6_*": (False, _GATES["id_1_6"], "the contracted differential identity for curvature "
                     "holds"),
        "id_1_7_*": (False, _GATES["id_1_7"], "the contracted differential identity for the Ricci "
                     "trace holds"),
    },
}


def _check(scenario_id: str, name: str, defect: float) -> CheckResult:
    """Check ``name`` of ``scenario_id`` by its one row of :data:`_CHECKS`: a vanish
    check passes when ``defect`` is within the gate; a nonvanish check is
    ``expected-fail`` when ``defect`` is finite and above it, since an overflow to inf
    is no measurement of the predicted nonzero value."""
    [(nonzero, gate, claim)] = [row for pattern, row in _CHECKS[scenario_id].items()
                                if fnmatchcase(name, pattern)]
    if nonzero:
        status = "expected-fail" if gate < defect < np.inf else "fail"
    else:
        status = "pass" if defect <= gate else "fail"
    return CheckResult(name, claim, float(defect), float(gate), status)

# the corrected tensor of their complex-dimension-m models needs real dimension >= 6
_MIN_M = {"thm32_models": 3, "cor33_spotcheck": 3}


def run_scenario(scenario_id: str, params: ScenarioParams | None = None) -> ScenarioReport:
    """Run one scenario and return its report."""
    return _run(scenario_id, params, {})


def _run(scenario_id: str, params: ScenarioParams | None, table: dict) -> ScenarioReport:
    if scenario_id not in _SCENARIOS:
        raise UnknownScenarioError(
            f"unknown scenario {scenario_id!r}; known: {', '.join(SCENARIO_IDS)}"
        )
    params = _validated(params, (scenario_id,))
    start = time.perf_counter()
    defects = _SCENARIOS[scenario_id](params, table)
    checks = [_check(scenario_id, name, defect) for name, defect in defects.items()]
    return ScenarioReport(
        scenario=scenario_id,
        parameters={**vars(params), "tolerances": dict(_TOLERANCES)},
        checks=checks,
        wall_time_s=time.perf_counter() - start,
    )


def run_all(params: ScenarioParams | None = None) -> list[ScenarioReport]:
    """Run every scenario in a fixed order, sharing one table: each model, chart,
    sampled chart point, suite and corrected-tensor norm is evaluated once per run."""
    table: dict = {}
    params = _validated(params, SCENARIO_IDS)
    return [_run(sid, params, table) for sid in SCENARIO_IDS]


def _validated(params: ScenarioParams | None, scenario_ids: tuple[str, ...]) -> ScenarioParams:
    """``params`` or the defaults, validated for every scenario in ``scenario_ids``."""
    params = params or ScenarioParams()
    params.validate()
    for sid in scenario_ids:
        if params.m < _MIN_M.get(sid, 2):
            raise ScenarioParamError(
                f"{sid} needs m >= {_MIN_M[sid]} for the corrected tensor, got m = {params.m}"
            )
    return params
