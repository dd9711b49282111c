"""Curvature algebra and verification toolkit for almost Hermitian model spaces.

The package is organized bottom-up:

* :mod:`bochnerkit.multilinear`    dense tensor values, invariant norms
* :mod:`bochnerkit.curvature`      pointwise almost Hermitian constructions
* :mod:`bochnerkit.bochner`        the two trace-corrected curvature tensors
* :mod:`bochnerkit.octonion`       the seven-dimensional cross product
* :mod:`bochnerkit.charts`         exact-derivative geometry on model charts
* :mod:`bochnerkit.scenarios`      theorem-level verification scenarios
* :mod:`bochnerkit.serialization`  canonical JSON and the tensor document format
* :mod:`bochnerkit.cli`            the command-line interface
"""

from .multilinear import (
    TOL_ALG,
    CurvTensor,
    invariant_norm,
)
from .curvature import (
    HermitianPoint,
    RicciFamily,
    complex_space_form_tensor,
    flat_point,
    ricci_family,
    space_form_tensor,
    standard_J,
    star,
    validate_point,
)
from .bochner import (
    BochnerOutput,
    generalized_bochner,
    nk_flat_form_3_4,
    rk_bochner,
)
from .charts import (
    ChartModel,
    FDConfig,
    geometry_at,
    make_chart,
    nk_identity_suite,
    parse_model_spec,
)
from .scenarios import (
    SCENARIO_IDS,
    ScenarioParams,
    ScenarioReport,
    run_all,
    run_scenario,
)
from .serialization import TensorDocument, canonical_json, dump_tensor, load_tensor

__version__ = "0.1.0"
