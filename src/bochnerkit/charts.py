"""Numerical differential geometry on concrete coordinate charts.

Each model space is realized as a single chart with closed-form metric and
almost complex structure fields; connection, curvature, and the covariant
derivatives of J and of the Ricci traces come from central finite differences
Richardson-extrapolated to fourth order, except the innermost derivatives of
the two fields, dg and dJ, which are complex steps.

The real levels are one stencil grid: ``geometry_at`` differentiates Gamma on
the stencil of x, and the identity suite differentiates on the stencil of x
the geometry that is itself differentiated on the stencil of each of those
points.  Gamma is evaluated once per distinct point of the grid and kept in
one table of its lower pairs; each level reads its differences from it.  The
grid belongs to a leaf chart: a product's results are assembled from its leaves'.

Models (each leaf kind is one row of ``_KINDS``):

* ``CE(m)``      flat R^{2m}, constant block J.
* ``S6(c)``      the round six-sphere of sectional curvature c in a
                 stereographic chart, whose metric is conformally flat; J is
                 the cross-product structure of the unit sphere in R^7, pulled
                 back through the embedding differential.
* ``CP(m, mu)``  constant holomorphic sectional curvature mu > 0 in a
                 realified complex affine chart; J constant.
* ``CD(m, mu)``  the hyperbolic analog (mu < 0) on the unit ball.
* ``PRODUCT(a, b)``  block metric and block J with a product domain sampler;
                 its geometry and the suite's derivatives are the block-diagonal
                 assembly of its leaf charts' finished results.

Chart evaluators are pure; sampled points may be processed in parallel and
combined by max, so suite reports are schedule-independent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .curvature import (
    HermitianPoint, PointValidationError, complex_space_form_tensor, point_violations,
    space_form_tensor, standard_J, validate_point,
    _block_diagonal, _g_inv, _ricci_identities, _rotate, _spans, _traces,
)
from .multilinear import CurvTensor, InputError, NonFiniteError, _norm
from .octonion import cross_operator

__all__ = [
    "FDConfig",
    "FDConfigError",
    "ChartModel",
    "ChartSpecError",
    "MarginError",
    "NotNearlyKahlerError",
    "NKIdentityReport",
    "parse_model_spec",
    "make_chart",
    "ChartGeometry",
    "geometry_at",
    "nk_identity_suite",
]


# largest real dimension; TOL_ALG holds up to here for unit-scale orthonormal
# points only: rk_bochner(rk_project(R)) of a random_curvature_tensor rejects 7,
# 12 and 22 of 40 random_hermitian_point seeds at n = 8, 10 and 12 (ROADMAP item 6)
MAX_DIM = 12
H_C = 1e-30  # complex step of every first derivative of a chart field
NK_THRESHOLD = 1e-3  # nearly Kahler defect above which the suite aborts


class ChartSpecError(InputError):
    """Unknown model descriptor or parameter outside its admissible range."""


class MarginError(InputError):
    """The evaluation point is too close to the chart boundary for the stencil."""


class FDConfigError(InputError):
    """The finite-difference step collapses the stencil at the evaluation point."""


class NotNearlyKahlerError(InputError):
    """The chart fails (nabla_X J) X = 0, so the dependent identities are skipped."""

    def __init__(self, defect: float, threshold: float):
        super().__init__(
            f"chart is not nearly Kahler (defect {defect:.3e} above {threshold:.1e}); "
            "dependent identity checks aborted"
        )
        self.defect = float(defect)


@dataclass(frozen=True)
class FDConfig:
    """The finite-difference step policy, constants the gates are calibrated for.

    ``h`` is the step of the outer derivative levels, each Richardson-extrapolated
    to fourth order from the central differences at h/2 and h; the innermost ones,
    dg in the Christoffel symbols and dJ in nabla J, are complex steps of ``H_C``.

    The class constants ``tol_fd1`` (first-derivative-level identities, e.g.
    nearly Kahler defects) and ``tol_fd2`` (second-derivative-level ones,
    curvature comparisons) are the two FD gates, set for this step at the
    measured truncation/rounding crossover for double precision.  They are their
    only owner: the scenarios and the CLI read them here, and no flag or
    parameter moves them.  No chart computation reads a tolerance.
    """

    h: ClassVar[float] = 1e-3
    tol_fd1: ClassVar[float] = 1e-6
    tol_fd2: ClassVar[float] = 1e-4


@dataclass(frozen=True)
class ChartModel:
    """One coordinate chart of a model space.

    ``metric_at`` / ``J_at`` take points of shape (..., n) and return raw
    arrays of shape (..., n, n): a single point (n,) gives one matrix, and a
    stack of points is evaluated in one call.  Both fields must be analytic in
    x and take complex points, as their first derivatives are complex steps (no
    ``abs``, ``norm`` or real-only cast).  ``boundary_radius`` is the coordinate
    radius at which the chart degenerates (infinite for global charts);
    ``sample_radius`` keeps sampled points well-conditioned.  A product's
    geometry and suite are assembled from the finished results of its leaf
    ``factors``, each evaluated on its own coordinates alone, so replacing the
    product's own fields (``dataclasses.replace(product, metric_at=...)``) does
    not change them.
    """

    label: str
    n: int
    metric_at: Callable[[np.ndarray], np.ndarray]
    J_at: Callable[[np.ndarray], np.ndarray]
    boundary_radius: float = np.inf
    sample_radius: float = 0.8
    factors: tuple["ChartModel", ...] = ()

    def sample_points(self, seed: int, count: int) -> np.ndarray:
        """Seeded interior points with guaranteed margin from the boundary."""
        rng = np.random.default_rng(seed)
        return np.array([self._draw(rng) for _ in range(count)])

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        if self.factors:
            return np.concatenate([f._draw(rng) for f in self.factors])
        direction = rng.standard_normal(self.n)
        direction /= np.linalg.norm(direction)
        radius = self.sample_radius * rng.uniform() ** (1.0 / self.n)
        return radius * direction

    def require_margin(self, x: np.ndarray, needed: float) -> None:
        if self.factors:
            for f, sl in zip(self.factors, _spans([f.n for f in self.factors])):
                f.require_margin(x[sl], needed)
            return
        if np.linalg.norm(x) + needed >= self.boundary_radius:
            raise MarginError(
                f"point at radius {np.linalg.norm(x):.3f} violates margin {needed:.2e} "
                f"of chart '{self.label}' (boundary radius {self.boundary_radius})"
            )


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartSpec:
    kind: str                       # a leaf kind of _KINDS, or PRODUCT
    m: int | None = None
    c: float | None = None
    mu: float | None = None
    factors: tuple["ChartSpec", ...] = ()

    def __post_init__(self):
        """Every model parameter is checked here, by its kind's row of ``_KINDS``,
        so algebraic models and charts built from one spec accept the same inputs."""
        leaf = _KINDS.get(self.kind)
        if leaf is None and self.kind != "PRODUCT":
            raise ChartSpecError(f"unknown model kind {self.kind!r}")
        for arg, (sign, needs) in (leaf.args if leaf else {}).items():
            if not sign * _finite(getattr(self, arg)) > 0:
                raise ChartSpecError(f"{self.kind} needs {needs}")
        if self.dim > MAX_DIM:
            raise ChartSpecError(
                f"{self.label()} has real dimension {self.dim}; at most {MAX_DIM} is supported"
            )

    @property
    def dim(self) -> int:
        """Real dimension of the model; a leaf kind without m is six-dimensional."""
        if self.kind == "PRODUCT":
            return sum(f.dim for f in self.factors)
        return 2 * self.m if "m" in _KINDS[self.kind].args else 6

    def label(self) -> str:
        if self.kind == "PRODUCT":
            return "PRODUCT(" + ",".join(f.label() for f in self.factors) + ")"
        args = (str(self.m) if a == "m" else f"{getattr(self, a):g}"
                for a in _KINDS[self.kind].args)
        return f"{self.kind}({','.join(args)})"


def _finite(v: float | None) -> float:
    """``v``, or NaN (which fails every comparison) when missing or infinite."""
    return v if v is not None and abs(v) < np.inf else np.nan


# The one number grammar of descriptors and of the CLI's numeric flags: ASCII digits,
# no digit separators; an integer (no fraction or exponent follows) or a decimal float.
_INTEGER, _DECIMAL = r"[+-]?\d+(?![\d.eE])", r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"


def parse_model_spec(text: str) -> ChartSpec:
    """Parse descriptors like ``CE(3)``, ``S6(1)``, ``CP(3,4)``, ``CD(1,-1)`` and
    ``PRODUCT(CD(1,-1),S6(1))`` by recursive descent, after one check that the
    parentheses of the whole text balance.  Kind names are case-insensitive, m is
    an integer and every other argument a decimal, and whitespace may separate tokens::

        descriptor := KIND "(" [number {"," number}] ")"
                    | "PRODUCT" "(" descriptor "," descriptor {"," descriptor} ")"
    """
    depths = [0, *accumulate((ch == "(") - (ch == ")") for ch in text)]
    if min(depths) < 0 or depths[-1]:
        raise ChartSpecError(f"unbalanced parentheses in model descriptor {text!r}")
    pos, kinds = 0, [*_KINDS, "PRODUCT"]

    def fault(column: int, what: str) -> ChartSpecError:
        return ChartSpecError(f"bad model descriptor {text!r} at column {column}: expected {what}")

    def take(token: str, what: str = "") -> str | None:
        """The ``token`` pattern after any whitespace, consumed, or None; given ``what``,
        its absence is a fault that quotes the text and names the column."""
        nonlocal pos
        match = re.compile(rf"\s*({token})?", re.ASCII).match(text, pos)
        pos = match.end()
        if match[1] is None and what:
            raise fault(pos + 1, what)
        return match[1]

    def descriptor() -> ChartSpec:
        kind = take(rf"(?i:{'|'.join(kinds)})(?![A-Za-z0-9])",
                    f"a model kind, one of {', '.join(kinds)}").upper()
        names = [*_KINDS[kind].args] if kind in _KINDS else []
        take(r"\(", "'('")
        parts = []
        while take(r"\)") is None:
            if parts:
                take(",", "',' or ')'")
            if kind == "PRODUCT":
                parts.append(descriptor())
            elif names[len(parts) : len(parts) + 1] == ["m"]:  # the one integer argument
                parts.append(int(take(_INTEGER, "an integer m")))
            else:
                number = take(_DECIMAL, "a number")
                if abs(float(number)) == np.inf:  # a literal beyond the largest double
                    raise fault(pos - len(number) + 1, "a finite number")
                parts.append(float(number))
        if kind == "PRODUCT":
            if len(parts) < 2:
                raise ChartSpecError(f"PRODUCT needs at least two factors: {text!r}")
            return ChartSpec(kind, factors=tuple(parts))
        if len(parts) != len(names):
            raise ChartSpecError(
                f"bad arguments in model descriptor {text!r}: {kind}({', '.join(names)}) "
                f"takes {len(names)} argument{'s' * (len(names) > 1)}, got {len(parts)}"
            )
        return ChartSpec(kind, **dict(zip(names, parts)))

    spec = descriptor()
    take(r"\Z", "the end of the descriptor")
    return spec


def make_chart(spec: ChartSpec | str) -> ChartModel:
    """Build the chart for a model descriptor: a leaf's from its row of ``_KINDS``;
    a product's fields are the block-diagonal assembly of its factor charts' fields."""
    if isinstance(spec, str):
        spec = parse_model_spec(spec)
    if spec.kind != "PRODUCT":
        return _KINDS[spec.kind].chart(spec)
    charts = tuple(make_chart(f) for f in spec.factors)
    spans = _spans([ch.n for ch in charts])

    def block(fields: list[Callable]) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: _block_diagonal([f(x[..., s]) for f, s in zip(fields, spans)], x.ndim - 1)

    return ChartModel(
        label=spec.label(), n=spec.dim, factors=charts,
        metric_at=block([ch.metric_at for ch in charts]), J_at=block([ch.J_at for ch in charts]),
    )


def _constant(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of a constant field: one copy of ``A`` per point of the batch."""
    return lambda x: np.broadcast_to(A, x.shape[:-1] + A.shape).copy()


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _r2(x: np.ndarray) -> np.ndarray:
    """Squared coordinate radius, shaped to broadcast against (..., n, n)."""
    return np.sum(x * x, axis=-1)[..., None, None]


def _ce_chart(spec: ChartSpec) -> ChartModel:
    n = 2 * spec.m
    return ChartModel(
        label=spec.label(), n=n,
        metric_at=_constant(np.eye(n)), J_at=_constant(standard_J(n)),
    )


def _s6_chart(spec: ChartSpec) -> ChartModel:
    c = spec.c
    rho = 1.0 / np.sqrt(c)

    def embed(x: np.ndarray) -> np.ndarray:
        r2 = np.sum(x * x, axis=-1, keepdims=True)
        s = rho * rho + r2
        return np.concatenate([2 * rho * rho * x / s, rho * (r2 - rho * rho) / s], axis=-1)

    def d_embed(x: np.ndarray) -> np.ndarray:
        s = rho * rho + _r2(x)
        top = 2 * rho * rho * (np.eye(6) * s - 2 * _outer(x, x)) / s**2
        bottom = 4 * rho**3 * x[..., None, :] / s**2
        return np.concatenate([top, bottom], axis=-2)  # (..., 7, 6)

    def conformal(x: np.ndarray) -> np.ndarray:  # lambda with D^T D = lambda I
        return 4 * rho**4 / (rho * rho + _r2(x)) ** 2

    def metric_at(x: np.ndarray) -> np.ndarray:
        return conformal(x) * np.eye(6)

    def J_at(x: np.ndarray) -> np.ndarray:
        D = d_embed(x)
        # C D v is tangent to the sphere, so D^T / lambda inverts the embedding
        # differential exactly on its range; |embed(x)| = rho
        return np.swapaxes(D, -1, -2) @ cross_operator(embed(x) / rho) @ D / conformal(x)

    return ChartModel(label=spec.label(), n=6, metric_at=metric_at, J_at=J_at)


def _interleaved_metric(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Real metric of a Hermitian form A + iB in x1,y1,x2,y2,... coordinates."""
    m = A.shape[-1]
    g = np.zeros(A.shape[:-2] + (2 * m, 2 * m), dtype=A.dtype)
    g[..., 0::2, 0::2] = A
    g[..., 1::2, 1::2] = A
    g[..., 0::2, 1::2] = B
    g[..., 1::2, 0::2] = -B
    return g


def _csf_chart(spec: ChartSpec) -> ChartModel:
    """Constant holomorphic curvature mu: CP (mu > 0) on a realified complex
    affine chart, CD (mu < 0) on the unit ball."""
    m, mu = spec.m, spec.mu
    s, c0 = np.sign(mu), 4.0 / abs(mu)

    def metric_at(xy: np.ndarray) -> np.ndarray:
        x, y = xy[..., 0::2], xy[..., 1::2]
        r2 = _r2(xy)
        if s < 0 and np.any(r2.real >= 1.0):
            raise MarginError(f"CD chart is the open unit ball; |x| = {r2.real.max() ** 0.5:.3f}")
        q = 1 + s * r2
        A = c0 * (q * np.eye(m) - s * (_outer(x, x) + _outer(y, y))) / q**2
        B = -s * c0 * (_outer(x, y) - _outer(y, x)) / q**2
        return _interleaved_metric(A, B)

    ball = {} if s > 0 else {"boundary_radius": 1.0, "sample_radius": 0.5}
    return ChartModel(
        label=spec.label(), n=2 * m,
        metric_at=metric_at, J_at=_constant(standard_J(2 * m)), **ball,
    )


class _Kind(NamedTuple):  # one leaf model kind
    args: dict[str, tuple[int, str]]  # in order, each with (its sign, its fault's words)
    chart: Callable[[ChartSpec], ChartModel]
    tensor: Callable[[ChartSpec, HermitianPoint], CurvTensor]  # exact curvature at a point


_M = {"m": (1, "a complex dimension m >= 1")}  # m > 0 is m >= 1 for an integer m
# the leaf kinds, in the order the CLI lists their bare names
_KINDS = {
    "CE": _Kind(_M, _ce_chart, lambda spec, p: CurvTensor.zero(p.dim)),
    "S6": _Kind({"c": (1, "a positive curvature parameter c")}, _s6_chart,
                lambda spec, p: space_form_tensor(p, spec.c)),
    # CP (mu > 0) and CD (mu < 0) share the chart and the constant-HSC tensor
    "CP": _Kind({**_M, "mu": (1, "a positive holomorphic curvature mu")}, _csf_chart,
                lambda spec, p: complex_space_form_tensor(p, spec.mu)),
    "CD": _Kind({**_M, "mu": (-1, "a negative holomorphic curvature mu")}, _csf_chart,
                lambda spec, p: complex_space_form_tensor(p, spec.mu)),
}


def _model_tensor(spec: ChartSpec, point: HermitianPoint) -> CurvTensor:
    """The exact curvature of the model ``spec`` at ``point``; a product's is the
    block-diagonal assembly of its factors', each at its diagonal block of ``point``."""
    if spec.kind != "PRODUCT":
        return _KINDS[spec.kind].tensor(spec, point)
    blocks = [_model_tensor(f, HermitianPoint(point.g[sl, sl], point.J[sl, sl])).components
              for f, sl in zip(spec.factors, _spans([f.dim for f in spec.factors]))]
    return CurvTensor(spec.dim, _block_diagonal(blocks))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _steps() -> tuple[float, float]:
    """The real finite-difference steps h/2 and h of :class:`FDConfig`."""
    return FDConfig.h / 2, FDConfig.h


def _stencil(X: np.ndarray) -> np.ndarray:
    """The stencil of the points ``X`` (..., n): for each step s and sign, the n
    points X +/- s e_i as one batch (..., n, n), stacked in the order +s, -s per step."""
    X, eye = X[..., None, :], np.eye(X.shape[-1])
    return np.stack([Y for s in _steps() for Y in (X + s * eye, X - s * eye)])


def _difference(values) -> tuple[np.ndarray, ...]:
    """Coordinate derivatives of each field in the tuples that the iterator
    ``values`` yields on the batches of :func:`_stencil`, in its order.

    Per step s the central difference is (p - m) / (2s), and Richardson combines
    the differences a at h/2 and b at h as (4a - b) / 3.  Each result has the
    shape of its field on one batch, so a field evaluated per point carries the
    derivative index right after the batch axes of the stencil's centres.
    """
    central = [[(p - m) / (2.0 * s) for p, m in zip(next(values), next(values))]
               for s in _steps()]
    return tuple((4.0 * a - b) / 3.0 for a, b in zip(*central))


def _complex_step(f, X):
    """Im f(x + i H_C e_i) / H_C: the exact coordinate derivatives of the analytic field
    ``f`` at the points ``X`` (..., n), derivative index after the batch axes; one call."""
    return f(X[..., None, :] + 1j * H_C * np.eye(X.shape[-1])).imag / H_C


def _christoffel(chart: ChartModel, X: np.ndarray) -> tuple[np.ndarray, ...]:
    """Metric and connection coefficients at the points ``X`` (..., n); no margin check."""
    g = chart.metric_at(X)
    largest = np.abs(g).max()  # NaN passes, for the finiteness checks of the callers
    if largest * H_C < np.finfo(float).tiny:
        raise FloatingPointError(f"the metric (largest entry {largest:.3e}) is too small "
                                 f"for the complex step {H_C:g}: its derivative underflows")
    dg = _complex_step(chart.metric_at, X)  # dg[..., i, j, l] = d_i g_{jl}
    t = dg + dg.swapaxes(-3, -2) - dg.transpose(*range(dg.ndim - 3), -2, -1, -3)  # t[..., i, j, l]
    # Gamma^k_{ij} = g^{kl} t_{ijl} / 2 as one matmul per point, t as (..., l, ij)
    t = np.swapaxes(t.reshape(*dg.shape[:-3], -1, dg.shape[-1]), -1, -2)
    return g, ((0.5 * np.linalg.inv(g)) @ t).reshape(dg.shape)


def _covariant(G: np.ndarray, T: np.ndarray, dT: np.ndarray, variance: str) -> np.ndarray:
    """Covariant derivative of a tensor field from its values ``T`` and its
    coordinate derivatives ``dT``.  Axes of ``T`` before its tensor axes are
    batch axes; in ``dT`` and in the result the derivative index follows them.

    ``variance`` gives one character per tensor axis of ``T``: ``'u'`` for an
    upper index (corrected by +Gamma) and ``'l'`` for a lower one (-Gamma).
    Each correction is one matmul per point: T with the corrected axis last,
    (rest, p), times Gamma as (p, a i).
    """
    b, n, last = T.ndim - len(variance), G.shape[-1], T.ndim - 1
    batch = T.shape[:b]
    # (p, a, i) layouts: Gamma^i_{ap} for an upper index, Gamma^p_{ai} for a lower one
    Gx = {"u": np.swapaxes(G, -3, -1), "l": G}
    out = dT
    for axis, var in enumerate(variance):
        k = b + axis  # T's axis k moves last, and the product's (a, i) axes to (b, k + 1)
        Tm = T.transpose(*range(k), *range(k + 1, last + 1), k)
        term = Tm.reshape(batch + (-1, n)) @ Gx[var].reshape(batch + (n, n * n))
        term = term.reshape(Tm.shape[:-1] + (n, n))
        term = term.transpose(*range(b), last, *range(b, k), last + 1, *range(k, last))
        out = out + term if var == "u" else out - term
    return out


def _curvature(g: np.ndarray, G: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """The covariant curvature from g, Gamma and dGamma (derivative index first).

    The index convention matches the algebraic models: the round sphere chart
    of curvature c yields c * pi1 (pinned by the acceptance suite), so

        R_{ijkl} = g_{ql} (A_{ijk}^q - A_{jik}^q),
        A_{ijk}^q = d_i Gamma^q_{jk} + Gamma^p_{jk} Gamma^q_{ip},

    with the Gamma Gamma product one (qi, p) @ (p, jk) matmul per point; the
    difference makes R antisymmetric in its first pair exactly.
    """
    n = g.shape[-1]
    GG = G.reshape(*G.shape[:-3], -1, n) @ G.reshape(*G.shape[:-2], -1)  # (qi, jk)
    # in place on dG, which is not read again; numpy buffers the overlapping
    # operand of the difference, so A - A_(i<->j) reads A before it is written
    A = dG.transpose(*range(G.ndim - 3), -4, -2, -1, -3)
    A += GG.reshape(G.shape + (n,)).transpose(*range(G.ndim - 3), -3, -2, -1, -4)
    A -= np.swapaxes(A, -4, -3)
    return A @ g[..., None, None, :, :]


def _geometry(chart: ChartModel, C: np.ndarray):
    """Yield g, J, Gamma, nabla J and R of the leaf chart ``chart`` at each batch
    ``C[b]`` of the centres ``C`` (B, ..., n) in turn; no margin check.  Products
    are assembled above it, by :func:`_assembled`.

    The centres and their stencil points form one grid, and g and Gamma are
    evaluated once per distinct point of it, in as many calls as ``MAX_DIM**2``
    points of the unmerged grid would fill, of sizes that differ by at most one:
    the count depends on the grid's shape alone, and no call exceeds
    ``MAX_DIM**2`` points.  Points merge only when all their bits agree: the
    two-level point x + s1 e_i + s2 e_j is reached again as x + s2 e_j + s1 e_i,
    while (x_i + s1) + s2 and (x_i + s2) + s1 may differ in the last bit.  Gamma
    is exactly symmetric in its lower pair, so its table keeps the pairs i <= j
    in the order of ``np.triu_indices(n)``.  dGamma at a batch is the
    :func:`_difference` of gathers from the table, so every value is the one
    that evaluating Gamma afresh at each stencil point gives.  J and its complex
    step are read once per batch.
    """
    n, count = C.shape[-1], C.size // C.shape[-1]  # coordinates, centres
    stencil = _stencil(C)
    points = np.concatenate([C.reshape(-1, n), stencil.reshape(-1, n)])
    _, first, index = np.unique(
        points.view(np.dtype((np.void, points.itemsize * n))).ravel(),
        return_index=True, return_inverse=True,
    )
    centres, around = index[:count].reshape(C.shape[:-1]), index[count:].reshape(stencil.shape[:-1])
    P, (i, j), calls = points[first], np.triu_indices(n), -(-len(points) // MAX_DIM**2)
    g, table = np.empty((len(P), n, n)), np.empty((len(P), n, i.size))
    edges = [len(P) * c // calls for c in range(calls + 1)]
    for start, stop in zip(edges, edges[1:]):
        g[start:stop], G = _christoffel(chart, P[start:stop])
        table[start:stop] = G[..., i, j]
    unpack = np.empty((n, n), dtype=np.intp)
    unpack[i, j] = unpack[j, i] = np.arange(i.size)
    for b, X in enumerate(C):
        g_X, G, J = g[centres[b]], table[centres[b]][..., unpack], chart.J_at(X)
        nJ = _covariant(G, J, _complex_step(chart.J_at, X), "ul")
        # neither dGamma nor R is bound here, so neither outlives its use
        gathers = ((table[k],) for k in around[:, b])
        yield g_X, J, G, nJ, _curvature(g_X, G, _difference(gathers)[0][..., unpack])


def _assembled(chart: ChartModel, x: np.ndarray, leaf: Callable) -> tuple[np.ndarray, ...]:
    """The fields ``leaf(chart, x)`` of a leaf chart; on a product, each field is
    the :func:`_block_diagonal` over all its axes of its factors' fields, each
    factor taken at its own coordinates of ``x``, and nested products recurse.

    A product's Levi-Civita connection is the direct sum of its factors', and J
    is block-diagonal, so every field and every coordinate derivative of one is
    block-diagonal in all its axes: a factor's block does not move along the
    other factors' coordinates, and each factor is differentiated on its own
    stencil alone.
    """
    if not chart.factors:
        return leaf(chart, x)
    spans = _spans([f.n for f in chart.factors])
    parts = [_assembled(f, x[sl], leaf) for f, sl in zip(chart.factors, spans)]
    return tuple(map(_block_diagonal, zip(*parts)))


@dataclass(frozen=True)
class ChartGeometry:
    """The finite-difference geometry at the chart point ``x``.

    ``point`` holds g and J, ``R`` the covariant curvature (antisymmetric in its
    first pair exactly by construction), ``G`` the connection coefficients
    ``G[k, i, j] = Gamma^k_{ij}`` (symmetric in the lower pair exactly by
    construction) and ``nJ[a, k, j] = (nabla_a J)^k_j``.
    """

    x: np.ndarray
    point: HermitianPoint
    R: CurvTensor
    G: np.ndarray
    nJ: np.ndarray


def geometry_at(chart: ChartModel, x: np.ndarray) -> ChartGeometry:
    """The geometry at ``x``, after one check of the 4h margin its stencil needs
    and one that its smallest offset, h/2, moves every coordinate of ``x``: one
    :func:`_geometry` evaluation per leaf chart at its own coordinates of ``x``,
    assembled by :func:`_assembled`; the point is validated and R checked finite."""
    chart.require_margin(x, 4 * FDConfig.h)
    step = _steps()[0]
    collapsed = np.flatnonzero(x + step == x - step)
    if collapsed.size:
        i = collapsed[0]
        raise FDConfigError(
            f"step h = {FDConfig.h:g} collapses the stencil: x[{i}] +/- {step:g} both round "
            f"to x[{i}] = {x[i]:g}"
        )
    g, J, G, nJ, R = _assembled(chart, x, lambda leaf, y: next(_geometry(leaf, y[None])))
    return ChartGeometry(x, validate_point(g, J), CurvTensor(chart.n, R), G, nJ)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NKIdentityReport:
    """Residuals of the nearly Kahler identity catalog at the point of one
    :class:`ChartGeometry`.

    Every residual except the absolute values ``id_1_5`` and ``id_3_3`` is the
    frame-invariant norm of its residual tensor, every slot raised by the
    inverse metric; for unit vectors it bounds the residual's value on them.

    nk       nabla J lowered and symmetrized in (a, j); it vanishes exactly when
             (nabla_X J) X = 0 (nearly Kahler) and bounds |(nabla_X J) X|, X unit
    id_1_1   R(X,Y,Z,U) - R(X,Y,JZ,JU) + g((nabla_X J)Y, (nabla_Z J)U)
    id_1_2   2 g((nabla_X (nabla_Y J)) Z, U) minus the cyclic curvature sum
             R(X,JY,U,Z) + R(X,JU,Z,Y) + R(X,JZ,Y,U)
    id_1_3   2 (nabla_X (S - S'))(Y, Z) - (S-S')((nabla_X J)Y, JZ)
             - (S-S')(JY, (nabla_X J)Z)
    id_1_4   d(tau - tau')
    id_1_5   |contraction of (S - S') against (S - 5 S')|
    id_1_6   sum_i (nabla_{E_i} R)(X,Y,Z,E_i) - (nabla_X S)(Y,Z) + (nabla_Y S)(X,Z)
    id_1_7   sum_i (nabla_{E_i} S)(X,E_i) - X(tau)/2
    id_3_2   invariant norm of (S - S') - (tau - tau') g / (2m)
    id_3_3   |tau - 5 tau'|

    ``GATES`` is the one table of the catalog's gates: ``FDConfig.tol_fd1`` for
    ``nk``, at the nabla J level, and ``tol_fd2`` for the nine others.  Every
    check of a residual reads its gate there: the scored lines of ``identities``
    and the chart checks of the scenarios.  ``MODEL_DEPENDENT`` marks the three
    residuals that hold only on the nearly Kahler models the scenarios pin them
    to; ``identities`` prints them unscored.
    """

    GATES: ClassVar[dict[str, float]] = {"nk": FDConfig.tol_fd1, **dict.fromkeys((
        "id_1_1", "id_1_2", "id_1_3", "id_1_4", "id_1_5", "id_1_6", "id_1_7", "id_3_2", "id_3_3",
    ), FDConfig.tol_fd2)}
    MODEL_DEPENDENT: ClassVar[frozenset[str]] = frozenset({"id_1_5", "id_3_2", "id_3_3"})

    nk: float
    id_1_1: float
    id_1_2: float
    id_1_3: float
    id_1_4: float
    id_1_5: float
    id_1_6: float
    id_1_7: float
    id_3_2: float
    id_3_3: float


def _fields(geometry: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """R, S, S - S', tau, tau - tau' and nabla J on one batch of :func:`_geometry`,
    after one validation of its (g, J) and a finiteness check of its R."""
    g_Y, J_Y, _, nJ_Y, R_Y = geometry
    violations = point_violations(g_Y, J_Y)
    if violations:
        raise PointValidationError(violations)
    if not np.all(np.isfinite(R_Y)):
        raise NonFiniteError("CurvTensor: components must be finite")
    S_Y, Sp_Y, tau_Y, tau_p_Y, _ = _traces(_g_inv(g_Y), J_Y, R_Y)
    return R_Y, S_Y, S_Y - Sp_Y, tau_Y, tau_Y - tau_p_Y, nJ_Y


def nk_identity_suite(chart: ChartModel, geo: ChartGeometry) -> NKIdentityReport:
    """Evaluate the nearly Kahler identity catalog at the point of ``geo``.

    Each residual is scored by its full norm (see :class:`NKIdentityReport`).  If the
    chart itself fails the nearly Kahler condition beyond ``NK_THRESHOLD`` the
    dependent checks are aborted with :class:`NotNearlyKahlerError`.  The values
    at x come from ``geo``.  The two real levels around x are one grid per leaf
    chart: one :func:`_geometry` over the batches of the stencil of the leaf's
    coordinates of x, one per step and sign, evaluates Gamma once per distinct
    point of their stencils.  Each batch of (g, J) is validated in one pass, and
    a non-finite R on it raises :class:`NonFiniteError`.  One finite-difference
    pass per leaf differentiates its fields R, S, S - S', tau, tau - tau' and
    nabla J on those batches, each as it is, and :func:`_assembled` builds a
    product's derivatives from its leaves'.
    """
    x, point, G, nJ = geo.x, geo.point, geo.G, geo.nJ
    chart.require_margin(x, 6 * FDConfig.h)
    g, gi, J, A, n = point.g, point.g_inv, point.J, geo.R.components, point.dim

    nJ_low = g @ nJ  # nJ_low[a, k, j] = g_{kq} (nabla_a J)^q_j
    nk = _norm(gi, 0.5 * (nJ_low + nJ_low.transpose(2, 1, 0)))
    if nk > NK_THRESHOLD:
        raise NotNearlyKahlerError(nk, NK_THRESHOLD)

    S, Sp, tau, tau_p, P = _traces(gi, J, A)
    # g((nabla_a J) e_b, (nabla_c J) e_d) = (nabla_a J)^p_b (nabla_c J)_{pd}, one np.dot whose
    # result is bound to no name, so that it is freed before the stencil pass below
    id_1_1 = _norm(gi, A - P + np.dot(nJ.transpose(0, 2, 1).reshape(-1, n),
                                      nJ_low.transpose(1, 0, 2).reshape(n, -1)).reshape((n,) * 4))
    dR, dS, dD, d_tau, d_tau_diff, dnJ = _assembled(
        chart, x, lambda leaf, y: _difference(map(_fields, _geometry(leaf, _stencil(y)))))

    lhs_1_2 = 2.0 * np.einsum("abpc,pd->abcd", _covariant(G, nJ, dnJ, "lul"), g)
    RJ2 = _rotate(A, J, 1)  # R(X,JY,Z,U)
    # R(X,JY,U,Z) + R(X,JU,Z,Y) + R(X,JZ,Y,U)
    rhs_1_2 = RJ2.transpose(0, 1, 3, 2) + RJ2.transpose(0, 3, 2, 1) + RJ2.transpose(0, 2, 1, 3)
    id_1_2 = _norm(gi, lhs_1_2 - rhs_1_2)

    D = S - Sp
    res_1_3 = (
        2.0 * _covariant(G, D, dD, "ll")
        - np.swapaxes(nJ, 1, 2) @ (D @ J)
        - J.T @ D @ nJ
    )
    id_1_3 = _norm(gi, res_1_3)
    id_1_4 = _norm(gi, d_tau_diff)

    nR = _covariant(G, A, dR, "llll")
    nS = _covariant(G, S, dS, "ll")
    lhs_1_6 = np.einsum("ab,aijkb->ijk", gi, nR)
    id_1_6 = _norm(gi, lhs_1_6 - (nS - nS.transpose(1, 0, 2)))
    id_1_7 = _norm(gi, np.einsum("ab,aib->i", gi, nS) - 0.5 * d_tau)

    id_1_5, id_3_2, id_3_3 = _ricci_identities(point, S, Sp, tau, tau_p)
    return NKIdentityReport(
        nk=nk, id_1_1=id_1_1, id_1_2=id_1_2, id_1_3=id_1_3, id_1_4=id_1_4, id_1_5=id_1_5,
        id_1_6=id_1_6, id_1_7=id_1_7, id_3_2=id_3_2, id_3_3=id_3_3,
    )
