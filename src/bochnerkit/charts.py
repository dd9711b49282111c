"""Numerical differential geometry on concrete coordinate charts.

Each model space is realized as a single chart with closed-form metric and
almost complex structure fields.  ``geometry_at(chart, x)`` and
``nk_identity_suite(chart, x)`` both take a chart and a point, and each
evaluates each leaf chart's fields once at x with hyper-dual numbers
(``_jet.Jet``): the geometry g with its first and second coordinate derivatives
and J with its first, the suite g to third order and J to second, all exact.
g, J, Gamma, nabla J and R at x follow from the lower coefficients in closed
form.  The suite differentiates its fields R, S, S - S', tau, tau - tau' and
nabla J by one complex step of that same per-point geometry, whose inputs are
lifted exactly from the jets; no derivative is a finite difference.  A
product's results are assembled from its leaves'.

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
from functools import cache, reduce
from itertools import accumulate, combinations_with_replacement, permutations
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .curvature import (
    HermitianPoint, complex_space_form_tensor, space_form_tensor, standard_J, validate_point,
    _block_diagonal, _g_inv, _ricci_identities, _rotate, _spans, _traces,
)
from ._jet import Jet
from .multilinear import CurvTensor, DimensionMismatchError, InputError, NonFiniteError, _norm
from .octonion import cross_operator

__all__ = [
    "FDConfig",
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


# largest real dimension; TOL_ALG holds up to here for well-conditioned points
# only: rk_bochner(rk_project(R)) of a random_curvature_tensor rejects 2 and 6
# of 40 random_hermitian_point seeds at n = 10 and 12, where J^4 amplifies the
# rounding of the projection beyond max|R| (ROADMAP item 6)
MAX_DIM = 12
H_C = 1e-30  # complex step of the identity suite's derivatives of the per-point geometry
PASS_DIRECTIONS = 2  # directions per complex-step pass: bounds the memory of its arrays
NK_THRESHOLD = 1e-3  # nearly Kahler defect above which the suite aborts


class ChartSpecError(InputError):
    """Unknown model descriptor or parameter outside its admissible range."""


class MarginError(InputError):
    """The evaluation point lies outside the chart's domain."""


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
    """The two gates of the chart-level checks, constants with no fields.

    ``tol_fd1`` gates the first-derivative-level identities (e.g. nearly Kahler
    defects) and ``tol_fd2`` the second-derivative-level ones (curvature
    comparisons).  They were set at the truncation/rounding crossover of the
    finite-difference scheme that the exact jet derivatives replaced, and are
    kept as they are: the residuals of valid models now read about 1e-14, some
    eight orders of magnitude below them (ROADMAP item 7 tightens them).  The class is their only
    owner: the scenarios and the CLI read them here, and no flag or parameter
    moves them.  No chart computation reads a tolerance.
    """

    tol_fd1: ClassVar[float] = 1e-6
    tol_fd2: ClassVar[float] = 1e-4


@dataclass(frozen=True)
class ChartModel:
    """One coordinate chart of a model space.

    ``metric_at`` / ``J_at`` take points of shape (..., n) and return raw
    arrays of shape (..., n, n): a single point (n,) gives one matrix, and a
    stack of points is evaluated in one call.  Both fields must take jet points
    (``_jet.Jet``), as their derivatives are read from one evaluation on jets:
    they are built from arithmetic, ``@``, indexing and the numpy calls the jet
    supports, with no ``abs``, ``norm``, real-only cast or in-place assignment.
    A field may return a plain array, whose derivatives are then zero.  A field
    that checks its domain, reading the real part of the value (``.real``),
    raises :class:`MarginError` outside it.
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


def _csf_chart(spec: ChartSpec) -> ChartModel:
    """Constant holomorphic curvature mu: CP (mu > 0) on a realified complex
    affine chart, CD (mu < 0) on the unit ball, in x1,y1,x2,y2,... coordinates.
    The metric is c0 (q I - s (v v^T + Jv Jv^T)) / q^2, with q = 1 + s |v|^2,
    s the sign of mu and Jv = (-y1, x1, -y2, x2, ...)."""
    m, mu = spec.m, spec.mu
    s, c0 = np.sign(mu), 4.0 / abs(mu)

    def metric_at(xy: np.ndarray) -> np.ndarray:
        r2 = _r2(xy)
        if s < 0 and np.any(r2.real >= 1.0):
            raise MarginError(f"CD chart is the open unit ball; |x| = {r2.real.max() ** 0.5:.3f}")
        q = 1 + s * r2
        Jv = np.stack([-xy[..., 1::2], xy[..., 0::2]], axis=-1).reshape(xy.shape)
        return c0 * (q * np.eye(2 * m) - s * (_outer(xy, xy) + _outer(Jv, Jv))) / q**2

    return ChartModel(
        label=spec.label(), n=2 * m, metric_at=metric_at, J_at=_constant(standard_J(2 * m)),
        sample_radius=0.8 if s > 0 else 0.5,
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
# exact derivatives at a point
# ---------------------------------------------------------------------------

@cache
def _jet_plan(n: int, order: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """What :func:`_jets` reads at every point of dimension ``n``, built once per
    process: the seeds with a zero value, one jet per index tuple i_1 <= ... <=
    i_order (220 at n = 10 and order 3) with e_u along i_u, and for each order d
    the (n,) * d array of the jet that holds each derivative d_{a_1} ... d_{a_d},
    the tuple of the sorted a's padded with their largest.  All are read-only."""
    combos = np.array(list(combinations_with_replacement(range(n), order)))
    seeds = np.zeros((2**order, len(combos), n))
    for unit in range(order):
        seeds[1 << unit, np.arange(len(combos)), combos[:, unit]] = 1.0
    at = np.empty((n,) * order, dtype=np.intp)  # at[i, j, k]: the jet of sorted (i, j, k)
    for p in permutations(range(order)):
        at[tuple(combos[:, p].T)] = np.arange(len(combos))
    indices = [np.indices((n,) * d, sparse=True) for d in range(1, order + 1)]
    gathers = [at[(*ix, *[reduce(np.maximum, ix)] * (order - len(ix)))] for ix in indices]
    for a in (seeds, *gathers):
        a.flags.writeable = False
    return seeds, tuple(gathers)


def _jets(field: Callable, x: np.ndarray, order: int) -> list[np.ndarray]:
    """The field and its coordinate derivatives up to ``order`` at the point
    ``x``: [f, df, ..., d^order f], derivative indices first, each exactly
    symmetric in them.  One call of ``field`` on the jets of :func:`_jet_plan`,
    their value set to x.  A field that returns a plain array is constant.
    A derivative that is not finite raises :class:`NonFiniteError`.
    """
    n = x.shape[-1]
    seeds, gathers = _jet_plan(n, order)
    seeds = seeds.copy()
    seeds[0] = x
    out = field(Jet(seeds))
    if not isinstance(out, Jet):
        return [out[0]] + [np.zeros((n,) * d + out.shape[1:]) for d in range(1, order + 1)]
    if not np.all(np.isfinite(out.c[1:])):
        raise NonFiniteError("a derivative of a chart field is not finite at the point")
    return [out.c[0, 0]] + [out.c[2**d - 1][at] for d, at in enumerate(gathers, 1)]


def _pointwise(g, dg, d2g, J, dJ) -> tuple[np.ndarray, ...]:
    """Gamma, nabla J and R at a point from g, J and their coordinate
    derivatives there (derivative indices first, after any batch axes):

        Gamma^k_{ij} = g^{kl} t_{ijl} / 2,  t_{ijl} = d_i g_{jl} + d_j g_{il} - d_l g_{ij},
        d_a Gamma^k_{ij} = g^{kl} (d_a t_{ijl} / 2 - d_a g_{lq} Gamma^q_{ij}),

    each contraction one matmul per point, with t as (l, ij).  Gamma is exactly
    symmetric in its lower pair when dg is exactly symmetric in its last two axes.
    """
    n, batch = g.shape[-1], g.shape[:-2]

    def lowered(d):  # t_{ijl} of the last three axes of d, as (..., l, ij)
        t = d + np.swapaxes(d, -3, -2) - np.moveaxis(d, -3, -1)
        return np.swapaxes(t.reshape(d.shape[:-3] + (n * n, n)), -1, -2)

    g_inv = np.linalg.inv(g)
    G = (0.5 * g_inv) @ lowered(dg)
    dG = g_inv[..., None, :, :] @ (0.5 * lowered(d2g) - dg @ G[..., None, :, :])
    G, dG = G.reshape(batch + (n,) * 3), dG.reshape(batch + (n,) * 4)
    return G, _covariant(G, J, dJ, "ul"), _curvature(g, G, dG)


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


def _leaf_geometry(leaf: ChartModel, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """g, J, Gamma, nabla J and R of the leaf chart ``leaf`` at ``x``: one call
    of each field, on its order-2 and order-1 jets."""
    g, dg, d2g = _jets(leaf.metric_at, x, 2)
    J, dJ = _jets(leaf.J_at, x, 1)
    return (g, J, *_pointwise(g, dg, d2g, J, dJ))


def _assembled(chart: ChartModel, x: np.ndarray, leaf: Callable) -> tuple[np.ndarray, ...]:
    """The fields ``leaf(chart, x)`` of a leaf chart; on a product, each field is
    the :func:`_block_diagonal` over all its axes of its factors' fields, each
    factor taken at its own coordinates of ``x``, and nested products recurse.

    A product's Levi-Civita connection is the direct sum of its factors', and J
    is block-diagonal, so every field and every coordinate derivative of one is
    block-diagonal in all its axes: a factor's block does not move along the
    other factors' coordinates, and each factor is differentiated at its own
    coordinates alone.  ``x`` must have the shape (n,) of ``chart``'s points.
    """
    if (shape := np.shape(x)) != (chart.n,):
        raise DimensionMismatchError(f"{chart.label} points have shape ({chart.n},), got {shape}")
    if not chart.factors:
        return leaf(chart, x)
    spans = _spans([f.n for f in chart.factors])
    parts = [_assembled(f, x[sl], leaf) for f, sl in zip(chart.factors, spans)]
    return tuple(map(_block_diagonal, zip(*parts)))


@dataclass(frozen=True)
class ChartGeometry:
    """The geometry at one chart point, from exact derivatives of the fields.

    ``point`` holds g and J, ``R`` the covariant curvature (antisymmetric in its
    first pair exactly by construction), ``G`` the connection coefficients
    ``G[k, i, j] = Gamma^k_{ij}`` (symmetric in the lower pair exactly by
    construction) and ``nJ[a, k, j] = (nabla_a J)^k_j``.
    """

    point: HermitianPoint
    R: CurvTensor
    G: np.ndarray
    nJ: np.ndarray


def geometry_at(chart: ChartModel, x: np.ndarray) -> ChartGeometry:
    """The geometry at ``x``: one :func:`_leaf_geometry` per leaf chart at its own
    coordinates of ``x``, assembled by :func:`_assembled`; the point is validated
    and R checked finite."""
    g, J, G, nJ, R = _assembled(chart, x, _leaf_geometry)
    return ChartGeometry(validate_point(g, J), CurvTensor(chart.n, R), G, nJ)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NKIdentityReport:
    """Residuals of the nearly Kahler identity catalog at one chart point.

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


def _suite_fields(leaf: ChartModel, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """g, J, Gamma, nabla J and R of the leaf chart ``leaf`` at ``x``, then dR,
    dS, d(S - S'), dtau, d(tau - tau') and d nabla J there, derivative index first.

    Both come from one call of each field, on its order-3 and order-2 jets.
    Gamma, nabla J and R are :func:`_pointwise` of their lower coefficients, so
    the first five are bit for bit those of :func:`_leaf_geometry`.
    F = :func:`_pointwise` followed by ``_traces`` sends (g, dg, d2g, J, dJ) to
    the six fields, so its derivative along b is Im F(g + ih d_b g, dg + ih d_b dg,
    d2g + ih d_b d2g, J + ih d_b J, dJ + ih d_b dJ) / h with h = ``H_C``: one
    complex step, its inputs lifted from the same jets.  ``PASS_DIRECTIONS``
    directions b go per pass; each direction's result is, bit for bit, the one a
    pass of its own gives.
    """
    g, dg, d2g, d3g = _jets(leaf.metric_at, x, 3)
    J, dJ, d2J = _jets(leaf.J_at, x, 2)
    largest = np.abs(g).max()
    if largest * H_C < np.finfo(float).tiny:
        raise FloatingPointError(f"the metric (largest entry {largest:.3e}) is too small "
                                 f"for the complex step {H_C:g}: its derivative underflows")
    passes, lifts = [], ((g, dg), (dg, d2g), (d2g, d3g), (J, dJ), (dJ, d2J))
    for b in range(0, leaf.n, PASS_DIRECTIONS):
        step = [f + 1j * H_C * df[b : b + PASS_DIRECTIONS] for f, df in lifts]
        _, nJ_b, R_b = _pointwise(*step)
        S_b, Sp_b, tau_b, tau_p_b, _ = _traces(_g_inv(step[0]), step[3], R_b)
        fields = (R_b, S_b, S_b - Sp_b, tau_b, tau_b - tau_p_b, nJ_b)
        passes.append([f.imag / H_C for f in fields])
    return (g, J, *_pointwise(g, dg, d2g, J, dJ), *map(np.concatenate, zip(*passes)))


def nk_identity_suite(chart: ChartModel, x: np.ndarray) -> NKIdentityReport:
    """Evaluate the nearly Kahler identity catalog at the chart point ``x``.

    Each residual is scored by its full norm (see :class:`NKIdentityReport`).  If the
    chart itself fails the nearly Kahler condition beyond ``NK_THRESHOLD`` the
    dependent checks are aborted with :class:`NotNearlyKahlerError`.  g, J,
    Gamma, nabla J and R at x and the derivatives of R, S, S - S', tau, tau - tau'
    and nabla J come from :func:`_suite_fields` per leaf chart, which
    refuses a metric too small for their complex step; :func:`_assembled` builds
    a product's from its leaves'.  The point is then validated and R checked
    finite, as :func:`geometry_at` does, before any residual is formed.
    """
    g, J, G, nJ, R, dR, dS, dD, d_tau, d_tau_diff, dnJ = _assembled(chart, x, _suite_fields)
    point, A = validate_point(g, J), CurvTensor(chart.n, R).components
    g, gi, J, n = point.g, point.g_inv, point.J, point.dim

    nJ_low = g @ nJ  # nJ_low[a, k, j] = g_{kq} (nabla_a J)^q_j
    nk = _norm(gi, 0.5 * (nJ_low + nJ_low.transpose(2, 1, 0)))
    if nk > NK_THRESHOLD:
        raise NotNearlyKahlerError(nk, NK_THRESHOLD)

    S, Sp, tau, tau_p, P = _traces(gi, J, A)
    # g((nabla_a J) e_b, (nabla_c J) e_d) = (nabla_a J)^p_b (nabla_c J)_{pd}, one np.dot
    id_1_1 = _norm(gi, A - P + np.dot(nJ.transpose(0, 2, 1).reshape(-1, n),
                                      nJ_low.transpose(1, 0, 2).reshape(n, -1)).reshape((n,) * 4))

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
