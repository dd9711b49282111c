"""The nested finite-difference formulation of the chart geometry, which the
exact jet derivatives of ``charts`` replaced, kept as a test oracle.

Gamma comes from the complex step of the metric; dGamma, and the suite's
derivatives of R, S, S - S', tau, tau - tau' and nabla J, are central
differences at h/2 and h, Richardson-extrapolated to fourth order; dJ is a
complex step.  At the step ``H = 1e-3`` the oracle's curvature is about 4e-13
from the exact model tensor, and its scored suite residuals read 1e-9 to 1e-8.

    geometry(chart, x)         -> charts.ChartGeometry at x
    suite(chart, x)            -> charts.NKIdentityReport at x
"""

from __future__ import annotations

import numpy as np

from bochnerkit import charts
from bochnerkit.curvature import _g_inv, _traces, validate_point
from bochnerkit.multilinear import CurvTensor

H = 1e-3  # the outer step
H_C = 1e-30  # the complex step of the innermost derivatives


def complex_step(f, X):
    """Im f(x + i H_C e_i) / H_C: the coordinate derivatives of the analytic field
    ``f`` at the points ``X`` (..., n), derivative index after the batch axes."""
    return f(X[..., None, :] + 1j * H_C * np.eye(X.shape[-1])).imag / H_C


def stencil(X, h):
    """For each step s of (h/2, h) and sign, the n points X +/- s e_i as one
    batch (..., n, n), in the order +s, -s per step."""
    X, eye = X[..., None, :], np.eye(X.shape[-1])
    return np.stack([Y for s in (h / 2, h) for Y in (X + s * eye, X - s * eye)])


def difference(values, h):
    """Coordinate derivatives of each field in the tuples that the iterator
    ``values`` yields on the batches of :func:`stencil`, in its order: central
    differences (p - m) / (2s) at s = h/2 and h, combined as (4a - b) / 3."""
    central = [[(p - m) / (2.0 * s) for p, m in zip(next(values), next(values))]
               for s in (h / 2, h)]
    return tuple((4.0 * a - b) / 3.0 for a, b in zip(*central))


def christoffel(chart, X):
    """g and Gamma^k_{ij} = g^{kl} t_{ijl} / 2 at the points ``X``, dg a complex step."""
    g, dg = chart.metric_at(X), complex_step(chart.metric_at, X)
    t = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    return g, 0.5 * np.einsum("...kl,...ijl->...kij", np.linalg.inv(g), t)


def leaf_geometry(chart, X, h=H):
    """g, J, Gamma, nabla J and R of a leaf chart at the points ``X``, Gamma
    evaluated afresh at every point of each step and sign of the stencil."""
    g, G = christoffel(chart, X)
    (dG,) = difference(((christoffel(chart, Y)[1],) for Y in stencil(X, h)), h)
    J = chart.J_at(X)
    nJ = charts._covariant(G, J, complex_step(chart.J_at, X), "ul")
    return g, J, G, nJ, charts._curvature(g, G, dG)


def leaf_derivatives(chart, x, h=H):
    """dR, dS, d(S - S'), dtau, d(tau - tau') and d nabla J of a leaf chart at
    ``x``: the fields of :func:`leaf_geometry` differenced on the stencil of x."""
    def fields(Y):
        g, J, _, nJ, R = leaf_geometry(chart, Y, h)
        S, Sp, tau, tau_p, _ = _traces(_g_inv(g), J, R)
        return R, S, S - Sp, tau, tau - tau_p, nJ

    return difference(map(fields, stencil(x, h)), h)


def geometry(chart, x, h=H):
    """The oracle's :class:`charts.ChartGeometry` at ``x``; products assembled."""
    g, J, G, nJ, R = charts._assembled(chart, x, lambda leaf, y: leaf_geometry(leaf, y, h))
    return charts.ChartGeometry(validate_point(g, J), CurvTensor(chart.n, R), G, nJ)


def suite(chart, x, h=H):
    """The identity catalog at ``x`` from the oracle's geometry and derivatives,
    scored by the package's own residual formulas."""
    exact = charts._suite_fields
    charts._suite_fields = lambda leaf, y: (
        *leaf_geometry(leaf, y, h), *leaf_derivatives(leaf, y, h))
    try:
        return charts.nk_identity_suite(chart, x)
    finally:
        charts._suite_fields = exact
