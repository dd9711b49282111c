"""Cross product identities that make crossing-with-p an almost complex structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bochnerkit.octonion import _F7, cross_operator

_vec = arrays(np.float64, (7,), elements=st.floats(-10, 10, allow_nan=False))


def _cross(u, v):
    return cross_operator(u) @ v


def test_structure_constants_totally_antisymmetric():
    assert np.array_equal(_F7, -_F7.transpose(1, 0, 2))
    assert np.array_equal(_F7, -_F7.transpose(0, 2, 1))
    assert np.array_equal(_F7, _F7.transpose(1, 2, 0))


def test_structure_constants_read_only():
    with pytest.raises(ValueError):
        _F7[0, 0, 0] = 1.0


@given(u=_vec, v=_vec)
@settings(max_examples=50, deadline=None)
def test_cross_orthogonal_to_factors(u, v):
    w = _cross(u, v)
    assert abs(np.dot(w, u)) < 1e-9
    assert abs(np.dot(w, v)) < 1e-9


@given(u=_vec, v=_vec)
@settings(max_examples=50, deadline=None)
def test_cross_norm_identity(u, v):
    w = _cross(u, v)
    lhs = float(np.dot(w, w))
    rhs = float(np.dot(u, u) * np.dot(v, v) - np.dot(u, v) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-7)


@given(u=_vec, v=_vec)
@settings(max_examples=50, deadline=None)
def test_double_cross_identity(u, v):
    lhs = _cross(u, _cross(u, v))
    rhs = np.dot(u, v) * u - np.dot(u, u) * v
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_cross_operator_squares_to_minus_one_on_tangent():
    rng = np.random.default_rng(0)
    p = rng.standard_normal(7)
    p /= np.linalg.norm(p)
    C = cross_operator(p)
    v = rng.standard_normal(7)
    v -= np.dot(v, p) * p  # tangent to the unit sphere at p
    assert np.max(np.abs(C @ (C @ v) + v)) < 1e-12
    # and crossing preserves the tangent inner product
    w = rng.standard_normal(7)
    w -= np.dot(w, p) * p
    assert np.dot(C @ v, C @ w) == pytest.approx(np.dot(v, w), rel=1e-12, abs=1e-12)
