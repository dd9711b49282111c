"""The contraction kernels against the numpy helper forms they replace.

``curvature._rotate``, ``multilinear._inner``, ``charts._covariant`` and
``charts._curvature`` build their axis permutations themselves and call
``ndarray.transpose``, ``np.dot`` and ``@`` directly, and ``curvature._star``
sums in place.  Each reference below is the kernel as written with
``np.moveaxis``, ``np.tensordot``, ``np.expand_dims`` and fresh arrays, so the
two must agree bit for bit, not within a tolerance.
"""

import numpy as np
import pytest

from bochnerkit import charts, curvature, multilinear

DIMS = range(2, 13)


def _rotate_ref(A, J, *slots):
    J = np.expand_dims(J, (-3, -4))
    for slot in slots:
        axis = A.ndim - 4 + slot
        A = np.moveaxis(np.moveaxis(A, axis, -1) @ J, -1, axis)
    return A


def _inner_ref(g_inv, P, Q):
    for _ in range(Q.ndim):
        Q = np.tensordot(Q, g_inv, axes=(0, 0))
    return float(np.tensordot(P, Q, axes=P.ndim))


def _star_ref(A, J, P):
    M = _rotate_ref(A, J, 1, 2)
    Pt, Mt = P.transpose(2, 3, 0, 1), M.transpose(2, 3, 0, 1)
    main = A + P + Pt + _rotate_ref(P, J, 0, 1)
    mixed = P + Pt - M - Mt
    tail = mixed.transpose(0, 2, 1, 3) - mixed.transpose(2, 0, 1, 3)
    return (3.0 / 16.0) * main + (1.0 / 16.0) * tail


def _covariant_ref(G, T, dT, variance):
    b, n = T.ndim - len(variance), G.shape[-1]
    batch = T.shape[:b]
    Gx = {"u": np.swapaxes(G, -3, -1), "l": G}
    out = dT
    for axis, var in enumerate(variance):
        Tm = np.moveaxis(T, b + axis, -1)
        term = Tm.reshape(batch + (-1, n)) @ Gx[var].reshape(batch + (n, n * n))
        term = np.moveaxis(term.reshape(Tm.shape[:-1] + (n, n)), (-2, -1), (b, b + 1 + axis))
        out = out + term if var == "u" else out - term
    return out


def _curvature_ref(g, G, dG):
    n = g.shape[-1]
    GG = G.reshape(*G.shape[:-3], -1, n) @ G.reshape(*G.shape[:-2], -1)
    A = np.moveaxis(dG, -3, -1)
    A += np.moveaxis(GG.reshape(G.shape + (n,)), -4, -1)
    A -= np.swapaxes(A, -4, -3)
    return A @ g[..., None, None, :, :]


def _same_bits(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    return new.shape == ref.shape and new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", DIMS)
def test_rotate_matches_moveaxis_form(n):
    rng = np.random.default_rng(100 + n)
    for batch in [(), (3,), (2, 5)]:
        A = rng.standard_normal(batch + (n,) * 4)
        J = rng.standard_normal(batch + (n, n))
        for slots in [(0,), (1, 2), (2, 3), (0, 1, 2, 3)]:
            assert _same_bits(curvature._rotate(A, J, *slots), _rotate_ref(A, J, *slots)), (
                batch, slots)


@pytest.mark.parametrize("n", DIMS)
def test_inner_matches_tensordot_form(n):
    rng = np.random.default_rng(200 + n)
    M = rng.standard_normal((n, n))
    g_inv = np.linalg.inv(M @ M.T + n * np.eye(n))
    for rank in range(1, 6):
        P, Q = rng.standard_normal((2,) + (n,) * rank)
        assert _same_bits(multilinear._inner(g_inv, P, Q), _inner_ref(g_inv, P, Q)), rank


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_star_matches_out_of_place_form(n):
    point = curvature.random_hermitian_point(n, seed=300 + n)
    A = curvature.random_curvature_tensor(n, seed=300 + n).components
    P = curvature._rotate(A, point.J, 2, 3)
    assert _same_bits(curvature._star(A, point.J, P), _star_ref(A, point.J, P))


@pytest.mark.parametrize("n", DIMS)
def test_covariant_matches_moveaxis_form(n):
    rng = np.random.default_rng(400 + n)
    for batch in [(), (2,)]:
        G = rng.standard_normal(batch + (n,) * 3)
        for variance in ["ul", "ll", "lul", "llll"]:
            rank = (n,) * len(variance)
            T, dT = rng.standard_normal(batch + rank), rng.standard_normal(batch + (n,) + rank)
            assert _same_bits(charts._covariant(G, T, dT, variance),
                              _covariant_ref(G, T, dT, variance)), (batch, variance)


@pytest.mark.parametrize("n", DIMS)
def test_curvature_matches_moveaxis_form(n):
    rng = np.random.default_rng(500 + n)
    for batch in [(), (3,)]:
        g, G = rng.standard_normal(batch + (n, n)), rng.standard_normal(batch + (n,) * 3)
        dG = rng.standard_normal(batch + (n,) * 4)
        # both forms accumulate in place on dG, so each gets its own copy
        new, ref = charts._curvature(g, G, dG.copy()), _curvature_ref(g, G, dG.copy())
        assert _same_bits(new, ref), batch
