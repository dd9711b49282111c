"""Hyper-dual numbers: exact derivatives of the chart fields up to third order.

A :class:`Jet` with k nilpotent units e_1, ..., e_k (e_i^2 = 0, k = 1, 2 or 3)
holds 2^k coefficient arrays on a leading axis, one per subset S of the units,
indexed by its bitmask: the value, e_1, e_2, e_1 e_2, e_3, ...  Seeding x with
the unit vectors of the coordinates i_1, ..., i_k on e_1, ..., e_k makes the
coefficient of e_1 ... e_k of f(x) the exact derivative d_{i_1} ... d_{i_k} f,
with no step and no truncation (Fike & Alonso, AIAA 2011-886).

The type implements what the chart fields use: arithmetic with jets, arrays and
scalars, ``@``, ``**`` to a positive integer, indexing, ``reshape``, ``np.sum``,
``np.concatenate``, ``np.stack``, ``np.swapaxes`` and ``np.einsum`` with one jet
operand.  ``real`` is the real part of the value alone, which a field reads
only to check its domain.  The product is commutative in every bit, so a field
built from symmetric products, such as an outer product of a vector with
itself, has exactly symmetric derivatives.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

__all__ = ["Jet"]


def _shift(axis: int) -> int:
    """An axis of the jet's shape as an axis of its coefficient array."""
    return axis + 1 if axis >= 0 else axis


def _coefficients(x, size: int) -> np.ndarray:
    """The coefficients of the jet ``x``, or ``size`` of the constant ``x``: its
    value, then zeros."""
    if isinstance(x, Jet):
        return x.c
    x = np.asarray(x)[None]
    return x if size == 1 else np.concatenate([x, np.zeros((size - 1,) + x.shape[1:], x.dtype)])


def _live(c: np.ndarray) -> np.ndarray:
    """Which coefficients are not zero throughout."""
    return np.any(c, axis=tuple(range(1, c.ndim)))


class Jet:
    """A truncated multivariate Taylor polynomial of an array; see the module."""

    __array_ufunc__ = None  # ndarray (op) Jet calls the Jet's reflected operator

    def __init__(self, c: np.ndarray):
        self.c = c

    shape = property(lambda self: self.c.shape[1:])
    ndim = property(lambda self: self.c.ndim - 1)
    real = property(lambda self: self.c[0].real)

    def _aligned(self, other, pad: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients of self and other with equal ranks; a constant has
        one, or with ``pad`` as many as self."""
        b = _coefficients(other, len(self.c) if pad else 1)
        rank = max(self.c.ndim, b.ndim)
        return tuple(x.reshape(x.shape[:1] + (1,) * (rank - x.ndim) + x.shape[1:]) for x in (self.c, b))

    def _product(self, other, op, swap: bool = False) -> "Jet":
        """op(self, other), or op(other, self) with ``swap``: at each S the sum over
        its subsets A of op(a[A], b[S - A]), taken in pairs of A and S - A, A < S - A,
        whose two terms are added first; coefficients that are zero are skipped."""
        a, b = self._aligned(other)[::-1 if swap else 1]
        if min(len(a), len(b)) == 1:  # a constant scales every coefficient
            return Jet(op(a, b))
        live_a, live_b = _live(a), _live(b)
        value = op(a[0], b[0])
        out = np.empty((len(a),) + value.shape, value.dtype)
        out[0] = value
        for S in range(1, len(a)):
            halves = [[op(a[P], b[Q]) for P, Q in ((A, S ^ A), (S ^ A, A)) if live_a[P] and live_b[Q]]
                      for A in range(S) if A & S == A and A < S ^ A]
            pairs = [reduce(np.add, h) for h in halves if h]
            out[S] = reduce(np.add, pairs) if pairs else 0.0
        return Jet(out)

    def __add__(self, other):
        a, b = self._aligned(other, pad=True)
        return Jet(a + b)

    __radd__ = __add__
    __neg__ = lambda self: Jet(-self.c)

    def __sub__(self, other):
        a, b = self._aligned(other, pad=True)
        return Jet(a - b)

    __rsub__ = lambda self, other: -self + other
    __mul__ = __rmul__ = lambda self, other: self._product(other, np.multiply)
    __matmul__ = lambda self, other: self._product(other, np.matmul)
    __rmatmul__ = lambda self, other: self._product(other, np.matmul, swap=True)
    __truediv__ = lambda self, other: _quotient(*self._aligned(other, pad=True))
    __rtruediv__ = lambda self, other: _quotient(*self._aligned(other, pad=True)[::-1])
    __pow__ = lambda self, power: reduce(Jet.__mul__, [self] * power)
    tobytes = lambda self: self.c.tobytes()

    def __getitem__(self, key):
        return Jet(self.c[(slice(None),) + (key if isinstance(key, tuple) else (key,))])

    def reshape(self, *shape):
        return Jet(self.c.reshape(self.c.shape[:1] + (shape[0] if len(shape) == 1 else shape)))

    def __array_function__(self, func, types, args, kwargs):
        if func is np.einsum:  # linear in its one jet operand: one more index on it
            spec, *ops = args
            inputs, output = spec.split("->")
            unit = next(ch for ch in "zyxwvu" if ch not in spec)
            inputs = [unit + s if isinstance(o, Jet) else s for s, o in zip(inputs.split(","), ops)]
            ops = [o.c if isinstance(o, Jet) else o for o in ops]
            return Jet(np.einsum(f"{','.join(inputs)}->{unit}{output}", *ops, **kwargs))
        if func is np.swapaxes:
            return Jet(np.swapaxes(args[0].c, _shift(args[1]), _shift(args[2])))
        if func is np.sum:
            axis = args[1] if len(args) > 1 else kwargs.pop("axis")
            return Jet(np.sum(args[0].c, _shift(axis), **kwargs))
        if func in (np.concatenate, np.stack):
            size = max(len(j.c) for j in args[0] if isinstance(j, Jet))
            axis = args[1] if len(args) > 1 else kwargs.get("axis", 0)
            return Jet(func([_coefficients(j, size) for j in args[0]], axis=_shift(axis)))
        return NotImplemented


def _quotient(a: np.ndarray, b: np.ndarray) -> Jet:
    """The jet c with c b = a, from the coefficients a and b: c[S] is a[S] less
    the sum over the proper subsets A of S of c[A] b[S - A], divided by b[0], so
    the value is a[0] / b[0] as plain division gives it; zero b[S - A] are skipped."""
    shape, live = np.broadcast_shapes(a.shape, b.shape), _live(b)
    c = np.empty(shape, np.result_type(a, b))
    for S in range(shape[0]):
        rest = a[S]
        for A in range(S):
            if A & S == A and live[S ^ A]:
                rest = rest - c[A] * b[S ^ A]
        c[S] = rest / b[0]
    return Jet(c)
