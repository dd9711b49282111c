"""The seven-dimensional cross product.

Structure constants follow the Fano-plane convention with cyclic triples
(0,1,2), (0,3,4), (0,6,5), (1,3,5), (1,4,6), (2,3,6), (2,5,4): for each triple
(a, b, c) the constant is +1 on cyclic orderings and -1 on anticyclic ones.

The product satisfies, for all u, v in R^7:

    <u x v, u> = <u x v, v> = 0
    |u x v|^2  = |u|^2 |v|^2 - <u, v>^2
    u x (u x v) = <u, v> u - |u|^2 v

so crossing with a fixed unit vector p is an isometry of the orthogonal
complement of p that squares to -1 there: exactly an almost complex structure
on the tangent spaces of the unit sphere.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FANO_TRIPLES", "cross_operator"]

FANO_TRIPLES = (
    (0, 1, 2),
    (0, 3, 4),
    (0, 6, 5),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 5, 4),
)


def _build() -> np.ndarray:
    f = np.zeros((7, 7, 7))
    for a, b, c in FANO_TRIPLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            f[i, j, k] = 1.0
            f[j, i, k] = -1.0
    f.setflags(write=False)
    return f


_F7 = _build()


def cross_operator(p: np.ndarray) -> np.ndarray:
    """Matrix C with C v = p x v; ``p`` of shape (..., 7) gives (..., 7, 7)."""
    return np.einsum("ijk,...i->...kj", _F7, p)
