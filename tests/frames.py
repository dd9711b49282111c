"""Seeded orthonormal frames with antiholomorphic span, for the tests that
evaluate a curvature tensor on sampled planes and 4-frames.

Imported by the test modules as ``from frames import antiholomorphic_frames``.
"""

import numpy as np


def antiholomorphic_frames(point, rng: np.random.Generator, samples: int, count: int) -> np.ndarray:
    """``samples`` frames (samples, count, n) of orthonormal vectors v_1..v_count
    whose span is orthogonal to its J-image.

    One normal draw is projected slot by slot (twice, for numerical
    orthogonality) against the earlier vectors of each frame and their
    J-images, then normalized; self-pairing g(v, Jv) vanishes identically
    because g(., J.) is antisymmetric.  It needs dim >= 2 count: past that, a
    vector collapses to NaN.
    """
    g, J = point.g, point.J
    V = rng.standard_normal((samples, count, point.dim))
    obstacles = []  # earlier vectors and J-images, each (samples, n)
    for i in range(count):
        v = V[:, i]
        for _ in range(2):
            for u in obstacles:
                v = v - np.sum((u @ g) * v, axis=-1, keepdims=True) * u
        v = v / np.sqrt(np.sum((v @ g) * v, axis=-1, keepdims=True))
        Jv = v @ J.T
        Jv = Jv / np.sqrt(np.sum((Jv @ g) * Jv, axis=-1, keepdims=True))
        V[:, i] = v
        obstacles.extend([v, Jv])
    return V
