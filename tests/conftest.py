import numpy as np
import pytest

from bochnerkit.curvature import _phi_psi_sum, flat_point, random_hermitian_point


@pytest.fixture
def flat6():
    return flat_point(6)


@pytest.fixture
def flat4():
    return flat_point(4)


@pytest.fixture
def skew_point6():
    """A valid point in non-orthonormal coordinates (exercises metric raising)."""
    return random_hermitian_point(6, seed=42)


@pytest.fixture
def ref_rhs_2_1():
    """The right-hand side of eq. (2.1), term by term, as an array:
    (phi + psi)(S*) / (2(m+2)) - tau* (pi1 + pi2) / (4(m+1)(m+2)),
    for the component array S*; pi1 = phi(g)/2 and pi2 = psi(g)/2."""

    def rhs(point, S_star, tau_star):
        m, zero, half_g = point.m, np.zeros_like(S_star), 0.5 * point.g
        phi, psi = _phi_psi_sum(point, S_star, zero), _phi_psi_sum(point, zero, S_star)
        pi1, pi2 = _phi_psi_sum(point, half_g, zero), _phi_psi_sum(point, zero, half_g)
        return (1.0 / (2.0 * (m + 2))) * (phi + psi) - (
            tau_star / (4.0 * (m + 1) * (m + 2))
        ) * (pi1 + pi2)

    return rhs
