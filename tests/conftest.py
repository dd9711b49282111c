import pytest

from bochnerkit.curvature import flat_point, phi_psi, random_hermitian_point, sigma_forms


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
    """The right-hand side of eq. (2.1), term by term:
    (phi + psi)(S*) / (2(m+2)) - tau* (pi1 + pi2) / (4(m+1)(m+2))."""

    def rhs(point, S_star, tau_star):
        m = point.m
        phi, psi = phi_psi(point, S_star)
        pi1, pi2 = sigma_forms(point)
        return (1.0 / (2.0 * (m + 2))) * (phi + psi) - (
            tau_star / (4.0 * (m + 1) * (m + 2))
        ) * (pi1 + pi2)

    return rhs
