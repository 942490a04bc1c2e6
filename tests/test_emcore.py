import numpy as np
import pytest

from entcloak import emcore
from entcloak.errors import CoincidentPointsError, SolverInconsistencyError

K = 2 * np.pi


def aligned_projection(d):
    """Oracle helper: z-dipole projection of the vacuum tensor at separation d."""
    G = emcore.free_space_green((0, 0, 0), (0, 0, d))
    zhat = np.array([0.0, 0.0, 1.0])
    return complex(zhat @ G @ zhat)


def hessian_green_fd(r1, r2, k=K, h=1e-4):
    """Independent oracle: apply [I + grad grad / k^2] to the scalar
    Green's function by central finite differences."""
    r1 = np.asarray(r1, float)
    r2 = np.asarray(r2, float)

    def g(r):
        R = np.linalg.norm(r - r2)
        return np.exp(1j * k * R) / (4 * np.pi * R)

    G = np.zeros((3, 3), dtype=complex)
    for a in range(3):
        for b in range(3):
            e_a = np.eye(3)[a] * h
            e_b = np.eye(3)[b] * h
            if a == b:
                d2 = (g(r1 + e_a) - 2 * g(r1) + g(r1 - e_a)) / h**2
            else:
                d2 = (g(r1 + e_a + e_b) - g(r1 + e_a - e_b)
                      - g(r1 - e_a + e_b) + g(r1 - e_a - e_b)) / (4 * h**2)
            G[a, b] = d2 / k**2
    return G + g(r1) * np.eye(3)


class TestFreeSpaceGreen:
    def test_half_wavelength_dissipative(self):
        # 3 (sin x - x cos x)/x^3 at x = pi equals 3/pi^2
        val = 6 * np.pi / K * aligned_projection(0.5).imag
        assert val == pytest.approx(3 / np.pi**2, rel=1e-12)
        assert val == pytest.approx(0.30396355092701331, rel=1e-12)

    def test_half_wavelength_coherent(self):
        val = 3 * np.pi / K * aligned_projection(0.5).real
        assert val == pytest.approx(-3 / (2 * np.pi**3), rel=1e-12)
        assert val == pytest.approx(-0.04837730164979924, rel=1e-12)

    def test_finite_difference_oracle(self):
        r1 = np.array([0.13, -0.21, 0.34])
        r2 = np.array([-0.17, 0.11, -0.05])
        G = emcore.free_space_green(r1, r2)
        G_fd = hessian_green_fd(r1, r2)
        assert np.max(np.abs(G - G_fd)) / np.max(np.abs(G)) < 1e-6

    def test_small_separation_diagonal_limit(self):
        # (6 pi / k) Im G_zz -> 1 as R -> 0 (free-space decay rate)
        val = 6 * np.pi / K * aligned_projection(1e-4).imag
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_richardson_extrapolated_limit(self):
        vals = {R: 6 * np.pi / K * aligned_projection(R).imag
                for R in (1e-3, 5e-4, 2.5e-4)}
        r1 = (4 * vals[5e-4] - vals[1e-3]) / 3
        r2 = (4 * vals[2.5e-4] - vals[5e-4]) / 3
        out = (16 * r2 - r1) / 15
        assert out == pytest.approx(1.0, abs=1e-6)

    def test_transposition_reciprocity(self, rng):
        for _ in range(25):
            r1 = rng.uniform(-2, 2, 3)
            r2 = r1 + rng.uniform(0.1, 1.0) * _random_direction(rng)
            Ga = emcore.free_space_green(r1, r2)
            Gb = emcore.free_space_green(r2, r1)
            assert np.max(np.abs(Ga - Gb.T)) < 1e-14

    def test_coincident_points_error(self):
        with pytest.raises(CoincidentPointsError):
            emcore.free_space_green((0, 0, 0), (0, 0, 5e-7))

    def test_closed_form_curves_high_precision(self):
        # 100 log-spaced separations across (0.05, 5) lambda
        for d in np.geomspace(0.05, 5.0, 100):
            q = aligned_projection(d)
            assert 6 * np.pi / K * q.imag == pytest.approx(
                emcore.aligned_gamma12(d), rel=1e-10)
            assert 3 * np.pi / K * q.real == pytest.approx(
                emcore.aligned_g12(d), rel=1e-10)


def _random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestCouplingsFromGreen:
    def _vac_self(self):
        return 1j * K / (6 * np.pi) * np.eye(3)

    def test_half_wavelength_coupling_set(self):
        G12 = emcore.free_space_green((0, 0, 0), (0, 0, 0.5))
        cs = emcore.couplings_from_green(self._vac_self(), self._vac_self(),
                                         G12)
        assert cs.gamma11 == pytest.approx(1.0, rel=1e-12)
        assert cs.gamma22 == pytest.approx(1.0, rel=1e-12)
        assert cs.gamma12 == pytest.approx(3 / np.pi**2, rel=1e-12)
        assert cs.g12 == pytest.approx(-3 / (2 * np.pi**3), rel=1e-12)

    def test_near_field_asymptotes(self):
        d = 1e-3
        G12 = emcore.free_space_green((0, 0, 0), (0, 0, d))
        cs = emcore.couplings_from_green(self._vac_self(), self._vac_self(),
                                         G12)
        assert cs.gamma12 == pytest.approx(1.0, abs=1e-5)
        assert cs.g12 == pytest.approx(1.5 / (K * d) ** 3, rel=1e-3)

    def test_zero_imaginary_part_rejected(self):
        G = np.eye(3, dtype=complex)  # purely real: gamma11 = 0
        with pytest.raises(SolverInconsistencyError):
            emcore.couplings_from_green(G, G, G)

    def test_positivity_bound_enforced(self):
        vac = self._vac_self()
        G12 = 1.5j * K / (6 * np.pi) * np.eye(3)  # gamma12 = 1.5 > 1
        with pytest.raises(SolverInconsistencyError):
            emcore.couplings_from_green(vac, vac, G12)
