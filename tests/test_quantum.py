import numpy as np
import pytest

from entcloak import quantum
from entcloak.errors import DegenerateSteadyStateError
from entcloak.quantum import (
    MasterEqParams,
    build_liouvillian,
    concurrence,
    linear_entropy,
    mems_curve,
    negativity,
    steady_state,
    steady_state_svd,
)
from entcloak.validate import (
    _near_degenerate_params,
    concurrence_wootters,
    negativity_partial_transpose,
    propagate_to_steady,
    random_density_matrix,
    random_params,
    random_x_state,
)


def collective_rate_steady_state(gamma, gamma12, P):
    """Independent oracle for the symmetric-decay steady state.

    For gamma11 = gamma22 the Liouvillian is diagonal in the
    collective basis {G, S, A, E}: the symmetric/antisymmetric modes
    decay at gamma +/- gamma12 and the local pumps act as independent
    collective pumps of rate P.  Detailed population balance then gives
    a 4x4 linear system; the coherent coupling only shifts mode energies
    and drops out.  Returns the density matrix in the bare basis.
    """
    gs, ga = gamma + gamma12, gamma - gamma12
    A = np.array([
        [-2 * P, gs, ga, 0.0],                 # G balance
        [P, -(gs + P), 0.0, gs],               # S balance
        [P, 0.0, -(ga + P), ga],               # A balance
        [1.0, 1.0, 1.0, 1.0],                  # normalization
    ])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    pg, ps, pa, pe = np.linalg.solve(A, b)
    rho = np.diag([pg, (ps + pa) / 2, (ps + pa) / 2, pe]).astype(complex)
    rho[1, 2] = rho[2, 1] = (ps - pa) / 2
    return rho


class TestLiouvillian:
    def test_decay_only_kernel_is_ground_state(self):
        L = build_liouvillian(MasterEqParams(1.0, 1.0, 0.0, 0.0, 0.0))
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert np.linalg.norm(L @ rho.reshape(-1, order="F")) < 1e-14

    def test_pure_coherent_part_is_skew_adjoint(self):
        # only g12: generator of a unitary flow, spectrum purely imaginary
        L = quantum._L_COH * 0.7
        ev = np.linalg.eigvals(L)
        assert np.max(np.abs(ev.real)) < 1e-12

    def test_trace_preservation(self, rng):
        # row vector implementing rho -> Tr(rho) on column-stacked vec(rho)
        trace = np.eye(4, dtype=complex).reshape(-1, order="F").conj()
        for _ in range(20):
            L = build_liouvillian(random_params(rng))
            rho = random_density_matrix(rng)
            assert abs(trace @ (L @ rho.reshape(-1, order="F"))) < 1e-12


class TestSteadyState:
    def test_isolated_emitters_product_state(self):
        rho = steady_state(MasterEqParams(1.0, 1.0, 0.0, 0.0, 5e-3))
        pop = rho[1, 1].real + rho[3, 3].real  # excited population of emitter 1
        assert pop == pytest.approx(5e-3 / (1 + 5e-3), abs=1e-12)
        assert pop == pytest.approx(4.9751243781094527e-3, abs=1e-12)

    def test_isolation_population_random(self, rng):
        for _ in range(100):
            gam = rng.uniform(0.1, 3.0)
            P = rng.uniform(1e-4, 2.0)
            rho = steady_state(MasterEqParams(gam, gam, 0.0, 0.0, P))
            assert rho[1, 1].real + rho[3, 3].real == pytest.approx(P / (P + gam), abs=1e-12)

    def test_balanced_pump_maximally_mixed(self):
        rho = steady_state(MasterEqParams(1.0, 1.0, 0.0, 0.0, 1.0))
        assert np.max(np.abs(rho - np.eye(4) / 4)) < 1e-12

    def test_ideal_dissipative_coupling_concurrence(self):
        # near-maximal correlated decay at weak pumping; the exact model
        # value, frozen here, comes from the independent rate oracle
        rho = steady_state(MasterEqParams(1.0, 1.0, 1.0 - 1e-6, 0.0, 5e-3))
        oracle = collective_rate_steady_state(1.0, 1.0 - 1e-6, 5e-3)
        assert np.max(np.abs(rho - oracle)) < 1e-10
        assert concurrence(rho) == pytest.approx(0.4456513510146927, abs=1e-9)
        assert linear_entropy(rho) == pytest.approx(0.6716363925363755, abs=1e-9)

    def test_matches_rate_oracle_on_symmetric_scan(self):
        for g12 in (0.0, 0.3, -0.6, 0.95, 0.999):
            for P in (1e-3, 0.05, 0.7):
                rho = steady_state(MasterEqParams(1.0, 1.0, g12, 0.4, P))
                oracle = collective_rate_steady_state(1.0, g12, P)
                assert np.max(np.abs(rho - oracle)) < 1e-11

    def test_degenerate_kernel_detected(self):
        # P = 0 with gamma12 = gamma decouples the antisymmetric state
        with pytest.raises(DegenerateSteadyStateError) as err:
            steady_state(MasterEqParams(1.0, 1.0, 1.0, 0.0, 0.0))
        assert err.value.kernel_dim > 1
        with pytest.raises(DegenerateSteadyStateError) as err:
            steady_state_svd(MasterEqParams(1.0, 1.0, 1.0, 0.0, 0.0))
        assert err.value.kernel_dim > 1

    def test_invariants_random_params(self, rng):
        mask = np.zeros((4, 4), dtype=bool)
        mask[np.diag_indices(4)] = True
        mask[1, 2] = mask[2, 1] = True
        for _ in range(500):
            params = random_params(rng)
            rho = steady_state(params)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert abs(np.trace(rho) - 1) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-9
            assert np.max(np.abs(rho[~mask])) < 1e-10  # X structure
            residual = build_liouvillian(params) @ rho.reshape(-1, order="F")
            assert np.linalg.norm(residual) <= 1e-10

    def test_sign_flip_invariance(self, rng):
        for _ in range(50):
            p = random_params(rng)
            c0 = concurrence(steady_state(p))
            for flip in ("gamma12", "g12"):
                kw = dict(gamma11=p.gamma11, gamma22=p.gamma22,
                          gamma12=p.gamma12, g12=p.g12, P=p.P)
                kw[flip] = -kw[flip]
                c1 = concurrence(steady_state(MasterEqParams(**kw)))
                assert abs(c0 - c1) < 1e-10


class TestClosedFormVsSvd:
    @staticmethod
    def gap(params):
        return np.max(np.abs(steady_state(params) - steady_state_svd(params)))

    def test_random_sets(self, rng):
        assert max(self.gap(random_params(rng)) for _ in range(10_000)) <= 1e-12

    def test_near_degenerate_sets(self, rng):
        # |gamma12| within 1e-9 of sqrt(gamma11 gamma22), P down to 1e-6
        assert max(self.gap(_near_degenerate_params(rng))
                   for _ in range(1_000)) <= 1e-10

    def test_dark_state_without_pump_is_unique_when_detuned_by_g12(self):
        # P = 0 with |gamma12| = sqrt(gamma11 gamma22) but unequal rates
        # and g12 != 0: D > 0, so the closed form answers (the ground state)
        params = MasterEqParams(1.0, 0.5, np.sqrt(0.5), 0.3, 0.0)
        rho = steady_state(params)
        assert abs(rho[0, 0] - 1.0) < 1e-12
        assert self.gap(params) < 1e-12

    def test_closed_form_builds_no_liouvillian(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form must not build or factor L")

        monkeypatch.setattr(quantum, "build_liouvillian", forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        for _ in range(100):
            steady_state(random_params(rng))


class TestPropagation:
    def test_matches_nullspace(self, rng):
        for _ in range(20):
            params = random_params(rng, pump_range=(0.05, 1.0))
            a = steady_state(params)
            b = propagate_to_steady(params)
            assert np.max(np.abs(a - b)) < 1e-8

    def test_decay_only_reaches_ground_state(self):
        params = MasterEqParams(1.0, 1.0, 0.0, 0.0, 0.0)
        rho0 = np.diag([0.1, 0.3, 0.2, 0.4]).astype(complex)
        rho = propagate_to_steady(params, rho0=rho0, t_max=500.0)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.max(np.abs(rho - expect)) < 1e-10

    def test_trace_preserved_along_trajectory(self):
        params = MasterEqParams(1.0, 0.8, 0.5, 1.0, 0.3)
        L = build_liouvillian(params)
        rho = random_density_matrix(np.random.default_rng(3))
        v = rho.reshape(-1, order="F")
        dt = 0.01 / 1.0
        for _ in range(2000):
            k1 = L @ v
            k2 = L @ (v + 0.5 * dt * k1)
            k3 = L @ (v + 0.5 * dt * k2)
            k4 = L @ (v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            tr = v.reshape(4, 4, order="F").trace()
            assert abs(tr - 1.0) < 1e-10

    def test_t_max_exhaustion_raises_with_residual(self):
        from entcloak.errors import ConvergenceError
        params = MasterEqParams(1.0, 1.0, 0.5, 0.3, 0.1)
        with pytest.raises(ConvergenceError) as err:
            propagate_to_steady(params, t_max=0.5)
        assert err.value.residual is not None
        assert err.value.residual > 1e-12


BELL = np.zeros((4, 4), dtype=complex)
BELL[1, 1] = BELL[2, 2] = BELL[1, 2] = BELL[2, 1] = 0.5


class TestWitnesses:
    def test_bell_state(self):
        assert concurrence(BELL) == pytest.approx(1.0, abs=1e-14)
        assert negativity(BELL) == pytest.approx(1.0, abs=1e-14)
        assert concurrence_wootters(BELL) == pytest.approx(1.0, abs=1e-12)
        assert negativity_partial_transpose(BELL) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        m = np.eye(4, dtype=complex) / 4
        assert concurrence(m) == 0.0
        assert negativity(m) == 0.0
        assert linear_entropy(m) == pytest.approx(1.0, abs=1e-14)

    def test_forced_arithmetic_example(self):
        m = np.diag([0.9, 0.05, 0.05, 0.0]).astype(complex)
        m[1, 2] = m[2, 1] = 0.05
        assert concurrence(m) == pytest.approx(0.1, abs=1e-14)

    def test_werner_state_concurrence(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        proj = np.outer(phi, phi.conj())
        for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
            rho = p * proj + (1 - p) * np.eye(4) / 4
            expect = max(0.0, (3 * p - 1) / 2)
            assert concurrence_wootters(rho) == pytest.approx(expect, abs=1e-12)

    def test_product_pure_state_unentangled(self):
        psi = np.kron([1 / np.sqrt(2), 1 / np.sqrt(2)], [1.0, 0.0])
        rho = np.outer(psi, psi.conj())
        assert concurrence_wootters(rho) == pytest.approx(0.0, abs=1e-12)
        assert negativity_partial_transpose(rho) == pytest.approx(0.0, abs=1e-12)

    def test_closed_forms_match_general_on_x_states(self, rng):
        for _ in range(10_000):
            m = random_x_state(rng)
            assert abs(concurrence(m) - concurrence_wootters(m)) < 1e-10
            assert abs(negativity(m) - negativity_partial_transpose(m)) < 1e-10

    def test_closed_forms_match_general_on_steady_states(self, rng):
        for _ in range(1000):
            rho = steady_state(random_params(rng))
            assert abs(concurrence(rho) - concurrence_wootters(rho)) < 1e-10
            assert abs(negativity(rho)
                       - negativity_partial_transpose(rho)) < 1e-10

    def test_entanglement_onset_agreement(self, rng):
        for _ in range(10_000):
            m = random_x_state(rng)
            assert (concurrence(m) > 0) == (negativity(m) > 0)

    def test_linear_entropy_examples(self):
        pure = np.zeros((4, 4), dtype=complex)
        pure[0, 0] = 1.0
        assert linear_entropy(pure) == pytest.approx(0.0, abs=1e-14)
        half = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        assert linear_entropy(half) == pytest.approx(2 / 3, abs=1e-14)


class TestMemsCurve:
    def test_endpoints(self):
        assert mems_curve(1.0) == (1.0, pytest.approx(0.0, abs=1e-15))
        c, sl = mems_curve(0.0)
        assert c == 0.0 and sl == pytest.approx(8 / 9, abs=1e-15)

    def test_branch_continuity(self):
        lo = mems_curve(2 / 3 - 1e-12)[1]
        hi = mems_curve(2 / 3)[1]
        assert lo == pytest.approx(16 / 27, abs=1e-9)
        assert hi == pytest.approx(16 / 27, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mems_curve(1.2)
        with pytest.raises(ValueError):
            mems_curve(-0.1)

    def test_family_matches_formulas(self):
        # build the family state explicitly and compare C and S_L
        for r in np.linspace(0.0, 1.0, 41):
            g = max(r / 2, 1 / 3)
            m = np.diag([g, 1 - 2 * g, 0.0, g]).astype(complex)
            m[0, 3] = m[3, 0] = r / 2
            c_expect, sl_expect = mems_curve(r)
            assert concurrence_wootters(m) == pytest.approx(c_expect, abs=1e-12)
            assert linear_entropy(m) == pytest.approx(sl_expect, abs=1e-12)

    def test_random_states_never_beat_curve(self, rng):
        rs = np.linspace(0.0, 1.0, 2001)
        curve_sl = np.array([mems_curve(r)[1] for r in rs])
        for _ in range(20_000):
            m = random_density_matrix(rng)
            sl = linear_entropy(m)
            idx = np.abs(curve_sl - sl) <= 0.005
            if np.any(idx):
                assert concurrence_wootters(m) <= rs[idx].max() + 1e-9
