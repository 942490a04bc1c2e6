import os
import threading
import tracemalloc

import numpy as np
import pytest

from entcloak import emcore, vie
from entcloak.errors import (CoincidentPointsError, ConvergenceError,
                             GridTooLargeError)
from entcloak.validate import rayleigh_sphere_polarizability
from entcloak.vie import (
    PermittivityGrid,
    assemble_dense,
    fft_matvec,
    scattered_green_pair,
    self_interaction,
    solve_fields,
    solve_green_block,
)

K = 2 * np.pi
ZHAT = np.array([0.0, 0.0, 1.0])


def random_grid(rng, dims, spacing=1 / 20, contrast=2.5, eps_max=9.0):
    g = PermittivityGrid.vacuum(dims, spacing, eps_max=eps_max)
    g.eps[:] = rng.uniform(1.0, contrast, g.n_voxels)
    return g


def filled_grid(rng, dims, eps=1.5):
    """A lambda/16 map with eps in 60 % of its voxels."""
    g = PermittivityGrid.vacuum(dims, 1 / 16)
    g.eps[rng.random(g.n_voxels) < 0.6] = eps
    return g


#: Two sources just outside a 16^3 lambda/16 map (and so outside smaller ones).
PAIR = (np.array([0.01, 0.0, -0.6]), np.array([0.0, 0.02, 0.6]))


def thread_recording(threads):
    """vie.bicgstab, noting the thread of each call in `threads`."""
    real = vie.bicgstab

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)

    return recording


class TestPermittivityGrid:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            PermittivityGrid(origin=np.zeros(3), spacing=0.02, dims=(2, 2, 2),
                             eps=np.full(8, 0.5))
        with pytest.raises(ValueError):
            PermittivityGrid(origin=np.zeros(3), spacing=0.02, dims=(2, 2, 2),
                             eps=np.full(8, 9.5), eps_max=9.0)

    @pytest.mark.parametrize("kwargs", [
        {"eps": np.array([1.0, np.nan] * 4)},
        {"spacing": np.nan},
        {"spacing": np.inf},
        {"eps_max": np.nan},
    ], ids=["eps-nan", "spacing-nan", "spacing-inf", "eps_max-nan"])
    def test_nan_and_inf_rejected(self, kwargs):
        args = {"origin": np.zeros(3), "spacing": 0.02, "dims": (2, 2, 2),
                "eps": np.ones(8)} | kwargs
        with pytest.raises(ValueError):
            PermittivityGrid(**args)

    def test_centers_lexicographic(self):
        g = PermittivityGrid.vacuum((2, 2, 2), 0.02, origin=(0, 0, 0))
        c = g.centers()
        # C-order: iz fastest
        assert np.allclose(c[0], [0, 0, 0])
        assert np.allclose(c[1], [0, 0, 0.02])
        assert np.allclose(c[2], [0, 0.02, 0])
        assert np.allclose(c[4], [0.02, 0, 0])

    def test_default_origin_centers_grid(self):
        g = PermittivityGrid.vacuum((4, 4, 4), 0.02)
        assert np.allclose(g.centers().mean(axis=0), 0.0, atol=1e-15)


class TestSelfInteraction:
    def test_static_depolarization_limit(self):
        # m -> -1/(3 k^2) as the voxel shrinks
        m = self_interaction(1e-5)
        assert m.real == pytest.approx(-1 / (3 * K**2), rel=1e-8)
        assert abs(m.imag) < 1e-12

    def test_single_voxel_clausius_mossotti(self):
        # one voxel's polarizability alpha = chi dV / (1 - k^2 chi m)
        # approaches 3 dV (eps-1)/(eps+2) for a small voxel
        spacing = 1 / 200
        eps = 2.25
        chi = eps - 1
        m = self_interaction(spacing)
        alpha = chi * spacing**3 / (1 - K**2 * chi * m)
        cm = 3 * spacing**3 * (eps - 1) / (eps + 2)
        assert abs(alpha) == pytest.approx(cm, rel=2e-3)


class TestAssembleDense:
    def test_vacuum_is_identity(self):
        g = PermittivityGrid.vacuum((3, 3, 3), 0.03)
        A = assemble_dense(g)
        assert np.max(np.abs(A - np.eye(3 * g.n_voxels))) == 0.0

    def test_size_limit(self):
        g = PermittivityGrid.vacuum((13, 13, 13), 0.01)
        with pytest.raises(GridTooLargeError):
            assemble_dense(g)

    def test_two_voxel_hand_built_oracle(self):
        # independent 6x6 construction from free_space_green entries
        spacing = 0.03
        g = PermittivityGrid.vacuum((2, 1, 1), spacing, origin=(0.0, 0.0, 0.0))
        g.eps[:] = [1.8, 2.4]
        src = np.array([0.2, 0.1, -0.3])
        p1, p2 = g.centers()
        chi = g.eps - 1.0
        dV = g.voxel_volume
        m = self_interaction(spacing)
        G12 = emcore.free_space_green(p1, p2)
        A = np.eye(6, dtype=complex)
        A[0:3, 0:3] -= K**2 * m * chi[0] * np.eye(3)
        A[3:6, 3:6] -= K**2 * m * chi[1] * np.eye(3)
        A[0:3, 3:6] = -K**2 * dV * chi[1] * G12
        A[3:6, 0:3] = -K**2 * dV * chi[0] * G12.T
        b = np.concatenate([emcore.free_space_green(p1, src) @ ZHAT,
                            emcore.free_space_green(p2, src) @ ZHAT])
        x_oracle = np.linalg.solve(A, b).reshape(2, 3)
        [x_solver] = solve_fields(g, [src], method="dense")
        assert np.max(np.abs(x_oracle - x_solver)) < 1e-13

    def test_single_voxel_born_limit(self):
        # solution minus first-Born term shrinks as O(delta^2)
        spacing = 1 / 40
        src = np.array([0.0, 0.0, 0.4])
        errs = []
        for delta in (1e-2, 1e-3):
            g = PermittivityGrid.vacuum((1, 1, 1), spacing, origin=(0, 0, 0))
            g.eps[:] = 1.0 + delta
            x = solve_fields(g, [src], method="dense")[0][0]
            b = emcore.free_space_green((0, 0, 0), src) @ ZHAT
            m = self_interaction(spacing)
            x_born = b * (1.0 + K**2 * delta * m)
            errs.append(np.linalg.norm(x - x_born))
        assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.05)


class TestFftMatvec:
    def test_delta_polarization_matches_dense_column(self, rng):
        g = random_grid(rng, (4, 3, 5))
        A = assemble_dense(g)
        j = 17
        x = np.zeros(3 * g.n_voxels, dtype=complex)
        x[j] = 1.0
        assert np.max(np.abs(fft_matvec(g, x) - A[:, j])) < 1e-12

    def test_random_vector_matches_dense(self, rng):
        g = random_grid(rng, (6, 6, 6))
        A = assemble_dense(g)
        x = rng.standard_normal(3 * g.n_voxels) + 1j * rng.standard_normal(3 * g.n_voxels)
        y1, y2 = A @ x, fft_matvec(g, x)
        assert np.linalg.norm(y1 - y2) / np.linalg.norm(y1) < 1e-10

    @pytest.mark.parametrize("dims, contrast", [
        ((1, 4, 3), 2.5), ((4, 1, 3), 2.5), ((4, 3, 1), 2.5),
        ((5, 2, 7), 2.5), ((3, 4, 5), 1.0),
    ], ids=["singleton-x", "singleton-y", "singleton-z", "odd-anisotropic",
            "all-vacuum"])
    def test_per_axis_padding_matches_dense(self, rng, dims, contrast):
        # the FFT pads and crops one axis at a time; these shapes are the
        # ones that can tell the axes apart
        g = random_grid(rng, dims, contrast=contrast)
        A = assemble_dense(g)
        x = rng.standard_normal(3 * g.n_voxels) + 1j * rng.standard_normal(3 * g.n_voxels)
        y1, y2 = A @ x, fft_matvec(g, x)
        assert np.linalg.norm(y1 - y2) / np.linalg.norm(y1) < 1e-12

    def test_one_application_peak_memory(self, rng):
        # an application holds at most what the last forward transform
        # needs, the padded spectrum of the three components and whatever
        # numpy's FFT allocates on the way, beside its one half-padded
        # input: 2.36 MB with numpy 2.4 at 16^3, where whole-array
        # steps took 6.29 MB
        def peak(f, *args):
            tracemalloc.start()
            try:
                f(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        g = filled_grid(rng, (16, 16, 16), eps=5.0)
        x = rng.standard_normal((g.n_voxels, 3)) + 1j * rng.standard_normal((g.n_voxels, 3))
        apply = vie._fft_operator(g)   # kernel and per-voxel arrays built outside
        apply(x)
        px, py, pz = (2 * d for d in g.dims)
        half_padded = np.ones((3, px, py, g.dims[2]), dtype=complex)
        last_forward = peak(np.fft.fft, half_padded, pz, 3)
        # 4 kB for array headers and slices
        assert peak(apply, x) <= last_forward + half_padded.nbytes + 4096

    def test_linearity(self, rng):
        g = random_grid(rng, (4, 4, 4))
        u = rng.standard_normal(3 * g.n_voxels) + 1j * rng.standard_normal(3 * g.n_voxels)
        v = rng.standard_normal(3 * g.n_voxels) + 1j * rng.standard_normal(3 * g.n_voxels)
        a, b = 1.7 - 0.3j, -0.8 + 1.1j
        lhs = fft_matvec(g, a * u + b * v)
        rhs = a * fft_matvec(g, u) + b * fft_matvec(g, v)
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-12


class TestSolveFields:
    def test_vacuum_equals_free_space_columns(self):
        g = PermittivityGrid.vacuum((4, 4, 4), 0.03)
        src = np.array([0.0, 0.0, 0.4])
        [f] = solve_fields(g, [src], method="dense")
        ref = np.array([emcore.free_space_green(p, src) @ ZHAT
                        for p in g.centers()])
        # the operator is the exact identity; the LU solve only adds roundoff
        assert np.max(np.abs(f - ref)) < 1e-15

    def test_dense_vs_iterative_all_small_grids(self, rng):
        src = np.array([0.0, 0.0, 0.5])
        for dims in ((2, 2, 2), (3, 4, 2), (5, 5, 5), (6, 6, 6)):
            g = random_grid(rng, dims)
            [fd] = solve_fields(g, [src], method="dense")
            [fi] = solve_fields(g, [src], method="iterative", rtol=1e-10)
            rel = np.max(np.abs(fd - fi)) / np.max(np.abs(fd))
            assert rel < 1e-6, f"dims={dims}: {rel}"

    def test_rayleigh_sphere_polarizability(self):
        alpha, alpha_ref = rayleigh_sphere_polarizability()
        assert alpha == pytest.approx(alpha_ref, rel=0.05)

    def test_source_on_voxel_center_rejected(self):
        g = PermittivityGrid.vacuum((3, 3, 3), 0.05, origin=(0, 0, 0))
        with pytest.raises(CoincidentPointsError):
            solve_fields(g, [(0.05, 0.05, 0.05)], method="dense")

    def test_vacuum_iterative_solve_skips_krylov(self, monkeypatch):
        # the operator is the identity: the right-hand sides come back as
        # they are, with no Krylov iteration
        calls = []
        monkeypatch.setattr(vie, "bicgstab", lambda *a, **k: calls.append(a))
        g = PermittivityGrid.vacuum((4, 4, 4), 0.03)
        sources = (np.array([0.0, 0.01, -0.4]), np.array([0.02, 0.0, 0.4]))
        fields = solve_fields(g, sources)
        assert calls == []
        for f, r in zip(fields, sources, strict=True):
            assert np.array_equal(f, emcore.dyadic_green(g.centers() - r)
                                  @ emcore.P_HAT)

    def test_krylov_exhaustion_carries_residual(self, rng, monkeypatch):
        g = random_grid(rng, (5, 5, 5), contrast=8.0, eps_max=9.0)
        monkeypatch.setattr(vie, "MAX_KRYLOV_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            solve_fields(g, [(0, 0, 0.5)], method="iterative", rtol=1e-14)
        assert err.value.residual is not None and err.value.residual > 0


@pytest.fixture
def report_cores(monkeypatch):
    """Make os.sched_getaffinity report k usable cores; the real
    affinity is left alone."""
    def report(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                            raising=False)
    return report


@pytest.fixture
def blas_env(monkeypatch):
    """Set the BLAS thread variables to the given values and unset the
    others; the BLAS numpy loaded is left alone."""
    def set_env(values):
        for var in vie.BLAS_THREAD_VARIABLES:
            if var in values:
                monkeypatch.setenv(var, values[var])
            else:
                monkeypatch.delenv(var, raising=False)
    return set_env


ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}


@pytest.fixture
def bicgstab_threads(monkeypatch):
    """The thread of each vie.bicgstab call, in call order."""
    threads = []
    monkeypatch.setattr(vie, "bicgstab", thread_recording(threads))
    return threads


class TestConcurrentSolves:
    def test_values_equal_solves_in_turn(self, rng, report_cores, blas_env):
        # 16^3 with chi > 0, so the Krylov path runs; the reference
        # solves run in turn on one reported core
        g = filled_grid(rng, (16, 16, 16))
        blas_env(ONE_BLAS_THREAD)
        report_cores(2)
        fields = solve_fields(g, PAIR)
        blocks = solve_green_block(g, PAIR)   # six columns, more than the cores
        report_cores(1)
        for f, block, r in zip(fields, blocks, PAIR, strict=True):
            assert np.array_equal(f, solve_fields(g, [r])[0])
            assert np.array_equal(block, solve_green_block(g, [r])[0])

    @pytest.mark.parametrize("dims, cores, env, n_threads", [
        ((10, 10, 10), 2, ONE_BLAS_THREAD, 2),
        ((10, 10, 10), 1, ONE_BLAS_THREAD, 1),
        ((8, 8, 8), 2, ONE_BLAS_THREAD, 1),
        ((10, 10, 10), 2, {}, 1),
        ((10, 10, 10), 2, {"OMP_NUM_THREADS": "1"}, 2),
        ((10, 10, 10), 2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ], ids=["two-cores", "one-core", "below-threaded-min", "blas-threads-unset",
            "omp-one-thread", "openblas-two-threads"])
    def test_one_thread_per_usable_core(self, rng, report_cores, blas_env,
                                        bicgstab_threads, dims, cores, env, n_threads):
        blas_env(env)
        report_cores(cores)
        solve_fields(filled_grid(rng, dims), PAIR)
        # the calling thread solves one column, in whichever order
        assert len(bicgstab_threads) == 2
        assert threading.main_thread() in bicgstab_threads
        assert len(set(bicgstab_threads)) == n_threads

    def test_failure_raises_and_no_thread_outlives_the_call(self, rng, monkeypatch,
                                                           report_cores, blas_env):
        blas_env(ONE_BLAS_THREAD)
        report_cores(2)
        g = filled_grid(rng, (10, 10, 10), eps=3.0)
        before = threading.active_count()
        solve_fields(g, PAIR)
        assert threading.active_count() == before
        monkeypatch.setattr(vie, "MAX_KRYLOV_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            solve_fields(g, PAIR, rtol=1e-14)
        assert err.value.residual is not None and err.value.residual > 0
        assert threading.active_count() == before


class TestIncidentColumns:
    def test_built_once_per_emitter_of_a_design(self, monkeypatch):
        # the columns depend on the geometry alone, so every state of a
        # design (and each re-solve after a reverted sweep) reuses them
        from entcloak.optimizer import DesignConfig, optimize
        vie._incident_column.cache_clear()
        calls = []
        real = vie._source_columns

        def counting(grid, source):
            calls.append(tuple(source))
            return real(grid, source)

        monkeypatch.setattr(vie, "_source_columns", counting)
        grid = PermittivityGrid.vacuum((6, 6, 6), 1 / 16)
        emitters = (np.array([0.0, 0.0, -0.125]), np.array([0.0, 0.0, 0.125]))
        rec = optimize(grid, emitters, DesignConfig(max_iterations=3,
                                                    exclusion_radius=1.0))
        assert len(rec.entries) == 4
        assert calls == [(0.0, 0.0, -0.125), (0.0, 0.0, 0.125)]

    def test_cached_columns_equal_and_read_only(self):
        g = PermittivityGrid.vacuum((4, 5, 3), 0.03)
        r = np.array([0.01, -0.02, 0.4])
        column = vie._incident_column(g.dims, g.spacing,
                                      tuple(g.origin.tolist()), tuple(r.tolist()))
        assert np.array_equal(column, vie._source_columns(g, r) @ emcore.P_HAT)
        with pytest.raises(ValueError):
            column[0, 0] = 0.0

    def test_coincident_source_raises_on_every_call(self):
        g = PermittivityGrid.vacuum((3, 3, 3), 0.05, origin=(0, 0, 0))
        for _ in range(2):
            with pytest.raises(CoincidentPointsError):
                solve_fields(g, [(0.05, 0.05, 0.05)])


class TestBicgstab:
    def test_matches_dense_solve(self, rng):
        g = random_grid(rng, (5, 5, 5), contrast=8.0)
        b = rng.standard_normal(3 * g.n_voxels) + 1j * rng.standard_normal(3 * g.n_voxels)
        x, info = vie.bicgstab(lambda v: fft_matvec(g, v), b, rtol=1e-12,
                               maxiter=2000)
        ref = np.linalg.solve(assemble_dense(g), b)
        assert info == 0
        assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-10

    def test_zero_rhs_returns_zeros(self):
        b = np.zeros(12, dtype=complex)
        x, info = vie.bicgstab(lambda v: v, b, rtol=1e-10, maxiter=10)
        assert info == 0 and not x.any()

    def test_zero_operator_breaks_down(self, rng, monkeypatch):
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        _, info = vie.bicgstab(np.zeros_like, b, rtol=1e-10, maxiter=10)
        assert info == -11
        # the solve turns the breakdown into an error carrying the residual
        monkeypatch.setattr(vie, "_fft_operator", lambda grid: np.zeros_like)
        g = random_grid(rng, (3, 3, 3))
        with pytest.raises(ConvergenceError, match="info=-11") as err:
            solve_fields(g, [(0, 0, 0.5)])
        assert err.value.residual == 1.0

    def test_callback_once_per_full_iteration(self, rng):
        # with no tolerance to meet, the cap stops the solve: three full
        # iterations, two matvecs each after the initial residual's one
        g = random_grid(rng, (3, 3, 3))
        matvecs, seen = [], []

        def matvec(v):
            matvecs.append(v)
            return fft_matvec(g, v)

        b = rng.standard_normal(3 * g.n_voxels) + 0j
        x, info = vie.bicgstab(matvec, b, rtol=0.0, maxiter=3,
                               callback=lambda xk: seen.append(xk.copy()))
        assert info == 3 and len(seen) == 3 and len(matvecs) == 7
        assert np.array_equal(seen[-1], x)

    def test_same_iterates_as_scipy(self, rng):
        # the recurrence, stop tests and callbacks are scipy's, step for step
        linalg = pytest.importorskip("scipy.sparse.linalg")
        g = random_grid(rng, (4, 4, 4), contrast=8.0)
        b = rng.standard_normal(3 * g.n_voxels) + 1j * rng.standard_normal(3 * g.n_voxels)
        op = linalg.LinearOperator((b.size, b.size), dtype=complex,
                                   matvec=lambda v: fft_matvec(g, v))
        ours, theirs = [], []
        x, info = vie.bicgstab(op.matvec, b, rtol=1e-10, maxiter=2000,
                               callback=lambda xk: ours.append(xk.copy()))
        x_ref, info_ref = linalg.bicgstab(op, b, x0=b.copy(), rtol=1e-10,
                                          atol=0.0, maxiter=2000,
                                          callback=lambda xk: theirs.append(xk.copy()))
        assert info == info_ref == 0 and len(ours) == len(theirs) > 3
        assert np.array_equal(x, x_ref)
        assert all(np.array_equal(a, c) for a, c in zip(ours, theirs, strict=True))


class TestScatteredGreenPair:
    def test_vacuum_pair(self):
        g = PermittivityGrid.vacuum((4, 4, 4), 0.03)
        r1, r2 = np.array([0, 0, -0.3]), np.array([0, 0, 0.3])
        G11, G22, G12 = scattered_green_pair(g, r1, r2, method="dense")
        assert np.max(np.abs(G12 - emcore.free_space_green(r1, r2))) < 1e-14
        cs = emcore.couplings_from_green(G11, G22, G12)
        assert cs.purcell == 1.0 and cs.purcell2 == 1.0

    def test_reciprocity_random_grids(self, rng):
        for _ in range(20):
            g = random_grid(rng, tuple(rng.integers(2, 5, 3)))
            span = g.spacing * max(g.dims)
            r1 = np.array([0.0, 0.0, -0.6 * span - 0.05])
            r2 = np.array([0.02, 0.0, 0.6 * span + 0.07])
            G12_a = scattered_green_pair(g, r1, r2, method="dense")[2]
            G12_b = scattered_green_pair(g, r2, r1, method="dense")[2].T
            assert np.max(np.abs(G12_a - G12_b)) / np.max(np.abs(G12_a)) < 1e-8

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_stacked_sources_match_single_solves(self, rng, method):
        g = random_grid(rng, (4, 3, 5))
        r1, r2 = np.array([0.0, 0.0, -0.4]), np.array([0.03, 0.0, 0.45])
        pair = solve_green_block(g, (r1, r2), method=method, rtol=1e-12)
        for block, r in zip(pair, (r1, r2), strict=True):
            [ref] = solve_green_block(g, [r], method=method, rtol=1e-12)
            assert np.max(np.abs(block - ref)) / np.max(np.abs(ref)) < 1e-10

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_stacked_field_maps_match_single_solves(self, rng, method):
        g = random_grid(rng, (4, 3, 5))
        r1, r2 = np.array([0.0, 0.0, -0.4]), np.array([0.03, 0.0, 0.45])
        pair = solve_fields(g, (r1, r2), method=method, rtol=1e-12)
        for f, r in zip(pair, (r1, r2), strict=True):
            [ref] = solve_fields(g, [r], method=method, rtol=1e-12)
            assert np.max(np.abs(f - ref)) / np.max(np.abs(ref)) < 1e-10

    def test_unknown_method_rejected(self):
        g = PermittivityGrid.vacuum((2, 2, 2), 0.03)
        for method in ("auto", "dens"):
            with pytest.raises(ValueError, match="iterative.*dense"):
                solve_green_block(g, [(0, 0, 0.4)], method=method)

    @pytest.mark.parametrize("solve", [solve_fields, solve_green_block])
    def test_bare_position_rejected(self, monkeypatch, solve):
        # a bare 3-vector must not be read as three scalar sources
        def no_solve(*args):
            raise AssertionError("a bare position reached the solver")

        monkeypatch.setattr(vie, "_solve_system", no_solve)
        g = PermittivityGrid.vacuum((2, 2, 2), 0.03)
        with pytest.raises(ValueError, match="sequence of positions"):
            solve(g, (0.0, 0.0, 0.4), method="dense")

    def test_passivity_random_grids(self, rng):
        for _ in range(20):
            g = random_grid(rng, tuple(rng.integers(2, 5, 3)), contrast=4.0)
            span = g.spacing * max(g.dims)
            r1 = np.array([0.0, 0.0, -0.6 * span - 0.06])
            r2 = np.array([0.0, 0.0, 0.6 * span + 0.09])
            out = scattered_green_pair(g, r1, r2, method="dense")
            cs = emcore.couplings_from_green(out[0], out[1], out[2])
            assert cs.gamma11 > 0 and cs.gamma22 > 0
            assert abs(cs.gamma12) <= np.sqrt(cs.gamma11 * cs.gamma22) + 1e-9

    def test_small_scatterer_symmetry_under_exchange(self, rng):
        g = PermittivityGrid.vacuum((3, 3, 3), 0.02, origin=(0.01, -0.02, 0.015))
        g.eps[13] = 2.0
        r1, r2 = np.array([0, 0, -0.25]), np.array([0, 0, 0.25])
        _, _, G12_a = scattered_green_pair(g, r1, r2, method="dense")
        _, _, G12_b = scattered_green_pair(g, r2, r1, method="dense")
        assert np.max(np.abs(G12_a - G12_b.T)) / np.max(np.abs(G12_a)) < 1e-8

    def test_purcell_near_sphere_dense_vs_iterative(self):
        # a = lambda/20 sphere, emitter 0.3 lambda from its surface
        n, delta, radius_vox, eps = 9, 1 / 80, 4, 2.25
        g = PermittivityGrid.vacuum((n, n, n), delta)
        r = np.linalg.norm(g.centers(), axis=1)
        g.eps[r <= radius_vox * delta + 1e-12] = eps
        a = radius_vox * delta
        r1 = np.array([0.0, 0.0, -(a + 0.3)])
        r2 = np.array([0.0, 0.0, a + 0.35])

        def purcell(method):
            out = scattered_green_pair(g, r1, r2, method=method, rtol=1e-11)
            cs = emcore.couplings_from_green(out[0], out[1], out[2])
            return cs.purcell

        fd = purcell("dense")
        fi = purcell("iterative")
        assert fd != 1.0  # the sphere must actually do something
        assert abs(fi - fd) / fd < 1e-6
