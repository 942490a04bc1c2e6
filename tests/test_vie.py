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


def peak_traced(f, *args):
    """The tracemalloc peak, in bytes, of one call f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def full_lag_kernel(dims, spacing):
    """Reference `khat`: G0 evaluated over the whole (2nx, 2ny, 2nz) lag
    embedding (lags 0..n-1, then -n..-1), each component transformed
    along x, then y, then z."""
    lag = []
    for n in dims:
        idx = np.arange(2 * n)
        lag.append(np.where(idx < n, idx, idx - 2 * n))
    LX, LY, LZ = np.meshgrid(*lag, indexing="ij")
    G = emcore.dyadic_green(spacing * np.stack([LX, LY, LZ], axis=-1))
    khat = {}
    for a in range(3):
        for b in range(a, 3):
            t = np.fft.fft(G[..., a, b], axis=0)
            t = np.fft.fft(t, axis=1)
            khat[(a, b)] = np.fft.fft(t, axis=2)
    return khat


class TestFftKernel:
    @pytest.mark.parametrize("dims", [(8, 8, 8), (16, 16, 16), (5, 2, 7), (1, 4, 3)])
    def test_unfolded_octant_matches_full_lag_kernel(self, dims):
        # the octant unfolding is exact; only numpy's vectorised exp,
        # which rounds by element position, may move the last place
        khat = vie._FftInteraction(dims, 1 / 16).khat
        ref = full_lag_kernel(dims, 1 / 16)
        assert khat.keys() == ref.keys()
        for key, r in ref.items():
            scale = np.max(np.abs(r))
            assert scale > 0
            assert np.max(np.abs(khat[key] - r)) <= 1e-15 * scale, key

    def test_cached_kernel_is_read_only(self):
        # the side-by-side solve columns share the cached kernel
        khat = vie._fft_kernel((4, 3, 5), 1 / 16).khat
        for key, component in khat.items():
            with pytest.raises(ValueError):
                component[0, 0, 0] = 0.0

    def test_build_peak_memory(self):
        # the build holds the octant of G0 and one component being
        # unfolded beside the kernel: 4.06 MB with numpy 2.4 at 16^3 for
        # 3.15 MB of kernel, where G0 over the whole embedding took 10.1 MB
        dims = (16, 16, 16)
        vie._FftInteraction(dims, 0.0625)   # numpy's FFT set-up done outside
        used = peak_traced(vie._FftInteraction, dims, 0.0625)
        complex_bytes = np.dtype(complex).itemsize
        padded = np.prod([2 * n for n in dims]) * complex_bytes
        octant = 9 * np.prod([n + 1 for n in dims]) * complex_bytes
        # six kernel components, the octant, the component being unfolded,
        # and 4 kB for array headers and index arrays
        assert used <= 6 * padded + octant + padded + 4096


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
        # an operator transforms in the padded spectrum it made, so an
        # application allocates only the kernel-product buffers (4 slabs
        # of _SLAB_POINTS points) and its result: 0.72 MB with numpy 2.4
        # at 16^3, where a spectrum made per call took 2.36 MB
        g = filled_grid(rng, (16, 16, 16), eps=5.0)
        x = rng.standard_normal((g.n_voxels, 3)) + 1j * rng.standard_normal((g.n_voxels, 3))
        apply = vie._fft_operator(g)   # kernel, spectrum, per-voxel arrays built outside
        apply(x)
        slabs = 4 * vie._SLAB_POINTS * np.dtype(complex).itemsize
        # 4 kB for array headers and slices
        assert peak_traced(apply, x) <= slabs + x.nbytes + 4096

    def test_one_matvec_peak_memory(self, rng):
        # a matvec makes one operator: its per-voxel chi and weight and
        # one padded three-component spectrum, beside what an application
        # allocates
        g = filled_grid(rng, (16, 16, 16), eps=5.0)
        x = rng.standard_normal((g.n_voxels, 3)) + 1j * rng.standard_normal((g.n_voxels, 3))
        fft_matvec(g, x)   # kernel cached and numpy's FFT set-up done outside
        spectrum = 3 * np.prod([2 * n for n in g.dims]) * np.dtype(complex).itemsize
        per_voxel = 2 * g.eps.nbytes
        slabs = 4 * vie._SLAB_POINTS * np.dtype(complex).itemsize
        used = peak_traced(fft_matvec, g, x)
        assert used <= spectrum + per_voxel + slabs + x.nbytes + 4096

    @pytest.mark.parametrize("dims", [(16, 16, 16), (5, 2, 7)])
    def test_in_place_operator_equals_out_of_place_formula(self, rng, dims):
        # the operator forms its result in the array the kernel's apply
        # returns, in the order of operations of the formula below
        g = random_grid(rng, dims)
        x = rng.standard_normal((g.n_voxels, 3)) + 1j * rng.standard_normal((g.n_voxels, 3))
        kern = vie._fft_kernel(g.dims, g.spacing)
        chi = g.chi()
        m = self_interaction(g.spacing)
        coupled = kern.apply(x, chi * g.voxel_volume, kern.spectrum())
        expected = x - emcore.K0**2 * (coupled + m * chi[:, None] * x)
        assert np.array_equal(vie._fft_operator(g)(x), expected)

    @pytest.mark.parametrize("dims", [(1, 1, 5), (4, 3, 5)],
                             ids=["one-line", "anisotropic"])
    def test_result_outlives_the_next_application(self, rng, dims):
        # every application reuses the spectrum it is handed; on a
        # one-line grid the cropped result could be reshaped as a view of
        # it, and would then change under the next call
        g = random_grid(rng, dims)
        kern = vie._fft_kernel(g.dims, g.spacing)
        weight = g.chi() * g.voxel_volume
        t = kern.spectrum()
        x, y = (rng.standard_normal((g.n_voxels, 3)) + 0j for _ in range(2))
        first = kern.apply(x, weight, t)
        kept = first.copy()
        kern.apply(y, weight, t)
        assert np.array_equal(first, kept)

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
def bicgstab_threads(monkeypatch):
    """The thread of each vie.bicgstab call, in call order."""
    threads = []
    monkeypatch.setattr(vie, "bicgstab", thread_recording(threads))
    return threads


class TestConcurrentSolves:
    def test_values_equal_solves_in_turn(self, rng, report_cores):
        # 16^3 with chi > 0, so the Krylov path runs; the reference
        # solves run in turn on one reported core
        g = filled_grid(rng, (16, 16, 16))
        report_cores(2)
        fields = solve_fields(g, PAIR)
        blocks = solve_green_block(g, PAIR)   # six columns, more than the cores
        report_cores(1)
        for f, block, r in zip(fields, blocks, PAIR, strict=True):
            assert np.array_equal(f, solve_fields(g, [r])[0])
            assert np.array_equal(block, solve_green_block(g, [r])[0])

    @pytest.mark.parametrize("solve", [solve_fields, solve_green_block])
    def test_kernel_built_once_per_threaded_solve(self, rng, monkeypatch,
                                                  report_cores, solve):
        # the columns start together; were each to look the kernel up
        # first, each would miss the cache and build it
        builds = []
        real = vie._FftInteraction

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(vie, "_FftInteraction", counting)
        report_cores(2)
        g = filled_grid(rng, (10, 10, 10))
        vie._fft_kernel.cache_clear()
        try:
            solve(g, PAIR)
        finally:
            vie._fft_kernel.cache_clear()
        assert builds == [(g.dims, g.spacing)]

    @pytest.mark.parametrize("dims, cores, n_threads", [
        ((10, 10, 10), 2, 2),
        ((10, 10, 10), 1, 1),
        ((8, 8, 8), 2, 1),
    ], ids=["two-cores", "one-core", "below-threaded-min"])
    def test_one_thread_per_usable_core(self, rng, report_cores, bicgstab_threads,
                                        dims, cores, n_threads):
        report_cores(cores)
        solve_fields(filled_grid(rng, dims), PAIR)
        # the calling thread solves one column, in whichever order
        assert len(bicgstab_threads) == 2
        assert threading.main_thread() in bicgstab_threads
        assert len(set(bicgstab_threads)) == n_threads

    @pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                             ids=["blas-threads-unset", "openblas-two-threads"])
    def test_threads_whatever_the_blas_environment(self, rng, monkeypatch, report_cores,
                                                   bicgstab_threads, env):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        report_cores(2)
        solve_fields(filled_grid(rng, (10, 10, 10)), PAIR)
        assert len(set(bicgstab_threads)) == 2

    def test_threaded_solve_makes_no_blas_call(self, rng, monkeypatch, report_cores):
        # the first solve builds the cached kernel and incident columns;
        # the second may reach the BLAS through none of numpy's entry points
        g = filled_grid(rng, (10, 10, 10))
        report_cores(2)
        first = solve_fields(g, PAIR)

        def no_blas(*args, **kwargs):
            raise AssertionError("BLAS call in the Krylov solve")

        for module, name in ((np, "vdot"), (np, "dot"), (np, "inner"),
                             (np.linalg, "norm")):
            monkeypatch.setattr(module, name, no_blas)
        second = solve_fields(g, PAIR)
        for a, b in zip(first, second, strict=True):
            assert np.array_equal(a, b)

    def test_failure_raises_and_no_thread_outlives_the_call(self, rng, monkeypatch,
                                                           report_cores):
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

    def test_same_iterates_as_scipy(self, rng, monkeypatch):
        # the recurrence, stop tests and callbacks are scipy's, step for step
        linalg = pytest.importorskip("scipy.sparse.linalg")
        g = random_grid(rng, (4, 4, 4), contrast=8.0)
        b = rng.standard_normal(3 * g.n_voxels) + 1j * rng.standard_normal(3 * g.n_voxels)
        op = linalg.LinearOperator((b.size, b.size), dtype=complex,
                                   matvec=lambda v: fft_matvec(g, v))
        ours, theirs = [], []
        x, info = vie.bicgstab(op.matvec, b, rtol=1e-10, maxiter=2000,
                               callback=lambda xk: ours.append(xk.copy()))
        # scipy looks both names up on every call: give it our reductions
        monkeypatch.setattr(np, "vdot", vie._vdot)
        monkeypatch.setattr(np.linalg, "norm", vie._norm)
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
        assert cs.gamma11 == 1.0 and cs.gamma22 == 1.0

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
            return cs.gamma11

        fd = purcell("dense")
        fi = purcell("iterative")
        assert fd != 1.0  # the sphere must actually do something
        assert abs(fi - fd) / fd < 1e-6
