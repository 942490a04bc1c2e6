"""Volume-integral (coupled-dipole) solver for voxelized dielectric maps.

Discretizes the Lippmann-Schwinger equation on a uniform Cartesian voxel
grid: each voxel carries the total field x_k = E(r_k), coupled through
the vacuum dyadic tensor,

    x_k = b_k + k^2 [ sum_{j != k} G0(r_k, r_j) chi_j dV x_j + m chi_k x_k ]

with k = emcore.K0, chi = eps - 1, b_k = G0(r_k, r_source) p, and m the
equivalent-volume-sphere self-integral of G0 over one voxel.  Solving
this system with b the vacuum Green's column makes x_k exactly the
column G(r_k, r_source) p of the structured-medium Green's tensor, and
the tensor anywhere else follows from the re-radiation sum

    G(r, r_s) = G0(r, r_s) + k^2 sum_k G0(r, r_k) chi_k dV x_k.

Both solves take a sequence of sources.  `solve_fields` solves only
the emcore.P_HAT orientation of each, the design loop's solve.  Its
right-hand sides, the free-space columns G0(r_k, r_source) P_HAT,
depend on the geometry (dims, spacing, origin) and the source alone, so
they are built once and cached read-only beside the FFT kernel: one
design builds them once per emitter, however many maps it solves.
`solve_green_block` solves all three, and `scattered_green_pair`
re-radiates those blocks into a pair's (G11, G22, G12): the oracle that
`validate` and the tests check the loop's projected scalars against.

The solver needs numpy alone.  The iterative path (the default) applies
the operator by FFT on the zero-padded grid, the three field components
stacked into each transform call and the kernel product and the first
inverse transform done a slab at a time, so beside the padded spectrum
one application holds at most one half-padded array.  It solves with
the module's own `bicgstab`, capped at MAX_KRYLOV_ITER iterations per
right-hand side (a ConvergenceError past it).  On maps of
THREADED_MIN_VOXELS voxels or more, when the environment pins the BLAS
to one thread, it solves the right-hand sides side by side, at most one
thread per usable core (see `_solve_system`); the values do not depend
on the threads.  On an all-vacuum map the operator is the
identity, and the right-hand sides come back without a Krylov solve.
The dense path (an LU of the assembled operator) is the oracle.

The self term m = -1/(3 k^2) + (2/(3 k^2)) [(1 - i k a) e^{i k a} - 1],
with a the radius of the sphere of volume dV, carries the static
depolarization (Clausius-Mossotti limit) plus the finite-size radiative
correction; it is isolated in `self_interaction` so alternative schemes
can be swapped in.
"""

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .emcore import (COINCIDENT_THRESHOLD, K0, P_HAT, as_position,
                     dyadic_green, free_space_green, vacuum_self_green)
from .errors import CoincidentPointsError, ConvergenceError, GridTooLargeError

__all__ = [
    "PermittivityGrid",
    "self_interaction",
    "assemble_dense",
    "fft_matvec",
    "solve_fields",
    "solve_green_block",
    "scattered_green_pair",
    "DENSE_UNKNOWN_LIMIT",
    "SOLVER_METHODS",
]

#: Dense assembly is refused above this many scalar unknowns (3 per voxel).
DENSE_UNKNOWN_LIMIT = 6000

#: Linear solvers behind the VIE: the FFT/BiCGStab path, which every
#: caller uses unless it asks otherwise, and the dense LU oracle.
SOLVER_METHODS = ("iterative", "dense")

#: Krylov iteration cap of every solve (read when a solve starts).
MAX_KRYLOV_ITER = 2000

#: Default relative residual of the Krylov solves (and of the design loop).
KRYLOV_RTOL = 1e-10

#: Smallest map whose Krylov right-hand sides are solved side by side.
#: Below it two threads lose more to handing the GIL back and forth than
#: they overlap: on a 2-core host a pair of solves takes 8 ms in turn and
#: 10 ms on two threads at 8^3, 13 and 11 ms at 9^3, 29 and 19 ms at 12^3.
THREADED_MIN_VOXELS = 1000

#: Environment variables that set the BLAS thread count, in the order
#: OpenBLAS reads them; the first one set decides.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class GridResolutionWarning(UserWarning):
    """Voxel spacing too coarse for the permitted dielectric contrast
    (issued by the CLI; grids themselves do not warn)."""


@dataclass
class PermittivityGrid:
    """Uniform voxel grid of real dielectric constants.

    origin is the center of voxel (0, 0, 0); voxel (ix, iy, iz) is
    centered at origin + spacing * (ix, iy, iz).  Voxels are stored flat
    in lexicographic (ix, iy, iz) order (C order).
    """

    origin: np.ndarray
    spacing: float
    dims: tuple
    eps: np.ndarray
    eps_max: float = 9.0

    def __post_init__(self):
        self.origin = as_position(self.origin)
        self.dims = tuple(int(n) for n in self.dims)
        self.eps = np.asarray(self.eps, dtype=float).reshape(self.n_voxels)
        # each test is written so that nan fails it
        if not 0 < self.spacing < np.inf:
            raise ValueError("voxel spacing must be positive and finite")
        if not np.all((self.eps >= 1.0) & (self.eps <= self.eps_max)):
            raise ValueError(f"eps must lie in [1, eps_max={self.eps_max}]")

    @classmethod
    def vacuum(cls, dims, spacing, origin=None, eps_max=9.0):
        """All-vacuum grid; default origin centers the grid on (0, 0, 0)."""
        dims = tuple(int(n) for n in dims)
        if origin is None:
            origin = -spacing * (np.asarray(dims, dtype=float) - 1.0) / 2.0
        n = dims[0] * dims[1] * dims[2]
        return cls(origin=np.asarray(origin, dtype=float), spacing=spacing,
                   dims=dims, eps=np.ones(n), eps_max=eps_max)

    @property
    def n_voxels(self):
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def voxel_volume(self):
        return self.spacing**3

    def centers(self):
        """(N, 3) array of voxel centers in lexicographic order."""
        nx, ny, nz = self.dims
        ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                                 indexing="ij")
        idx = np.stack([ix, iy, iz], axis=-1).reshape(-1, 3)
        return self.origin[None, :] + self.spacing * idx

    def copy(self):
        return PermittivityGrid(
            origin=self.origin.copy(), spacing=self.spacing, dims=self.dims,
            eps=self.eps.copy(), eps_max=self.eps_max,
        )

    def chi(self):
        return self.eps - 1.0


def self_interaction(spacing):
    """Self-integral of G0 over one voxel (equivalent-volume sphere).

    Returns the complex scalar m with  integral_{voxel} G0 dV' = m * I.
    The real part carries the L = I/3 depolarization plus the finite-size
    correction, the imaginary part the radiative reaction that keeps the
    scheme consistent with the optical theorem.
    """
    dV = spacing**3
    a = (3.0 * dV / (4.0 * np.pi)) ** (1.0 / 3.0)
    ka = K0 * a
    return (-1.0 + 2.0 * ((1.0 - 1j * ka) * np.exp(1j * ka) - 1.0)) / (3.0 * K0**2)


def assemble_dense(grid):
    """Dense operator [I - k^2 (G0 chi dV + self term)] over voxel fields.

    Oracle path: refuses grids with more than DENSE_UNKNOWN_LIMIT scalar
    unknowns; use the iterative path for anything larger.
    """
    n = grid.n_voxels
    if 3 * n > DENSE_UNKNOWN_LIMIT:
        raise GridTooLargeError(
            f"{3 * n} unknowns exceed the dense limit {DENSE_UNKNOWN_LIMIT}; "
            "use method='iterative'"
        )
    pts = grid.centers()
    chi = grid.chi()
    m = self_interaction(grid.spacing)
    G = dyadic_green(pts[:, None, :] - pts[None, :, :])
    G *= chi[None, :, None, None]
    G *= -(K0**2) * grid.voxel_volume
    A = np.ascontiguousarray(G.transpose(0, 2, 1, 3))
    diag_idx = np.arange(n)
    for a in range(3):
        A[diag_idx, a, diag_idx, a] += 1.0 - K0**2 * m * chi
    return A.reshape(3 * n, 3 * n)


#: Padded spectrum points per component that `apply` multiplies by the
#: kernel, or inverse-transforms along x, at a time (8 planes of a 16^3
#: grid's 32^3 padding).
_SLAB_POINTS = 8 * 32 * 32


class _FftInteraction:
    """Block-Toeplitz application of the off-diagonal G0 coupling via FFT.

    The lag kernel lives on the (2nx, 2ny, 2nz) circulant embedding;
    `khat` holds the transforms of its 6 symmetric components, each
    taken one axis at a time in x, y, z order (`np.fft.fftn` walks the
    axes in another order, which is not bitwise the same transform).
    `apply` pads and transforms one axis at a time, so no 1-D transform
    runs over a line that is all zero padding: forward, the weights are
    padded and transformed along x to 2nx, then y to 2ny, then z to 2nz;
    inverse, x is transformed first and cropped to nx, then y (cropped
    to ny), then z (cropped to nz).  On an n^3 grid that is 14 n^3
    instead of 24 n^3 transformed points per component and direction.
    The three components are stacked component-major, so each of those
    steps is one transform call.  The axes go in the order of a full
    3-D transform, so on grids whose padded extents are powers of two
    every kept value is bitwise the one the full transform gives.
    """

    def __init__(self, dims, spacing):
        self.dims = dims
        nx, ny, nz = dims
        px, py, pz = 2 * nx, 2 * ny, 2 * nz
        lag = []
        for n, p in zip(dims, (px, py, pz)):
            idx = np.arange(p)
            lag.append(np.where(idx < n, idx, idx - p))
        LX, LY, LZ = np.meshgrid(*lag, indexing="ij")
        G = dyadic_green(spacing * np.stack([LX, LY, LZ], axis=-1))
        self.khat = {}
        for a in range(3):
            for b in range(a, 3):
                t = np.fft.fft(G[..., a, b], axis=0)
                t = np.fft.fft(t, axis=1)
                self.khat[(a, b)] = np.fft.fft(t, axis=2)
        self.pad_shape = (px, py, pz)

    def apply(self, x, weight):
        """Convolve the (N, 3) voxel field x, scaled per voxel by the (N,)
        `weight`, with the off-diagonal kernel.

        Every stage is bound to the one name `t`.  The product with the
        kernel is formed a slab of x-planes (_SLAB_POINTS points per
        component) at a time in a small buffer that is written back into
        the spectrum, and the inverse x transform runs in place a slab of
        y-planes at a time, so beside the padded spectrum an application
        holds at most one half-padded array, and two solves can run side
        by side.  Every value is the one whole-array steps give: the
        products and sums are formed in the same order, and each line is
        transformed alone either way."""
        nx, ny, nz = self.dims
        px, py, pz = self.pad_shape
        # a copy, not a transposed view: np.fft keeps its input's memory
        # layout, and interleaved components would make every line strided
        t = np.ascontiguousarray(x.T)
        t *= weight
        t = t.reshape(3, nx, ny, nz)
        t = np.fft.fft(t, n=px, axis=1)
        t = np.fft.fft(t, n=py, axis=2)
        t = np.fft.fft(t, n=pz, axis=3)
        slab = max(1, _SLAB_POINTS // (py * pz))
        acc = np.empty((3, min(slab, px), py, pz), dtype=complex)
        term = np.empty(acc.shape[1:], dtype=complex)
        for s in range(0, px, slab):
            what = t[:, s:s + slab]
            m = what.shape[1]
            for a in range(3):
                np.multiply(self.khat[(0, a)][s:s + m], what[0], out=acc[a, :m])
                for b in (1, 2):
                    key = (a, b) if a <= b else (b, a)
                    acc[a, :m] += np.multiply(self.khat[key][s:s + m], what[b],
                                              out=term[:m])
            what[...] = acc[:, :m]
        del acc, term, what   # `what`, a view, would keep the spectrum alive
        slab = max(1, _SLAB_POINTS // (px * pz))
        for s in range(0, py, slab):
            t[:, :, s:s + slab] = np.fft.ifft(t[:, :, s:s + slab], axis=1)
        t = np.fft.ifft(t[:, :nx], axis=2)[:, :, :ny]
        t = np.fft.ifft(t, axis=3)[..., :nz]
        return t.transpose(1, 2, 3, 0).reshape(-1, 3)


@functools.lru_cache(maxsize=8)
def _fft_kernel(dims, spacing):
    return _FftInteraction(dims, spacing)


def _fft_operator(grid):
    """[I - k^2 (G0 chi dV + self term)] on (N, 3) fields of one map."""
    kern = _fft_kernel(grid.dims, grid.spacing)
    chi = grid.chi()
    m = self_interaction(grid.spacing)
    weight = chi * grid.voxel_volume

    def apply(xv):
        return xv - K0**2 * (kern.apply(xv, weight) + m * chi[:, None] * xv)

    return apply


def fft_matvec(grid, x):
    """Apply [I - k^2 (G0 chi dV + self term)] to a voxel field vector.

    Matches the dense matvec to floating-point roundoff; x may be flat
    (3N,) or shaped (N, 3).
    """
    xv = np.asarray(x, dtype=complex).reshape(grid.n_voxels, 3)
    return _fft_operator(grid)(xv).reshape(np.asarray(x).shape)


@functools.lru_cache(maxsize=16)
def _incident_column(dims, spacing, origin, source):
    """Read-only (N, 3) column G0(r_k, r_source) P_HAT over the voxel
    centers of a geometry; it does not depend on the map, so a design
    builds it once per emitter (an error is raised again on every call:
    the cache keeps only results)."""
    geometry = PermittivityGrid.vacuum(dims, spacing, origin)
    column = _source_columns(geometry, source) @ P_HAT
    column.flags.writeable = False
    return column


def _source_columns(grid, source):
    """(N, 3, 3) blocks G0(r_k, r_source) for every voxel center."""
    pts = grid.centers()
    src = as_position(source)[None, :]
    if np.min(np.linalg.norm(pts - src, axis=1)) < COINCIDENT_THRESHOLD:
        # emitters sit off-center by construction: only bad inputs trip this
        raise CoincidentPointsError("source coincides with a voxel center")
    return dyadic_green(pts - src)


def bicgstab(matvec, b, rtol, maxiter, callback=None):
    """Unpreconditioned BiCGStab for matvec(x) = b; returns (x, info).

    The van der Vorst recurrence (SIAM J. Sci. Stat. Comput. 13, 631
    (1992)) with the stop tests and codes of the Templates Fortran code
    (Barrett et al., SIAM 1994), started from x = b: it stops once
    ||r|| < rtol ||b||, also half-way through an iteration on ||s||;
    info is 0 on convergence, -10 or -11 on a rho or omega breakdown
    (|.| below eps^2, or a zero rtilde.v), and `maxiter` when the cap is
    reached.  `callback(x)` runs after each full iteration.
    `_solve_system` looks this function up as a module global on every
    solve, so it can be wrapped; it may call it from several threads at
    once, one per right-hand side, so it keeps no state outside its own
    call, and a wrapper must be safe to call from several threads too.
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    tol = rtol * bnrm2
    x = np.array(b, dtype=complex)
    tiny = np.finfo(float).eps ** 2
    r = b - matvec(x)
    rtilde = r.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < tol:
            return x, 0
        rho = np.vdot(rtilde, r)
        if abs(rho) < tiny:
            return x, -10
        if iteration > 0:
            if abs(omega) < tiny:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        v = matvec(p)
        rv = np.vdot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        if np.linalg.norm(r) < tol:
            x += alpha * p
            return x, 0
        # r is now s; it is read before the update that turns it back into r
        t = matvec(r)
        omega = np.vdot(t, r) / np.vdot(t, t)
        x += alpha * p
        x += omega * r
        r -= omega * t
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def _solve_system(grid, B, method, rtol):
    """Solve the VIE for each column of B ((N, 3, m) right-hand sides).

    On the iterative path the columns are solved side by side: the
    calling thread solves column 0, and a thread pool that lives only
    for this call solves the rest, with at most one thread per usable
    core (numpy's FFTs and array loops release the GIL, so two 16^3
    solves take about two thirds of the time they take in turn).  Each
    column runs its own `bicgstab` on the shared read-only operator, so
    every value is the one a solve in turn gives.  The columns are
    solved in turn on maps below THREADED_MIN_VOXELS voxels, on one
    usable core, and unless the environment pins the BLAS to one thread
    (`_blas_single_threaded`): the BLAS's own threads (OpenBLAS starts
    one per core) wake on every inner product of `bicgstab` and compete
    with the solve threads, so that on a 2-core host a 4-iteration 16^3
    design took 0.31 s on two threads against 0.27 s in turn.  A column
    that does not converge raises ConvergenceError: the lowest such
    column's, as in turn, and no thread outlives the call.
    """
    if method not in SOLVER_METHODS:
        raise ValueError(f"method must be one of {SOLVER_METHODS}, got {method!r}")
    n = grid.n_voxels
    nrhs = B.shape[2]
    if method == "dense":
        A = assemble_dense(grid)
        sol = np.linalg.solve(A, B.reshape(3 * n, nrhs))
        return sol.reshape(n, 3, nrhs)
    if not grid.chi().any():
        # all vacuum: the operator is the identity
        return B.copy()
    X = np.empty_like(B)
    apply = _fft_operator(grid)

    def matvec(v):
        return apply(v.reshape(n, 3)).ravel()

    def solve(c):
        b = B[:, :, c].ravel()
        x, info = bicgstab(matvec, b, rtol=rtol, maxiter=MAX_KRYLOV_ITER)
        if info != 0:
            res = np.linalg.norm(matvec(x) - b) / np.linalg.norm(b)
            raise ConvergenceError(
                f"Krylov iteration failed (info={info}) with relative "
                f"residual {res:.3e}",
                residual=res,
            )
        X[:, :, c] = x.reshape(n, 3)

    helpers = min(nrhs, _usable_cores()) - 1
    if helpers < 1 or n < THREADED_MIN_VOXELS or not _blas_single_threaded():
        for c in range(nrhs):
            solve(c)
        return X
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        rest = [pool.submit(solve, c) for c in range(1, nrhs)]
        try:
            solve(0)
            for future in rest:
                future.result()
        finally:
            # after a failure, the columns not yet started are dropped
            pool.shutdown(cancel_futures=True)
    return X


def _usable_cores():
    """Cores this process may run on (all of them where the OS does not say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_single_threaded():
    """Whether the first of BLAS_THREAD_VARIABLES that is set reads 1.

    The BLAS reads them when numpy loads it, so they count only if they
    were set before numpy's import (as `bench/run.py` sets them).
    """
    for var in BLAS_THREAD_VARIABLES:
        value = os.environ.get(var, "").strip()
        if value:
            return value == "1"
    return False


def _source_positions(sources):
    """A sequence of source positions; a bare position is refused."""
    if np.ndim(sources) != 2:
        raise ValueError("sources must be a sequence of positions; "
                         "pass [r] for one source")
    return [as_position(r) for r in sources]


def solve_fields(grid, sources, method="iterative", rtol=KRYLOV_RTOL):
    """Total-field maps of unit P_HAT point dipoles inside the voxel map.

    `sources` is a sequence of m positions (a bare position raises
    ValueError); the result is a list of m (N, 3) arrays, row k of each
    the Green's column G(r_k, r_source) P_HAT of the structured medium,
    all solved against one operator.  For an all-vacuum grid the maps
    equal the free-space columns exactly.

    `method` is "iterative" (FFT matvec + BiCGStab, the default) or
    "dense" (LU of the assembled operator, the oracle; refused above
    DENSE_UNKNOWN_LIMIT unknowns).

    The sources should stay at least one voxel spacing away from centers
    of voxels with eps > 1 (recommended, not enforced).

    Raises
    ------
    ConvergenceError
        If the Krylov iteration does not reach the residual within
        MAX_KRYLOV_ITER steps (the error carries the final residual).
    """
    return _fields_and_incident(grid, sources, method, rtol)[0]


def _fields_and_incident(grid, sources, method, rtol):
    """(fields, incident) of `solve_fields`: incident[i] is the (N, 3)
    right-hand side of fields[i], the vacuum column G0(r_k, r_i) P_HAT
    (read-only, shared through `_incident_column`'s cache)."""
    sources = _source_positions(sources)
    origin = tuple(grid.origin.tolist())
    incident = [_incident_column(grid.dims, grid.spacing, origin,
                                 tuple(r.tolist())) for r in sources]
    X = _solve_system(grid, np.stack(incident, axis=2), method, rtol)
    return [X[:, :, i] for i in range(len(sources))], incident


def solve_green_block(grid, sources, method="iterative", rtol=KRYLOV_RTOL):
    """Field blocks of all three orientations of several point sources.

    `sources` is a sequence of m positions; the result is a list of m
    (N, 3, 3) arrays with block[k] = G(r_k, r_source).  All 3m
    right-hand sides are solved against one operator: one dense LU
    factorization, or one FFT kernel shared by the Krylov solves.
    `method` is "iterative" (the default) or "dense" (the oracle).
    """
    sources = _source_positions(sources)
    B = np.concatenate([_source_columns(grid, r) for r in sources], axis=2)
    X = _solve_system(grid, B, method, rtol)
    return [X[:, :, 3 * i:3 * i + 3] for i in range(len(sources))]


def _reradiated(grid, r, block):
    """Scattered part of G(r, r_source) from the source's field block:
    k^2 sum_j G0(r, r_j) chi_j dV X_j over the voxels with chi != 0."""
    chi = grid.chi()
    active = chi != 0
    G0 = dyadic_green(r - grid.centers()[active])
    w = (chi[active] * grid.voxel_volume)[:, None, None] * block[active]
    return K0**2 * np.einsum("jab,jbc->ac", G0, w)


def scattered_green_pair(grid, r1, r2, method="iterative", rtol=KRYLOV_RTOL):
    """The three Green's tensors (G11, G22, G12) of an emitter pair.

    Both emitters are solved together by `solve_green_block` with
    `method` "iterative" (the default) or "dense" (the oracle).  The
    self tensors are the vacuum self tensor (imaginary diagonal
    K0/(6 pi)) plus the scattered correction at the source point, and
    G12 = G(r1, r2) in the structured medium.
    """
    r1 = as_position(r1)
    r2 = as_position(r2)
    if np.linalg.norm(r1 - r2) < COINCIDENT_THRESHOLD:
        raise ValueError("emitters must be separated")
    X1, X2 = solve_green_block(grid, (r1, r2), method, rtol)
    return (vacuum_self_green() + _reradiated(grid, r1, X1),
            vacuum_self_green() + _reradiated(grid, r2, X2),
            free_space_green(r1, r2) + _reradiated(grid, r1, X2))
