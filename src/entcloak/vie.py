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
stacked into each transform call, in place in a padded spectrum that
the operator owns and every application reuses, and the kernel product
done a slab at a time.  It solves with
the module's own `bicgstab`, capped at MAX_KRYLOV_ITER iterations per
right-hand side (a ConvergenceError past it).  On maps of
THREADED_MIN_VOXELS voxels or more it solves the right-hand sides side
by side, at most one thread per usable core (see `_solve_system`); the
values do not depend on the threads.  On an all-vacuum map the operator
is the identity, and the right-hand sides come back without a Krylov
solve.
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
#: kernel at a time (8 planes of a 16^3 grid's 32^3 padding).
_SLAB_POINTS = 8 * 32 * 32


class _FftInteraction:
    """Block-Toeplitz application of the off-diagonal G0 coupling via FFT.

    The lag kernel lives on the (2nx, 2ny, 2nz) circulant embedding,
    whose lags along an axis of n voxels run 0..n-1, then -n..-1.  G0 is
    even in each lag axis apart from the sign of its r_a r_b part, so it
    is evaluated once, on the (nx+1)(ny+1)(nz+1) octant of lag
    magnitudes.  Each of the 6 symmetric components is unfolded from
    the octant onto the embedding by indexing with |lag|, its sign
    flipped along axis i where exactly one of a, b is i; `khat` holds
    the transforms of these components, each taken in place one axis at
    a time in x, y, z order (`np.fft.fftn` walks the axes in another
    order, which is not bitwise the same transform).  The unfolded
    values are the ones G0 gives at the signed lags, but numpy's
    vectorised `exp` rounds by element position, so on some grids the
    kernel differs from a whole-embedding evaluation in the last place.
    `apply` pads and transforms one axis at a time, so no 1-D transform
    runs over a line that is all zero padding: forward, the weights are
    padded and transformed along x to 2nx, then y to 2ny, then z to 2nz;
    inverse, x is transformed first and cropped to nx, then y (cropped
    to ny), then z (cropped to nz).  On an n^3 grid that is 14 n^3
    instead of 24 n^3 transformed points per component and direction.
    The three components are stacked component-major, so each of those
    steps is one transform call.  The axes go in the order of a full
    3-D transform, so on grids whose padded extents are powers of two
    every kept value is bitwise the one the full transform gives, given
    the kernel.
    """

    def __init__(self, dims, spacing):
        self.dims = dims
        self.pad_shape = tuple(2 * n for n in dims)
        lags = np.ix_(*(np.concatenate([np.arange(n), np.arange(-n, 0)])
                        for n in dims))
        octant = tuple(n + 1 for n in dims)
        G = dyadic_green(spacing * np.moveaxis(np.indices(octant), 0, -1))
        unfold = tuple(np.abs(lag) for lag in lags)
        flip = [np.where(lag < 0, -1.0, 1.0) for lag in lags]
        self.khat = {}
        for a in range(3):
            for b in range(a, 3):
                t = G[..., a, b][unfold]
                if a != b:
                    t *= flip[a]
                    t *= flip[b]
                for axis in range(3):
                    np.fft.fft(t, axis=axis, out=t)
                self.khat[(a, b)] = t

    def spectrum(self):
        """A work buffer for `apply`: the padded spectrum of the three
        field components."""
        return np.empty((3,) + self.pad_shape, dtype=complex)

    def apply(self, x, weight, t):
        """Convolve the (N, 3) voxel field x, scaled per voxel by the (N,)
        `weight`, with the off-diagonal kernel, transforming in place in
        `t`, a `spectrum()` of the caller's.

        The caller makes `t` once and hands it in on every call, so an
        application allocates no padded array (allocating one per call
        makes the allocator hand pages back to the OS and fault them in
        again on every matvec of a side-by-side solve); two applications
        that run at once need two spectra.  Each axis is padded with
        zeros just before its own transform.  The product with the
        kernel is formed a slab of x-planes (_SLAB_POINTS points per
        component) at a time in a small buffer that is written back into
        the spectrum.  The result is a fresh array, never a view of `t`,
        so it outlives the next call.  Every value is the one whole-array
        steps give: the products and sums are formed in the same order,
        and each line is transformed alone either way."""
        nx, ny, nz = self.dims
        np.multiply(x.T.reshape(3, nx, ny, nz), weight.reshape(nx, ny, nz),
                    out=t[:, :nx, :ny, :nz])
        t[:, nx:, :ny, :nz] = 0
        np.fft.fft(t[:, :, :ny, :nz], axis=1, out=t[:, :, :ny, :nz])
        t[:, :, ny:, :nz] = 0
        np.fft.fft(t[..., :nz], axis=2, out=t[..., :nz])
        t[..., nz:] = 0
        np.fft.fft(t, axis=3, out=t)
        px, py, pz = self.pad_shape
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
        np.fft.ifft(t, axis=1, out=t)
        np.fft.ifft(t[:, :nx], axis=2, out=t[:, :nx])
        np.fft.ifft(t[:, :nx, :ny], axis=3, out=t[:, :nx, :ny])
        # a copy: a reshaped view could alias `t`, which the next call reuses
        return t[:, :nx, :ny, :nz].transpose(1, 2, 3, 0).copy().reshape(-1, 3)


@functools.lru_cache(maxsize=8)
def _fft_kernel(dims, spacing):
    return _FftInteraction(dims, spacing)


def _fft_operator(grid):
    """[I - k^2 (G0 chi dV + self term)] on (N, 3) fields of one map.

    The operator transforms in a padded spectrum of its own, so it serves
    one thread: a side-by-side solve makes one operator per column."""
    kern = _fft_kernel(grid.dims, grid.spacing)
    chi = grid.chi()
    m = self_interaction(grid.spacing)
    weight = chi * grid.voxel_volume
    t = kern.spectrum()

    def apply(xv):
        return xv - K0**2 * (kern.apply(xv, weight, t) + m * chi[:, None] * xv)

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


def _vdot(a, b):
    """conj(a) . b of two 1-D arrays, summed by numpy's own einsum loop.

    `bicgstab` takes its inner products from here and `_norm`, never from
    the BLAS, so that the threads of a side-by-side solve do not compete
    with the BLAS's own threads (OpenBLAS starts one per core unless the
    environment says otherwise), and every sum runs in one fixed order.
    """
    return np.einsum("i,i->", a.conj(), b)


def _norm(x):
    """Euclidean norm of a 1-D array, the root of `_vdot(x, x)`."""
    return np.sqrt(_vdot(x, x).real)


def bicgstab(matvec, b, rtol, maxiter, callback=None):
    """Unpreconditioned BiCGStab for matvec(x) = b; returns (x, info).

    The van der Vorst recurrence (SIAM J. Sci. Stat. Comput. 13, 631
    (1992)) with the stop tests and codes of the Templates Fortran code
    (Barrett et al., SIAM 1994), started from x = b: it stops once
    ||r|| < rtol ||b||, also half-way through an iteration on ||s||;
    info is 0 on convergence, -10 or -11 on a rho or omega breakdown
    (|.| below eps^2, or a zero rtilde.v), and `maxiter` when the cap is
    reached.  `callback(x)` runs after each full iteration.  It takes
    its inner products and norms from `_vdot` and `_norm` where scipy's
    `bicgstab` calls `np.vdot` and `np.linalg.norm`.  `_solve_system`
    looks this function up as a module global on every solve, so it can
    be wrapped; it may call it from several threads at once, one per
    right-hand side, so it keeps no state outside its own call, and a
    wrapper must be safe to call from several threads too.
    """
    bnrm2 = _norm(b)
    if bnrm2 == 0:
        return b, 0
    tol = rtol * bnrm2
    x = np.array(b, dtype=complex)
    tiny = np.finfo(float).eps ** 2
    r = b - matvec(x)
    rtilde = r.copy()
    for iteration in range(maxiter):
        if _norm(r) < tol:
            return x, 0
        rho = _vdot(rtilde, r)
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
        rv = _vdot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        if _norm(r) < tol:
            x += alpha * p
            return x, 0
        # r is now s; it is read before the update that turns it back into r
        t = matvec(r)
        omega = _vdot(t, r) / _vdot(t, t)
        x += alpha * p
        x += omega * r
        r -= omega * t
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def _solve_system(grid, B, method, rtol):
    """Solve the VIE for each column of B, a sequence of m (N, 3)
    right-hand sides; returns the (m, N, 3) stack of solutions.

    The columns come first in both, so each right-hand side reaches
    `bicgstab` as a flat view of its (contiguous) column, and each
    solution X[c] is one contiguous field map.

    On the iterative path the columns are solved side by side: the
    calling thread solves column 0, and a thread pool that lives only
    for this call solves the rest, with at most one thread per usable
    core (numpy's FFTs and array loops release the GIL, so two 16^3
    solves take about two thirds of the time they take in turn).  Each
    column runs its own `bicgstab` on an operator of its own (the cached
    kernel is shared read-only; the padded spectrum is the column's), so
    every value is the one a solve in turn gives.  The columns are
    solved in turn on maps below THREADED_MIN_VOXELS voxels and on one
    usable core.  A column that does not converge raises
    ConvergenceError: the lowest such column's, as in turn, and no
    thread outlives the call.
    """
    if method not in SOLVER_METHODS:
        raise ValueError(f"method must be one of {SOLVER_METHODS}, got {method!r}")
    n = grid.n_voxels
    nrhs = len(B)
    if method == "dense":
        A = assemble_dense(grid)
        sol = np.linalg.solve(A, np.reshape(B, (nrhs, 3 * n)).T)
        return np.ascontiguousarray(sol.T).reshape(nrhs, n, 3)
    if not grid.chi().any():
        # all vacuum: the operator is the identity
        return np.array(B, dtype=complex)
    X = np.empty((nrhs, n, 3), dtype=complex)

    def solve(c):
        apply = _fft_operator(grid)

        def matvec(v):
            return apply(v.reshape(n, 3)).ravel()

        b = B[c].reshape(-1)
        x, info = bicgstab(matvec, b, rtol=rtol, maxiter=MAX_KRYLOV_ITER)
        if info != 0:
            res = _norm(matvec(x) - b) / _norm(b)
            raise ConvergenceError(
                f"Krylov iteration failed (info={info}) with relative "
                f"residual {res:.3e}",
                residual=res,
            )
        X[c] = x.reshape(n, 3)

    helpers = min(nrhs, _usable_cores()) - 1
    if helpers < 1 or n < THREADED_MIN_VOXELS:
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
    return list(_solve_system(grid, incident, method, rtol)), incident


def solve_green_block(grid, sources, method="iterative", rtol=KRYLOV_RTOL):
    """Field blocks of all three orientations of several point sources.

    `sources` is a sequence of m positions; the result is a list of m
    (N, 3, 3) arrays with block[k] = G(r_k, r_source).  All 3m
    right-hand sides are solved against one operator: one dense LU
    factorization, or one FFT kernel shared by the Krylov solves.
    `method` is "iterative" (the default) or "dense" (the oracle).
    """
    sources = _source_positions(sources)
    B = np.concatenate([_source_columns(grid, r).transpose(2, 0, 1)
                        for r in sources])
    X = _solve_system(grid, B, method, rtol)
    # X[3 i + c] is the field of orientation c of source i
    X = X.reshape(len(sources), 3, grid.n_voxels, 3)
    return list(X.transpose(0, 2, 3, 1))


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
