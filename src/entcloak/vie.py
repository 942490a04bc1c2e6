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

Two solves share one system solver.  `solve_fields` solves only the
emcore.P_HAT orientation of each source, two right-hand sides for an
emitter pair; it is the design loop's solve.  `solve_green_block`
solves all three orientations, the full tensors; it is the oracle that
`validate` and the tests check the loop's projected scalars against.

The self term m = -1/(3 k^2) + (2/(3 k^2)) [(1 - i k a) e^{i k a} - 1],
with a the radius of the sphere of volume dV, carries the static
depolarization (Clausius-Mossotti limit) plus the finite-size radiative
correction; it is isolated in `self_interaction` so alternative schemes
can be swapped in.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft
from scipy.sparse.linalg import LinearOperator, bicgstab

from .emcore import (COINCIDENT_THRESHOLD, K0, P_HAT, as_position,
                     dyadic_green, free_space_green, vacuum_self_green)
from .errors import CoincidentPointsError, ConvergenceError, GridTooLargeError

__all__ = [
    "PermittivityGrid",
    "GreenSolution",
    "self_interaction",
    "assemble_dense",
    "fft_matvec",
    "solve_fields",
    "solve_green_block",
    "pair_tensors",
    "scattered_green_pair",
    "DENSE_UNKNOWN_LIMIT",
    "SOLVER_METHODS",
]

#: Dense assembly is refused above this many scalar unknowns (3 per voxel).
DENSE_UNKNOWN_LIMIT = 6000

#: Linear solvers behind the VIE: the FFT/BiCGStab path, which every
#: caller uses unless it asks otherwise, and the dense LU oracle.
SOLVER_METHODS = ("iterative", "dense")

#: Default Krylov iteration cap.
MAX_KRYLOV_ITER = 2000


class GridResolutionWarning(UserWarning):
    """Voxel spacing too coarse for the permitted dielectric contrast
    (issued by the CLI; grids themselves do not warn)."""


@dataclass
class PermittivityGrid:
    """Uniform voxel grid of real dielectric constants.

    origin is the center of voxel (0, 0, 0); voxel (ix, iy, iz) is
    centered at origin + spacing * (ix, iy, iz).  Voxels are stored flat
    in lexicographic (ix, iy, iz) order (C order).  `frozen` marks
    voxels excluded from optimization.
    """

    origin: np.ndarray
    spacing: float
    dims: tuple
    eps: np.ndarray
    eps_max: float = 9.0
    frozen: np.ndarray = None

    def __post_init__(self):
        self.origin = as_position(self.origin)
        self.dims = tuple(int(n) for n in self.dims)
        n = self.n_voxels
        self.eps = np.asarray(self.eps, dtype=float).reshape(n)
        if self.frozen is None:
            self.frozen = np.zeros(n, dtype=bool)
        else:
            self.frozen = np.asarray(self.frozen, dtype=bool).reshape(n)
        if self.spacing <= 0:
            raise ValueError("voxel spacing must be positive")
        if np.any(self.eps < 1.0) or np.any(self.eps > self.eps_max):
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
            frozen=self.frozen.copy(),
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


class _FftInteraction:
    """Block-Toeplitz application of the off-diagonal G0 coupling via FFT.

    The lag kernel lives on the (2nx, 2ny, 2nz) circulant embedding;
    `khat` holds the transforms of its 6 symmetric components.  `apply`
    pads and transforms one axis at a time, so no 1-D transform runs
    over a line that is all zero padding: forward, each weight component
    is padded and transformed along x to 2nx, then y to 2ny, then z to
    2nz; inverse, x is transformed first and cropped to nx, then y
    (cropped to ny), then z (cropped to nz).  On an n^3 grid that is
    14 n^3 instead of 24 n^3 transformed points per component and
    direction.  The axes go in the order of a full `fftn`, so on grids
    whose padded extents are powers of two every kept value is bitwise
    the one the full transform gives.
    """

    def __init__(self, dims, spacing):
        self.dims = dims
        self.spacing = spacing
        nx, ny, nz = dims
        px, py, pz = 2 * nx, 2 * ny, 2 * nz
        lag = []
        for n, p in zip(dims, (px, py, pz)):
            idx = np.arange(p)
            lag.append(np.where(idx < n, idx, idx - p))
        LX, LY, LZ = np.meshgrid(*lag, indexing="ij")
        G = dyadic_green(spacing * np.stack([LX, LY, LZ], axis=-1))
        self.khat = {(a, b): sfft.fftn(G[..., a, b])
                     for a in range(3) for b in range(a, 3)}
        self.pad_shape = (px, py, pz)

    def apply(self, w):
        """Convolve (N, 3) voxel weights with the off-diagonal kernel."""
        nx, ny, nz = self.dims
        px, py, pz = self.pad_shape
        w3 = w.reshape(nx, ny, nz, 3)
        what = []
        for b in range(3):
            t = sfft.fft(w3[..., b], n=px, axis=0)
            t = sfft.fft(t, n=py, axis=1)
            what.append(sfft.fft(t, n=pz, axis=2))
        out = np.empty((nx, ny, nz, 3), dtype=complex)
        acc = np.empty(self.pad_shape, dtype=complex)
        term = np.empty(self.pad_shape, dtype=complex)
        for a in range(3):
            np.multiply(self.khat[(0, a)], what[0], out=acc)
            for b in (1, 2):
                key = (a, b) if a <= b else (b, a)
                acc += np.multiply(self.khat[key], what[b], out=term)
            t = sfft.ifft(acc, axis=0, overwrite_x=True)[:nx]
            t = sfft.ifft(t, axis=1, overwrite_x=True)[:, :ny]
            out[..., a] = sfft.ifft(t, axis=2, overwrite_x=True)[..., :nz]
        return out.reshape(-1, 3)


_KERNEL_CACHE = {}


def _get_kernel(grid):
    key = (grid.dims, round(grid.spacing, 15))
    kern = _KERNEL_CACHE.get(key)
    if kern is None:
        if len(_KERNEL_CACHE) > 8:
            _KERNEL_CACHE.clear()
        kern = _FftInteraction(grid.dims, grid.spacing)
        _KERNEL_CACHE[key] = kern
    return kern


def _fft_operator(grid):
    """[I - k^2 (G0 chi dV + self term)] on (N, 3) fields of one map."""
    kern = _get_kernel(grid)
    chi = grid.chi()
    m = self_interaction(grid.spacing)
    w_scale = (chi * grid.voxel_volume)[:, None]

    def apply(xv):
        return xv - K0**2 * (kern.apply(xv * w_scale) + m * chi[:, None] * xv)

    return apply


def fft_matvec(grid, x):
    """Apply [I - k^2 (G0 chi dV + self term)] to a voxel field vector.

    Matches the dense matvec to floating-point roundoff; x may be flat
    (3N,) or shaped (N, 3).
    """
    xv = np.asarray(x, dtype=complex).reshape(grid.n_voxels, 3)
    return _fft_operator(grid)(xv).reshape(np.asarray(x).shape)


def _source_columns(grid, source):
    """(N, 3, 3) blocks G0(r_k, r_source) for every voxel center."""
    pts = grid.centers()
    src = as_position(source)[None, :]
    if np.min(np.linalg.norm(pts - src, axis=1)) < COINCIDENT_THRESHOLD:
        # emitters sit off-center by construction: only bad inputs trip this
        raise CoincidentPointsError("source coincides with a voxel center")
    return dyadic_green(pts - src)


def _solve_system(grid, B, method, rtol, maxiter):
    """Solve the VIE for each column of B ((N, 3, m) right-hand sides)."""
    if method not in SOLVER_METHODS:
        raise ValueError(f"method must be one of {SOLVER_METHODS}, got {method!r}")
    n = grid.n_voxels
    nrhs = B.shape[2]
    if method == "dense":
        A = assemble_dense(grid)
        sol = np.linalg.solve(A, B.reshape(3 * n, nrhs))
        return sol.reshape(n, 3, nrhs)
    X = np.empty_like(B)
    apply = _fft_operator(grid)

    def matvec(v):
        return apply(v.reshape(n, 3)).ravel()

    op = LinearOperator((3 * n, 3 * n), matvec=matvec, dtype=complex)
    for c in range(nrhs):
        b = B[:, :, c].ravel()
        x, info = bicgstab(op, b, x0=b.copy(), rtol=rtol, atol=0.0,
                           maxiter=maxiter)
        if info != 0:
            res = np.linalg.norm(matvec(x) - b) / np.linalg.norm(b)
            raise ConvergenceError(
                f"Krylov iteration failed (info={info}) with relative "
                f"residual {res:.3e}",
                residual=res,
            )
        X[:, :, c] = x.reshape(n, 3)
    return X


def solve_fields(grid, source, method="iterative", rtol=1e-8,
                 maxiter=MAX_KRYLOV_ITER):
    """Total-field maps of unit P_HAT point dipoles inside the voxel map.

    `source` is one position, which gives one (N, 3) array, or a
    sequence of m positions, which gives a list of m of them; row k of
    each is the Green's column G(r_k, r_source) P_HAT of the structured
    medium.  The m right-hand sides are solved against one operator.
    For an all-vacuum grid the maps equal the free-space columns exactly.

    `method` is "iterative" (FFT matvec + BiCGStab, the default) or
    "dense" (LU of the assembled operator, the oracle; refused above
    DENSE_UNKNOWN_LIMIT unknowns).

    The source should stay at least one voxel spacing away from centers
    of voxels with eps > 1 (recommended, not enforced).

    Raises
    ------
    ConvergenceError
        If the Krylov iteration does not reach the residual within
        `maxiter` steps (the error carries the final residual).
    """
    single = np.ndim(source) == 1
    sources = [source] if single else source
    B = np.stack([_source_columns(grid, r) @ P_HAT for r in sources], axis=2)
    X = _solve_system(grid, B, method, rtol, maxiter)
    fields = [X[:, :, i] for i in range(len(sources))]
    return fields[0] if single else fields


@dataclass
class GreenSolution:
    """Solved field blocks of one point source inside a voxel map.

    `block` has shape (N, 3, 3); block[k] = G(r_k, r_source) for all
    three source orientations at once.  `green_at` re-radiates the
    solution to arbitrary points outside the scatterer voxels.
    """

    grid: PermittivityGrid
    source: np.ndarray
    block: np.ndarray
    _weights: np.ndarray = field(default=None, repr=False)

    def _scatter_weights(self):
        if self._weights is None:
            w = (self.grid.chi() * self.grid.voxel_volume)[:, None, None]
            self._weights = w * self.block
        return self._weights

    def scattered_at(self, r):
        """Scattered part of G(r, source): k^2 sum_j G0(r, r_j) chi dV X_j."""
        w = self._scatter_weights()
        active = np.abs(w).max(axis=(1, 2)) > 0
        if not np.any(active):
            return np.zeros((3, 3), dtype=complex)
        pts = self.grid.centers()[active]
        G0 = dyadic_green(as_position(r) - pts)
        return K0**2 * np.einsum("jab,jbc->ac", G0, w[active])

    def green_at(self, r):
        """Total G(r, source), r away from the source and scatterer voxels."""
        return free_space_green(as_position(r), self.source) + self.scattered_at(r)

    def self_green(self):
        """G at the source point: the vacuum self tensor plus the
        scattered correction."""
        return vacuum_self_green() + self.scattered_at(self.source)


def solve_green_block(grid, source, method="iterative", rtol=1e-8,
                      maxiter=MAX_KRYLOV_ITER):
    """Solve the VIE for all three orientations of one or several sources.

    `source` is one position, which gives one GreenSolution, or a
    sequence of m positions, which gives a list of m GreenSolutions.
    All 3m right-hand sides are solved against one operator: one dense
    LU factorization, or one FFT kernel shared by the Krylov solves.
    `method` is "iterative" (the default) or "dense" (the oracle).
    """
    single = np.ndim(source) == 1
    sources = [as_position(r) for r in ([source] if single else source)]
    B = np.concatenate([_source_columns(grid, r) for r in sources], axis=2)
    X = _solve_system(grid, B, method, rtol, maxiter)
    sols = [GreenSolution(grid=grid, source=r, block=X[:, :, 3 * i:3 * i + 3])
            for i, r in enumerate(sources)]
    return sols[0] if single else sols


def pair_tensors(sol1, sol2):
    """(G11, G22, G12) of two solved emitters.

    The self tensors carry the analytic vacuum imaginary diagonal
    K0/(6 pi) plus the scattered correction at the source point, and
    G12 = G(r1, r2) in the structured medium.
    """
    return sol1.self_green(), sol2.self_green(), sol2.green_at(sol1.source)


def scattered_green_pair(grid, r1, r2, method="iterative", rtol=1e-8,
                         maxiter=MAX_KRYLOV_ITER):
    """The three Green's tensors of an emitter pair, from one operator.

    Returns `pair_tensors` (G11, G22, G12) of the two emitters, solved
    together by `solve_green_block` with `method` "iterative" (the
    default) or "dense" (the oracle).
    """
    r1 = as_position(r1)
    r2 = as_position(r2)
    if np.linalg.norm(r1 - r2) < COINCIDENT_THRESHOLD:
        raise ValueError("emitters must be separated")
    sol1, sol2 = solve_green_block(grid, (r1, r2), method, rtol, maxiter)
    return pair_tensors(sol1, sol2)
