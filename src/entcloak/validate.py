"""Named invariant suite covering every module; backs the `validate` command.

Each check returns (ok, detail).  `run_all` executes all of them, prints
one PASS/FAIL line per check to stdout, and reports overall success.
"""

import time

import numpy as np

from . import emcore, optimizer, quantum, vie

__all__ = ["run_all", "CHECKS"]


# ---------------------------------------------------------------------------
# em-core
# ---------------------------------------------------------------------------

def check_aligned_closed_forms(rng):
    ds = np.geomspace(0.05, 5.0, 100)
    vac = emcore.vacuum_self_green()
    worst = 0.0
    for d in ds:
        G = emcore.free_space_green((0, 0, 0), (0, 0, d))
        cs = emcore.couplings_from_green(vac, vac, G)
        worst = max(worst,
                    abs(cs.gamma12 / emcore.aligned_gamma12(d) - 1.0),
                    abs(cs.g12 / emcore.aligned_g12(d) - 1.0))
    return worst <= 1e-10, f"max rel err {worst:.2e} (tol 1e-10)"


def check_green_reciprocity(rng):
    worst = 0.0
    for _ in range(50):
        r1 = rng.uniform(-2, 2, 3)
        r2 = rng.uniform(-2, 2, 3)
        if np.linalg.norm(r1 - r2) < 0.05:
            continue
        Ga = emcore.free_space_green(r1, r2)
        Gb = emcore.free_space_green(r2, r1).T
        worst = max(worst, np.max(np.abs(Ga - Gb)))
    return worst <= 1e-14, f"max transposition defect {worst:.2e} (tol 1e-14)"


def check_self_limit_richardson(rng):
    vac = emcore.vacuum_self_green()

    def f(R):
        G = emcore.free_space_green((0, 0, 0), (0, 0, R))
        return emcore.couplings_from_green(vac, vac, G).gamma12

    a, b, c = f(1e-3), f(5e-4), f(2.5e-4)
    # two Richardson levels for the even (h^2) error series
    r1 = (4 * b - a) / 3.0
    r2 = (4 * c - b) / 3.0
    val = (16 * r2 - r1) / 15.0
    return abs(val - 1.0) <= 1e-6, f"extrapolated diagonal {val:.9f} (tol 1e-6)"


# ---------------------------------------------------------------------------
# vie-solver
# ---------------------------------------------------------------------------

def _random_grid(rng, max_dim=6, contrast=2.5):
    dims = tuple(int(d) for d in rng.integers(2, max_dim + 1, 3))
    g = vie.PermittivityGrid.vacuum(dims, 1.0 / 20.0)
    g.eps[:] = rng.uniform(1.0, contrast, g.n_voxels)
    return g


def check_vacuum_identity(rng):
    g = vie.PermittivityGrid.vacuum((4, 4, 4), 1.0 / 16.0)
    A = vie.assemble_dense(g)
    d1 = np.max(np.abs(A - np.eye(3 * g.n_voxels)))
    src = np.array([0.0, 0.0, 0.37])
    [f] = vie.solve_fields(g, [src], method="dense")
    ref = np.array([emcore.free_space_green(p, src) @ emcore.P_HAT
                    for p in g.centers()])
    d2 = np.max(np.abs(f - ref))
    ok = d1 <= 1e-14 and d2 <= 1e-13
    return ok, f"operator defect {d1:.2e}, field defect {d2:.2e}"


def check_dense_fft_matvec(rng):
    """FFT against dense matvec on 6 random grids, then on one with a
    singleton axis, the edge case of the FFT's per-axis padding."""
    grids = [_random_grid(rng) for _ in range(6)]
    flat = vie.PermittivityGrid.vacuum((1, 4, 3), 1.0 / 20.0)
    flat.eps[:] = rng.uniform(1.0, 2.5, flat.n_voxels)
    worst = 0.0
    for g in grids + [flat]:
        A = vie.assemble_dense(g)
        x = rng.standard_normal(3 * g.n_voxels) + 1j * rng.standard_normal(3 * g.n_voxels)
        y1 = A @ x
        y2 = vie.fft_matvec(g, x)
        worst = max(worst, np.linalg.norm(y1 - y2) / np.linalg.norm(y1))
    return worst <= 1e-10, f"max rel defect {worst:.2e} (tol 1e-10)"


def check_dense_iterative_solve(rng):
    src = np.array([0.0, 0.0, 0.5])
    worst = 0.0
    for _ in range(5):
        g = _random_grid(rng)
        [fd] = vie.solve_fields(g, [src], method="dense")
        [fi] = vie.solve_fields(g, [src], method="iterative", rtol=1e-10)
        worst = max(worst, np.max(np.abs(fd - fi)) / np.max(np.abs(fd)))
    return worst <= 1e-6, f"max rel difference {worst:.2e} (tol 1e-6)"


def rayleigh_sphere_polarizability(method="iterative"):
    """Induced dipole of the a = lambda/20, eps = 2.25 reference sphere."""
    n, delta, radius_vox, eps = 11, 1.0 / 100.0, 5, 2.25
    g = vie.PermittivityGrid.vacuum((n, n, n), delta)
    r = np.linalg.norm(g.centers(), axis=1)
    g.eps[r <= radius_vox * delta + 1e-12] = eps
    src = np.array([10.0, 0.0, 0.0])
    [field] = vie.solve_fields(g, [src], method=method, rtol=1e-10)
    p_ind = ((g.chi() * g.voxel_volume)[:, None] * field).sum(axis=0)
    e_inc = emcore.free_space_green((0, 0, 0), src) @ emcore.P_HAT
    alpha = p_ind[2] / e_inc[2]
    a = radius_vox * delta
    alpha_ref = 4 * np.pi * a**3 * (eps - 1) / (eps + 2)
    return abs(alpha), alpha_ref


def check_rayleigh_sphere(rng):
    alpha, alpha_ref = rayleigh_sphere_polarizability()
    rel = abs(alpha / alpha_ref - 1.0)
    return rel <= 0.05, f"polarizability rel err {rel:.4f} (tol 0.05)"


def check_passivity_reciprocity(rng):
    """Passivity and reciprocity of the structured Green's tensors."""
    worst_rec = 0.0
    for _ in range(20):
        g = _random_grid(rng, max_dim=4)
        span = g.spacing * max(g.dims)
        r1 = np.array([0.0, 0.0, -0.6 * span - 0.05])
        r2 = np.array([0.0, 0.0, 0.6 * span + 0.08])
        G11, G22, G12 = vie.scattered_green_pair(g, r1, r2, method="dense")
        cs = emcore.couplings_from_green(G11, G22, G12)  # raises if unphysical
        if cs.gamma11 <= 0 or cs.gamma22 <= 0:
            return False, "non-positive decay rate on a lossless grid"
        G12_b = vie.scattered_green_pair(g, r2, r1, method="dense")[2].T
        worst_rec = max(worst_rec,
                        np.max(np.abs(G12 - G12_b)) / np.max(np.abs(G12)))
    ok = worst_rec <= 1e-8
    return ok, f"20 grids passive; max reciprocity defect {worst_rec:.2e} (tol 1e-8)"


def check_vacuum_power_ratio(rng):
    g = vie.PermittivityGrid.vacuum((5, 5, 5), 1.0 / 16.0)
    out = vie.scattered_green_pair(g, (0, 0, -0.3), (0, 0, 0.3), method="dense")
    cs = emcore.couplings_from_green(out[0], out[1], out[2])
    ok = cs.purcell == 1.0 and cs.purcell2 == 1.0
    return ok, f"emitted power ratios ({cs.purcell}, {cs.purcell2}) (expect exactly 1)"


# ---------------------------------------------------------------------------
# quantum
# ---------------------------------------------------------------------------

#: True everywhere but the diagonal and rho12, rho21: the entries an X
#: state leaves zero.
_OFF_X = np.ones((4, 4), dtype=bool)
_OFF_X[np.diag_indices(4)] = False
_OFF_X[1, 2] = _OFF_X[2, 1] = False


def check_steady_state_invariants(rng):
    """Closed-form steady states are Hermitian, unit-trace, positive,
    X-type and in the kernel of build_liouvillian (the residual)."""
    worst = {"herm": 0.0, "trace": 0.0, "eig": 0.0, "resid": 0.0, "x": 0.0}
    for _ in range(10_000):
        params = quantum.random_params(rng)
        m = quantum.steady_state(params, check=False)
        worst["herm"] = max(worst["herm"], np.max(np.abs(m - m.conj().T)))
        worst["trace"] = max(worst["trace"], abs(np.trace(m) - 1.0))
        worst["eig"] = max(worst["eig"], max(0.0, -np.linalg.eigvalsh(m).min()))
        L = quantum.build_liouvillian(params)
        worst["resid"] = max(worst["resid"],
                             np.linalg.norm(L @ m.reshape(-1, order="F")))
        worst["x"] = max(worst["x"], np.max(np.abs(m[_OFF_X])))
    ok = (worst["herm"] <= 1e-10 and worst["trace"] <= 1e-10
          and worst["eig"] <= 1e-9 and worst["resid"] <= 1e-10
          and worst["x"] <= 1e-10)
    return ok, ", ".join(f"{k}={v:.1e}" for k, v in worst.items())


def check_steady_state_vs_svd(rng):
    """Closed-form steady state against the 16x16 SVD kernel oracle, on
    random sets and on sets near the dark-state degeneracy (|gamma12|
    within 1e-9 of sqrt(gamma11 gamma22), P down to 1e-6)."""
    worst_random = worst_near = 0.0
    for _ in range(10_000):
        params = quantum.random_params(rng)
        worst_random = max(worst_random, _svd_gap(params))
    for _ in range(1_000):
        params = _near_degenerate_params(rng)
        worst_near = max(worst_near, _svd_gap(params))
    ok = worst_random <= 1e-12 and worst_near <= 1e-10
    return ok, (f"max entrywise gap {worst_random:.1e} random (tol 1e-12), "
                f"{worst_near:.1e} near-degenerate (tol 1e-10)")


def _near_degenerate_params(rng):
    """Random MasterEqParams with |gamma12| within 1e-9 below
    sqrt(gamma11 gamma22) and P log-uniform in [1e-6, 1]."""
    g11, g22 = rng.uniform(0.2, 2.0, 2)
    bound = np.sqrt(g11 * g22)
    return quantum.MasterEqParams(
        gamma11=g11, gamma22=g22,
        gamma12=rng.choice((-1.0, 1.0)) * (bound - rng.uniform(0.0, 1e-9)),
        g12=rng.uniform(-2.0, 2.0), P=10.0 ** rng.uniform(-6.0, 0.0),
    )


def _svd_gap(params):
    return np.max(np.abs(quantum.steady_state(params, check=False)
                         - quantum.steady_state_svd(params, check=False)))


def check_propagation_oracle(rng):
    """Closed-form steady state against RK4 time propagation."""
    worst = 0.0
    for _ in range(100):
        params = quantum.random_params(rng, pump_range=(0.05, 1.0))
        a = quantum.steady_state(params)
        b = quantum.propagate_to_steady(params)
        worst = max(worst, np.max(np.abs(a - b)))
    return worst <= 1e-8, f"max entrywise gap {worst:.2e} (tol 1e-8)"


def check_witness_equivalence(rng):
    """Closed-form witnesses against the general forms on the X states
    they take: steady states, then random X states (any populations and
    rho12 phase)."""
    worst_c = worst_n = 0.0
    states = [quantum.steady_state(quantum.random_params(rng), check=False)
              for _ in range(10_000)]
    states += [quantum.random_x_state(rng) for _ in range(10_000)]
    for rho in states:
        worst_c = max(worst_c, abs(quantum.concurrence(rho)
                                   - quantum.concurrence_wootters(rho)))
        worst_n = max(worst_n, abs(quantum.negativity(rho)
                                   - quantum.negativity_partial_transpose(rho)))
    ok = worst_c <= 1e-10 and worst_n <= 1e-10
    return ok, (f"concurrence gap {worst_c:.1e}, negativity gap {worst_n:.1e}"
                " on 10^4 steady and 10^4 random X states")


def check_witness_threshold_agreement(rng):
    for _ in range(10_000):
        m = quantum.random_x_state(rng)
        c = quantum.concurrence(m)
        n = quantum.negativity(m)
        if (c > 0) != (n > 0):
            return False, f"C={c}, N={n} disagree on entanglement onset"
    return True, "C > 0 iff N > 0 on 10^4 random X states"


def check_sign_flip_invariance(rng):
    worst = 0.0
    for _ in range(200):
        params = quantum.random_params(rng)
        c0 = quantum.concurrence(quantum.steady_state(params, check=False))
        for flip in ("gamma12", "g12"):
            kw = {"gamma11": params.gamma11, "gamma22": params.gamma22,
                  "gamma12": params.gamma12, "g12": params.g12, "P": params.P}
            kw[flip] = -kw[flip]
            c1 = quantum.concurrence(
                quantum.steady_state(quantum.MasterEqParams(**kw), check=False))
            worst = max(worst, abs(c0 - c1))
    return worst <= 1e-10, f"max concurrence shift {worst:.2e} (tol 1e-10)"


def check_isolation_populations(rng):
    worst = 0.0
    for _ in range(100):
        gam = rng.uniform(0.1, 3.0)
        P = rng.uniform(1e-4, 2.0)
        rho = quantum.steady_state(
            quantum.MasterEqParams(gam, gam, 0.0, 0.0, P), check=False)
        pop = rho[1, 1].real + rho[3, 3].real
        worst = max(worst, abs(pop - P / (P + gam)))
    return worst <= 1e-12, f"max |pop - P/(P+gamma)| = {worst:.2e} (tol 1e-12)"


def check_mems_bound(rng):
    r0, sl0 = quantum.mems_curve(0.0)
    r1, sl1 = quantum.mems_curve(1.0)
    lo = quantum.mems_curve(2.0 / 3.0 - 1e-12)[1]
    hi = quantum.mems_curve(2.0 / 3.0)[1]
    if not (abs(sl0 - 8.0 / 9.0) < 1e-12 and sl1 == 0.0
            and abs(lo - hi) < 1e-9 and abs(hi - 16.0 / 27.0) < 1e-12):
        return False, "endpoint or branch-continuity defect"
    # Random states never beat the curve at comparable mixedness.
    rs = np.linspace(0.0, 1.0, 2001)
    curve_sl = np.array([quantum.mems_curve(r)[1] for r in rs])
    violations = 0
    for _ in range(100_000):
        m = quantum.random_density_matrix(rng)
        sl = quantum.linear_entropy(m)
        c = quantum.concurrence_wootters(m)
        idx = np.abs(curve_sl - sl) <= 0.005
        if np.any(idx) and c > rs[idx].max() + 1e-9:
            violations += 1
    return violations == 0, f"{violations} samples above the curve (expect 0)"


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _toy_setup(dims=(6, 6, 6), spacing=1.0 / 16.0, d12=0.25, **cfg_kw):
    grid = vie.PermittivityGrid.vacuum(dims, spacing)
    emitters = (np.array([0.0, 0.0, -d12 / 2]), np.array([0.0, 0.0, d12 / 2]))
    cfg = optimizer.DesignConfig(**cfg_kw)
    return grid, emitters, cfg


def check_born_linearity(rng):
    G1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    G2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    zero = optimizer.born_delta_green(G1, G2, 0.0, 1e-4)
    one = optimizer.born_delta_green(G1, G2, 0.05, 1e-4)
    two = optimizer.born_delta_green(G1, G2, 0.10, 1e-4)
    ok = np.all(zero == 0.0) and np.array_equal(two, 2.0 * one)
    return ok, "zero at delta_eps=0 and exactly linear"


def check_one_voxel_convergence(rng):
    grid, emitters, cfg = _toy_setup(dims=(4, 4, 4))
    state = optimizer.compute_state(grid, emitters, cfg)
    idx = int(np.argmax(~grid.frozen))
    grid2 = grid.copy()
    grid2.eps[idx] += 0.05
    sum_dq = optimizer._sum_dq(state, grid2.eps - grid.eps)
    mism = optimizer.verify_convergence(state, sum_dq, grid2, cfg)
    return mism <= 1e-3, f"one-voxel mismatch {mism:.2e} (tol 1e-3)"


def check_projected_scalars_vs_oracle(rng):
    """The loop's P_HAT-only solve against the projections of the full
    `scattered_green_pair` tensors, on a 6^3 map with 40 % of its free
    voxels at random eps in [1, 4]."""
    worst = 0.0
    for method in vie.SOLVER_METHODS:
        grid, emitters, cfg = _toy_setup(solver_method=method, solver_rtol=1e-12)
        optimizer.freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        filled = ~grid.frozen & (rng.random(grid.n_voxels) < 0.4)
        grid.eps[filled] = rng.uniform(1.0, 4.0, int(filled.sum()))
        q = optimizer.compute_state(grid, emitters, cfg).q
        tensors = vie.scattered_green_pair(grid, *emitters, method=method,
                                           rtol=1e-12)
        q_ref = np.array([emcore.project(G) for G in tensors])
        worst = max(worst, np.max(np.abs(q - q_ref) / np.abs(q_ref)))
    return worst <= 1e-10, f"max rel q defect {worst:.2e} (tol 1e-10)"


def check_frozen_reference_order_independence(rng):
    grid, emitters, cfg = _toy_setup(dims=(4, 4, 4),
                                     sweep_mode="frozen-reference")
    state = optimizer.compute_state(grid, emitters, cfg)
    orbits = optimizer._symmetry_orbits(grid, cfg, state.emitters)
    baseline = None
    for trial in range(5):
        g = grid.copy()
        st = optimizer.compute_state(g, emitters, cfg)
        _, _, acc = optimizer.sweep_once(st, cfg,
                                         orbits=rng.permutation(orbits))
        key = (acc, tuple(np.round(g.eps, 12)))
        if baseline is None:
            baseline = key
        elif key != baseline:
            return False, f"accepted set changed under permutation {trial}"
    return True, f"accepted set stable over 5 random orders ({baseline[0]} voxels)"


def check_design_run_invariants(rng):
    grid, emitters, cfg = _toy_setup(dims=(6, 6, 6), max_iterations=6,
                                     symmetry="mirror-z", pump_ratio=5e-3)
    rec = optimizer.optimize(grid, emitters, cfg)
    values = rec.values
    mono = all(b >= a for a, b in zip(values, values[1:]))
    eps_ok = np.all(rec.final_grid.eps >= 1.0) and np.all(
        rec.final_grid.eps <= grid.eps_max + 1e-12)
    mism_ok = all(e.convergence_mismatch <= cfg.eta_converge for e in rec.entries)
    purcell_gap = max(
        abs(e.couplings.gamma11 - e.couplings.gamma22)
        / e.couplings.gamma11 for e in rec.entries)
    ok = mono and eps_ok and mism_ok and purcell_gap <= 1e-6
    return ok, (f"monotone={mono}, bounds={eps_ok}, mismatch ok={mism_ok}, "
                f"Purcell asymmetry {purcell_gap:.1e} (tol 1e-6)")


def check_scalar_scorer_vs_oracles(rng):
    """The sweep's scalar scorer `score_q` against the 16x16 SVD steady
    state and the general witnesses (Wootters, partial transpose) on
    2000 random physical coupling sets, each scored under both targets,
    and None on 200 sets beyond the positivity bound."""
    oracles = {"concurrence": quantum.concurrence_wootters,
               "negativity": quantum.negativity_partial_transpose}
    worst = 0.0
    rejected = 0
    for n in range(2_200):
        physical = n < 2_000
        im11, im22 = rng.uniform(0.05, 0.7, 2)
        s = (rng.uniform(-0.999, 0.999) if physical
             else rng.choice((-1.0, 1.0)) * rng.uniform(1.001, 1.1))
        q = (complex(rng.normal(), im11), complex(rng.normal(), im22),
             complex(rng.uniform(-0.7, 0.7), s * np.sqrt(im11 * im22)))
        ratio = 10.0 ** rng.uniform(-3.0, 0.0)
        if not physical:
            rejected += all(optimizer.score_q(*q, ratio, t) is None
                            for t in oracles)
            continue
        params = optimizer.pump_params(emcore.couplings_from_q(*q), ratio)
        rho = quantum.steady_state_svd(params, check=False)
        for target, witness in oracles.items():
            worst = max(worst, abs(optimizer.score_q(*q, ratio, target)
                                   - witness(rho)))
    ok = worst <= 1e-10 and rejected == 200
    return ok, (f"max witness gap {worst:.1e} (tol 1e-10) on 2000 sets x 2 "
                f"targets; {rejected}/200 sets beyond the bound scored None")


CHECKS = [
    ("emcore/aligned-closed-forms", check_aligned_closed_forms),
    ("emcore/transposition-reciprocity", check_green_reciprocity),
    ("emcore/self-limit-richardson", check_self_limit_richardson),
    ("vie/vacuum-identity", check_vacuum_identity),
    ("vie/dense-vs-fft-matvec", check_dense_fft_matvec),
    ("vie/dense-vs-iterative-solve", check_dense_iterative_solve),
    ("vie/rayleigh-sphere", check_rayleigh_sphere),
    ("vie/passivity-reciprocity", check_passivity_reciprocity),
    ("vie/vacuum-power-ratio", check_vacuum_power_ratio),
    ("quantum/steady-state-invariants", check_steady_state_invariants),
    ("quantum/steady-state-vs-svd", check_steady_state_vs_svd),
    ("quantum/propagation-oracle", check_propagation_oracle),
    ("quantum/witness-equivalence", check_witness_equivalence),
    ("quantum/witness-threshold-agreement", check_witness_threshold_agreement),
    ("quantum/sign-flip-invariance", check_sign_flip_invariance),
    ("quantum/isolation-populations", check_isolation_populations),
    ("quantum/mems-bound", check_mems_bound),
    ("optimizer/born-linearity", check_born_linearity),
    ("optimizer/one-voxel-convergence-identity", check_one_voxel_convergence),
    ("optimizer/projected-scalars-vs-oracle", check_projected_scalars_vs_oracle),
    ("optimizer/scalar-scorer-vs-oracles", check_scalar_scorer_vs_oracles),
    ("optimizer/frozen-reference-order-independence",
     check_frozen_reference_order_independence),
    ("optimizer/design-run-invariants", check_design_run_invariants),
]


def run_all(seed=0):
    """Run every named check; returns True iff all pass.

    Prints one `PASS name (detail)` / `FAIL name (detail)` line per
    check to stdout.
    """
    ok_all = True
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        t0 = time.time()
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        ok_all &= ok
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:45s} {detail}  [{time.time() - t0:.1f}s]")
    return ok_all
