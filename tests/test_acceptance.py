"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is pinned; the printed detail carries the measured
value so a failing criterion documents exactly how far off it landed.
Run with `pytest -rA tests/test_acceptance.py` to see every line.
"""

import time

import numpy as np
import pytest

from entcloak import cli, emcore, quantum, validate, vie
from entcloak.optimizer import (
    DesignConfig,
    born_delta_green,
    compute_state,
    freeze_exclusion_zone,
    optimize,
    sweep_once,
    verify_convergence,
    _sum_dq,
)

K = 2 * np.pi
ZHAT = np.array([0.0, 0.0, 1.0])


def report(n, ok, detail):
    line = f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# criterion-1 state is reused by criterion 2
def _ideal_dissipative_state():
    params = quantum.MasterEqParams(1.0, 1.0, 1.0 - 1e-6, 0.0, 5e-3)
    return quantum.steady_state(params)


def test_criterion_1_ideal_dissipative_concurrence():
    """Steady-state C at gamma12/gamma = 1 - 1e-6, g12 = 0, P/gamma = 5e-3."""
    t0 = time.time()
    rho = _ideal_dissipative_state()
    c = quantum.concurrence(rho)
    ok = abs(c - 0.5) <= 0.05
    detail = (f"C = {c:.6f}, required 0.5 +/- 0.05 "
              f"[{time.time() - t0:.2f}s]")
    report(1, ok, detail)
    assert ok, detail


def test_criterion_2_mems_proximity():
    """(S_L, C) of the criterion-1 state within 0.03 of the MEMS curve."""
    t0 = time.time()
    rho = _ideal_dissipative_state()
    c = quantum.concurrence(rho)
    sl = quantum.linear_entropy(rho)
    rs = np.linspace(0.0, 1.0, 400_001)
    curve_sl = np.where(rs >= 2 / 3, (8 / 3) * rs * (1 - rs),
                        8 / 9 - (2 / 3) * rs**2)
    dist = float(np.sqrt((curve_sl - sl) ** 2 + (rs - c) ** 2).min())
    ok = dist <= 0.03
    detail = (f"point (S_L, C) = ({sl:.4f}, {c:.4f}), distance to MEMS curve "
              f"= {dist:.4f}, required <= 0.03 [{time.time() - t0:.2f}s]")
    report(2, ok, detail)
    assert ok, detail


def test_criterion_3_free_space_coupling_curves():
    """Tensor-path couplings vs aligned-dipole closed forms, 1e-10 relative."""
    t0 = time.time()
    worst = 0.0
    for d in np.geomspace(0.05, 5.0, 100):
        G = emcore.free_space_green((0, 0, 0), (0, 0, d))
        q = complex(ZHAT @ G @ ZHAT)
        worst = max(worst,
                    abs((6 * np.pi / K) * q.imag / emcore.aligned_gamma12(d) - 1),
                    abs((3 * np.pi / K) * q.real / emcore.aligned_g12(d) - 1))
    ok = worst <= 1e-10
    detail = (f"max relative error {worst:.2e} over 100 log-spaced distances "
              f"in (0.05, 5) lambda, required <= 1e-10 [{time.time() - t0:.2f}s]")
    report(3, ok, detail)
    assert ok, detail


def test_criterion_4_isolation_populations():
    rng = np.random.default_rng(4)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        gam = rng.uniform(0.05, 3.0)
        P = rng.uniform(1e-4, 2.0)
        rho = quantum.steady_state(
            quantum.MasterEqParams(gam, gam, 0.0, 0.0, P), check=False)
        worst = max(worst, abs(rho[1, 1].real + rho[3, 3].real - P / (P + gam)))
    ok = worst <= 1e-12
    detail = (f"max |pop - P/(P+gamma)| = {worst:.2e} over 100 random pairs, "
              f"required <= 1e-12 [{time.time() - t0:.2f}s]")
    report(4, ok, detail)
    assert ok, detail


def test_criterion_5_witness_equivalence():
    rng = np.random.default_rng(5)
    t0 = time.time()
    worst_c = worst_n = 0.0
    for _ in range(10_000):
        rho = quantum.steady_state(quantum.random_params(rng), check=False)
        worst_c = max(worst_c, abs(quantum.concurrence(rho)
                                   - quantum.concurrence_wootters(rho)))
        worst_n = max(worst_n, abs(quantum.negativity(rho)
                                   - quantum.negativity_partial_transpose(rho)))
    ok = worst_c <= 1e-10 and worst_n <= 1e-10
    detail = (f"closed form vs general: concurrence gap {worst_c:.2e}, "
              f"negativity gap {worst_n:.2e} on 10^4 random steady states, "
              f"required <= 1e-10 [{time.time() - t0:.1f}s]")
    report(5, ok, detail)
    assert ok, detail


def test_criterion_6_em_solver_validation():
    rng = np.random.default_rng(6)
    t0 = time.time()
    alpha, alpha_ref = validate.rayleigh_sphere_polarizability()
    ray_rel = abs(alpha / alpha_ref - 1.0)
    worst = 0.0
    src = np.array([0.0, 0.0, 0.5])
    for dims in ((2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 6),
                 (6, 5, 4), (2, 6, 3)):
        g = vie.PermittivityGrid.vacuum(dims, 1 / 20)
        g.eps[:] = rng.uniform(1.0, 2.5, g.n_voxels)
        fd = vie.solve_fields(g, src, method="dense")
        fi = vie.solve_fields(g, src, method="iterative", rtol=1e-10)
        worst = max(worst, np.max(np.abs(fd - fi)) / np.max(np.abs(fd)))
    ok = ray_rel <= 0.05 and worst <= 1e-6
    detail = (f"Rayleigh polarizability error {ray_rel:.4f} (<= 0.05); "
              f"dense vs FFT-Krylov max rel diff {worst:.2e} (<= 1e-6) "
              f"[{time.time() - t0:.1f}s]")
    report(6, ok, detail)
    assert ok, detail


def test_criterion_7_born_update_fidelity():
    t0 = time.time()
    # (a) single-voxel delta_eps = 0.1: first Born vs full-solve difference
    grid = vie.PermittivityGrid.vacuum((4, 4, 4), 1 / 16)
    kidx = 21
    grid.eps[kidx] = 1.1
    r1, r2 = np.array([0, 0, -0.3]), np.array([0, 0, 0.3])
    _, _, G12 = vie.scattered_green_pair(grid, r1, r2, method="dense")
    dG_full = G12 - emcore.free_space_green(r1, r2)
    rk = grid.centers()[kidx]
    dG_born = born_delta_green(emcore.free_space_green(r1, rk),
                               emcore.free_space_green(rk, r2),
                               0.1, grid.voxel_volume)
    born_rel = np.linalg.norm(dG_born - dG_full) / np.linalg.norm(dG_full)

    # (b) accumulated-vs-resolved mismatch after one accepted voxel
    grid2 = vie.PermittivityGrid.vacuum((4, 4, 4), 1 / 16)
    emitters = (r1, r2)
    cfg = DesignConfig()
    freeze_exclusion_zone(grid2, emitters, cfg.exclusion_radius)
    state = compute_state(grid2, emitters, cfg)
    vox = int(np.argmax(~grid2.frozen))
    g3 = grid2.copy()
    g3.eps[vox] += 0.05
    sum_dq = _sum_dq(state, g3.eps - grid2.eps)
    mism = verify_convergence(state, sum_dq, g3, cfg)

    ok = born_rel <= 0.02 and mism <= 1e-3
    detail = (f"single-voxel first-Born relative difference {born_rel:.4f} "
              f"(required <= 0.02); one-voxel accumulated-vs-resolved "
              f"mismatch {mism:.2e} (required <= 1e-3) [{time.time() - t0:.1f}s]")
    report(7, ok, detail)
    assert ok, detail


@pytest.fixture(scope="module")
def toy_instance():
    """The desk-scale design instance shared by criteria 8 and 9."""
    grid = vie.PermittivityGrid.vacuum((8, 8, 8), 1 / 16)
    emitters = (np.array([0.0, 0.0, -0.125]), np.array([0.0, 0.0, 0.125]))
    return grid, emitters


def test_criterion_8_desk_scale_design_run(toy_instance):
    t0 = time.time()
    grid, emitters = toy_instance
    cfg = DesignConfig(pump_ratio=5e-3, target="concurrence",
                       max_iterations=120, exclusion_radius=1.0)
    rec = optimize(grid.copy(), emitters, cfg)
    elapsed = time.time() - t0
    vals = rec.values
    mono = all(b >= a for a, b in zip(vals, vals[1:]))
    gain = rec.final_value - rec.initial_value
    worst_mism = max(e.convergence_mismatch for e in rec.entries)
    ok = (mono and gain >= 0.05 and worst_mism <= 1e-2 and elapsed <= 600)
    detail = (f"C0 = {rec.initial_value:.4f}, final C = {rec.final_value:.4f} "
              f"(gain {gain:.4f}, required >= 0.05); monotone = {mono}; "
              f"max convergence mismatch {worst_mism:.2e} (<= 1e-2); "
              f"runtime {elapsed:.0f}s (<= 600s)")
    report(8, ok, detail)
    assert ok, detail


def test_criterion_9_witness_target_first_sweep_agreement(toy_instance):
    t0 = time.time()
    grid0, emitters = toy_instance
    sets = {}
    for target in ("concurrence", "negativity"):
        g = grid0.copy()
        cfg = DesignConfig(pump_ratio=5e-3, target=target,
                           exclusion_radius=1.0)
        freeze_exclusion_zone(g, emitters, cfg.exclusion_radius)
        state = compute_state(g, emitters, cfg)
        sweep_once(state, cfg)
        sets[target] = frozenset(np.nonzero(g.eps > 1.0)[0].tolist())
    diff = sets["concurrence"] ^ sets["negativity"]
    shared = sets["concurrence"] & sets["negativity"]
    ok = not diff
    detail = (f"first-sweep accepted sets: concurrence "
              f"{len(sets['concurrence'])}, negativity "
              f"{len(sets['negativity'])}, shared {len(shared)}, symmetric "
              f"difference {len(diff)} (required 0) [{time.time() - t0:.0f}s]")
    report(9, ok, detail)
    assert ok, detail


def test_criterion_10_validate_suite():
    t0 = time.time()
    ok = validate.run_all(seed=0)
    elapsed = time.time() - t0
    ok = ok and elapsed <= 600
    detail = f"full invariant suite green = {ok}, runtime {elapsed:.0f}s (<= 600s)"
    report(10, ok, detail)
    assert ok, detail
