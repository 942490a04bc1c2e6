from dataclasses import replace

import numpy as np
import pytest

from entcloak import quantum
from entcloak.emcore import (
    POSITIVITY_TOL,
    CouplingSet,
    couplings_from_q,
    free_space_green,
    project,
)
from entcloak.errors import SolverInconsistencyError
from entcloak.optimizer import (
    DesignConfig,
    born_delta_green,
    compute_state,
    evaluate_candidate,
    freeze_exclusion_zone,
    optimize,
    pump_params,
    sweep_once,
    verify_convergence,
    _born_dq,
    _sum_dq,
    _symmetry_orbits,
)
from entcloak.vie import (
    PermittivityGrid,
    pair_tensors,
    scattered_green_pair,
    solve_fields,
    solve_green_block,
)

K = 2 * np.pi


def toy(dims=(6, 6, 6), spacing=1 / 16, d12=0.25, eps_max=9.0, **cfg_kw):
    grid = PermittivityGrid.vacuum(dims, spacing, eps_max=eps_max)
    emitters = (np.array([0.0, 0.0, -d12 / 2]), np.array([0.0, 0.0, d12 / 2]))
    cfg = DesignConfig(**cfg_kw)
    return grid, emitters, cfg


class TestBornDeltaGreen:
    def test_zero_increment(self, rng):
        G1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        G2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.all(born_delta_green(G1, G2, 0.0, 1e-4) == 0.0)

    def test_exactly_linear(self, rng):
        G1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        G2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        one = born_delta_green(G1, G2, 0.05, 1e-4)
        two = born_delta_green(G1, G2, 0.10, 1e-4)
        assert np.array_equal(two, 2.0 * one)

    def test_formula(self):
        G1 = np.arange(9).reshape(3, 3) + 0j
        G2 = np.eye(3) * (1 + 2j)
        out = born_delta_green(G1, G2, 0.1, 2e-4)
        assert np.allclose(out, K**2 * 0.1 * 2e-4 * (G1 @ G2), atol=0, rtol=1e-15)

    def test_single_voxel_vs_dense_difference(self):
        # the first-Born increment approximates the full-solve difference
        # up to the voxel's self-interaction factor ~ delta_eps/3
        grid, emitters, _ = toy(dims=(4, 4, 4))
        kidx = 21
        grid.eps[kidx] = 1.1
        r1, r2 = emitters
        _, _, G12 = scattered_green_pair(grid, r1, r2, method="dense")
        dG_full = G12 - free_space_green(r1, r2)
        rk = grid.centers()[kidx]
        dG_born = born_delta_green(free_space_green(r1, rk),
                                   free_space_green(rk, r2),
                                   0.1, grid.voxel_volume)
        rel = np.linalg.norm(dG_born - dG_full) / np.linalg.norm(dG_full)
        assert rel < 0.05
        # the deviation is the Clausius-Mossotti local-field factor, not noise
        assert rel == pytest.approx(0.1 / 3, rel=0.15)


class TestPumpParams:
    # (gamma11, gamma22, excess of |gamma12| over the tolerated bound)
    @pytest.mark.parametrize("gammas", [
        (1.0, 1.0, 0.0), (1e-3, 2e-3, 0.0), (1.3e3, 0.7e3, 0.0),
        (1.0, 1.0, 1e-9), (1e-3, 2e-3, 1e-9), (1.3e3, 0.7e3, 1e-9),
    ])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_set_on_the_emcore_positivity_bound_builds(self, gammas, sign):
        # candidate scoring catches only emcore's SolverInconsistencyError,
        # so every set emcore accepts must also build MasterEqParams, and
        # MasterEqParams rejects a set just beyond the bound the same way
        g11, g22, excess = gammas
        g12 = sign * (np.sqrt(g11 * g22) + POSITIVITY_TOL + excess)
        if excess:
            with pytest.raises(SolverInconsistencyError, match="gamma12"):
                quantum.MasterEqParams(g11, g22, g12, 0.1, 5e-3 * g11)
            return
        cs = CouplingSet(g11, g22, g12, 0.1).validate()
        params = pump_params(cs, 5e-3)
        assert (params.gamma12, params.P) == (g12, 5e-3 * g11)


def filled_toy(rng, **cfg_kw):
    """6^3 toy whose free voxels are 40 % filled at random eps in [1, 4]."""
    grid, emitters, cfg = toy(**cfg_kw)
    freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
    filled = ~grid.frozen & (rng.random(grid.n_voxels) < 0.4)
    grid.eps[filled] = rng.uniform(1.0, 4.0, int(filled.sum()))
    return grid, emitters, cfg


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's args."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestComputeState:
    @pytest.fixture
    def dense_calls(self, monkeypatch):
        from entcloak import vie
        return count_calls(monkeypatch, vie, "assemble_dense")

    def test_dense_path_assembles_once_for_both_emitters(self, dense_calls):
        grid, emitters, cfg = toy(dims=(4, 4, 4), solver_method="dense")
        compute_state(grid, emitters, cfg)
        assert len(dense_calls) == 1

    def test_default_path_never_assembles_dense(self, dense_calls):
        grid, emitters, cfg = toy(dims=(8, 8, 8))
        assert cfg.solver_method == "iterative"
        compute_state(grid, emitters, cfg)
        assert dense_calls == []

    def test_two_krylov_solves_per_state(self, rng, monkeypatch):
        # only the P_HAT orientation of each emitter is solved
        from entcloak import vie
        calls = count_calls(monkeypatch, vie, "bicgstab")
        compute_state(*filled_toy(rng))
        assert len(calls) == 2

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_projected_scalars_match_the_block_oracle(self, rng, method):
        grid, emitters, cfg = filled_toy(rng, solver_method=method,
                                         solver_rtol=1e-12)
        q = compute_state(grid, emitters, cfg).q
        sols = solve_green_block(grid, emitters, method=method, rtol=1e-12)
        q_ref = np.array([project(G) for G in pair_tensors(*sols)])
        assert np.max(np.abs(q - q_ref) / np.abs(q_ref)) <= 1e-10

    def test_field_maps_are_the_oracle_z_columns(self, rng):
        grid, emitters, _ = filled_toy(rng)
        fields = solve_fields(grid, emitters, rtol=1e-12)
        sols = solve_green_block(grid, emitters, rtol=1e-12)
        for f, sol in zip(fields, sols, strict=True):
            assert np.array_equal(f, sol.block[:, :, 2])

    def test_couplings_are_the_emcore_conversion_of_the_solve(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        grid.eps[:] = 2.0
        st = compute_state(grid, emitters, cfg)
        assert st.couplings == couplings_from_q(*st.q)

    def test_unphysical_solve_raises_naming_the_rate(self, lossy_pair_scalars):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        with pytest.raises(SolverInconsistencyError, match="gamma11=-"):
            compute_state(grid, emitters, cfg)


class TestEvaluateCandidate:
    def test_zero_increment_returns_current(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        st = compute_state(grid, emitters, cfg)
        value, cs = evaluate_candidate(st, voxel=7, delta_eps=0.0, config=cfg)
        assert value == pytest.approx(st.target_value, abs=1e-14)
        assert cs.gamma12 == pytest.approx(st.couplings.gamma12, rel=1e-12)

    @pytest.mark.parametrize("d12", [0.25, 0.5])
    def test_matches_brute_force_pipeline(self, d12):
        # candidate estimate vs full re-solve with that one voxel changed
        grid, emitters, cfg = toy(dims=(6, 6, 6), d12=d12)
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        st = compute_state(grid, emitters, cfg)
        free = np.nonzero(~grid.frozen)[0]
        for kidx in free[:: max(1, len(free) // 5)][:5]:
            value, _ = evaluate_candidate(st, voxel=int(kidx), delta_eps=0.05,
                                          config=cfg)
            g2 = grid.copy()
            g2.eps[kidx] += 0.05
            G11, G22, G12 = scattered_green_pair(g2, *emitters, method="dense")
            from entcloak.emcore import couplings_from_green
            cs = couplings_from_green(G11, G22, G12)
            params = quantum.MasterEqParams(
                cs.gamma11, cs.gamma22, cs.gamma12, cs.g12,
                cfg.pump_ratio * cs.gamma11)
            brute = quantum.concurrence(quantum.steady_state(params))
            assert value == pytest.approx(brute, abs=5e-3)

    def test_unphysical_candidate_rejected(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        st = compute_state(grid, emitters, cfg)
        s11 = st.s[:, 0]
        kidx = int(np.argmax(np.abs(s11.imag) * ~grid.frozen))
        # the delta_eps that takes Im q11 to minus its current value
        q11 = st.q[0]
        delta_eps = -2 * q11.imag / (K**2 * grid.voxel_volume * s11[kidx].imag)
        assert evaluate_candidate(st, kidx, delta_eps, cfg) == (None, None)
        # a quarter of that step only halves gamma11 and is scored
        value, cs = evaluate_candidate(st, kidx, delta_eps / 4, cfg)
        assert value is not None and cs.gamma11 > 0

    def test_frozen_voxels_never_swept(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        st = compute_state(grid, emitters, cfg)
        orbits = _symmetry_orbits(grid, cfg, st.emitters)
        swept = set(orbits[orbits >= 0].tolist())
        assert swept.isdisjoint(set(np.nonzero(grid.frozen)[0].tolist()))
        assert len(swept) == int((~grid.frozen).sum())


class TestSweepOnce:
    def test_no_improvement_leaves_grid_unchanged(self):
        # a huge acceptance threshold rejects every candidate
        grid, emitters, cfg = toy(dims=(4, 4, 4), tol_accept=1.0)
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        st = compute_state(grid, emitters, cfg)
        eps0 = grid.eps.copy()
        _, sum_dq, accepted = sweep_once(st, cfg)
        assert accepted == 0
        assert np.array_equal(grid.eps, eps0)
        assert np.all(sum_dq == 0)

    def test_frozen_reference_order_independent(self, rng):
        base_grid, emitters, cfg = toy(dims=(4, 4, 4),
                                       sweep_mode="frozen-reference")
        freeze_exclusion_zone(base_grid, emitters, cfg.exclusion_radius)
        orbits = _symmetry_orbits(base_grid, cfg, emitters)
        outcomes = set()
        for _ in range(5):
            g = base_grid.copy()
            st = compute_state(g, emitters, cfg)
            _, _, acc = sweep_once(st, cfg, orbits=rng.permutation(orbits))
            outcomes.add((acc, tuple(np.round(g.eps, 13))))
        assert len(outcomes) == 1

    def test_sequential_matches_hand_trace(self):
        # independent scripted re-implementation of the acceptance rule
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        st = compute_state(grid, emitters, cfg)

        hand = grid.copy()
        q = st.q.copy()
        current = st.target_value
        accepted_hand = []
        for kidx in _symmetry_orbits(hand, cfg, emitters)[:, 0]:
            value, _ = evaluate_candidate(replace(st, q=q), kidx,
                                          cfg.delta_eps, cfg)
            if value is None or value - current <= cfg.tol_accept:
                continue
            q = q + _born_dq(cfg.delta_eps, st.s[kidx], hand.voxel_volume)
            current = value
            hand.eps[kidx] += cfg.delta_eps
            accepted_hand.append(kidx)

        _, _, acc = sweep_once(st, cfg)
        assert acc == len(accepted_hand)
        assert np.allclose(grid.eps, hand.eps, atol=0, rtol=0)

    def test_bidirectional_walks_back_harmful_dielectric(self):
        # worsen a good map by hand; decrement trials must undo some of it
        grid, emitters, cfg = toy(dims=(6, 6, 6), max_iterations=2,
                                  exclusion_radius=1.0)
        rec = optimize(grid, emitters, cfg)
        good = rec.final_grid
        good_state = compute_state(good, emitters, cfg)
        free = np.nonzero(~good.frozen)[0]

        # the victim is the voxel whose +delta_eps first-Born score is
        # lowest, so extra dielectric there is harmful by construction
        def plus_score(kidx):
            value, _ = evaluate_candidate(good_state, int(kidx), cfg.delta_eps,
                                          cfg)
            return np.inf if value is None else value

        victim = int(min(free, key=plus_score))
        spoiled = good.copy()
        spoiled.eps[victim] = min(spoiled.eps[victim] + 2.0, good.eps_max)
        bi_cfg = toy(dims=(6, 6, 6), max_iterations=1, exclusion_radius=1.0,
                     bidirectional=True)[2]
        state = compute_state(spoiled, emitters, bi_cfg)
        # the full solve confirms the spoiling is harmful
        assert state.target_value < good_state.target_value
        before = spoiled.eps[victim]
        # victim first, so no earlier acceptance in the sweep shifts its score
        orbits = np.array([[victim]] + [[m] for m in free if m != victim])
        sweep_once(state, bi_cfg, orbits=orbits)
        assert spoiled.eps[victim] < before

    def test_eps_max_cap_respected(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4), eps_max=1.06)
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        st = compute_state(grid, emitters, cfg)
        sweep_once(st, cfg)
        assert np.all(grid.eps <= grid.eps_max + 1e-12)
        # second sweep cannot push past the cap
        st = compute_state(grid, emitters, cfg)
        sweep_once(st, cfg)
        assert np.all(grid.eps <= grid.eps_max + 1e-12)
        # free voxels just below the default bound: the sweep's headroom
        # is the grid's own eps_max, so the swept map stays a valid grid
        grid, emitters, cfg = toy(dims=(4, 4, 4), exclusion_radius=1.0)
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        grid.eps[~grid.frozen] = grid.eps_max - 0.02
        st = compute_state(grid, emitters, cfg)
        sweep_once(st, cfg)
        assert grid.eps.max() <= grid.eps_max
        grid.copy()  # the copy re-checks eps against the grid's bound

    def test_sum_dq_is_the_born_sum_of_the_eps_changes(self):
        # bidirectional mirror-z on a map half at eps = 2: the sweep takes
        # steps of both signs on two-member orbits
        grid, emitters, cfg = toy(dims=(6, 6, 6), symmetry="mirror-z",
                                  bidirectional=True, exclusion_radius=1.0)
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        grid.eps[~grid.frozen & (grid.centers()[:, 0] > 0)] = 2.0
        st = compute_state(grid, emitters, cfg)
        before_grid = grid.copy()
        _, sum_dq, _ = sweep_once(st, cfg)
        delta = grid.eps - before_grid.eps
        changed = np.flatnonzero(delta)
        assert (delta < 0).any() and (delta > 0).any()
        orbits = _symmetry_orbits(grid, cfg, emitters)
        assert (np.isin(orbits[:, 1], changed)).any()
        # the full-tensor first-Born sum over the oracle's blocks, projected
        sol1, sol2 = solve_green_block(before_grid, emitters,
                                       rtol=cfg.solver_rtol)
        pairs = ((sol1, sol1), (sol2, sol2), (sol1, sol2))
        for dq, (sol_i, sol_j) in zip(sum_dq, pairs, strict=True):
            expected = project(sum(born_delta_green(
                sol_i.block[m].T, sol_j.block[m], delta[m], grid.voxel_volume)
                for m in changed))
            assert abs(dq - expected) <= 1e-12 * abs(expected)


class TestVerifyConvergence:
    def test_zero_accepted_zero_mismatch(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        st = compute_state(grid, emitters, cfg)
        mism = verify_convergence(st, np.zeros_like(st.q), grid, cfg)
        assert mism == 0.0

    def test_one_voxel_small_mismatch(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        st = compute_state(grid, emitters, cfg)
        kidx = int(np.argmax(~grid.frozen))
        g2 = grid.copy()
        g2.eps[kidx] += 0.05
        sum_dq = _sum_dq(st, g2.eps - grid.eps)
        mism = verify_convergence(st, sum_dq, g2, cfg)
        assert 0 < mism <= 1e-3

    def test_large_increment_breaks_identity(self):
        # delta_eps = 1 on a cluster: the accumulated first-Born estimate
        # must overshoot the threshold used for adaptive halving
        grid, emitters, cfg = toy(dims=(6, 6, 6))
        freeze_exclusion_zone(grid, emitters, cfg.exclusion_radius)
        st = compute_state(grid, emitters, cfg)
        free = np.nonzero(~grid.frozen)[0][:40]
        g2 = grid.copy()
        g2.eps[free] += 1.0
        sum_dq = _sum_dq(st, g2.eps - grid.eps)
        mism = verify_convergence(st, sum_dq, g2, cfg)
        assert mism > cfg.eta_converge


class TestOptimize:
    def test_all_frozen_returns_initial(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        grid.frozen[:] = True
        rec = optimize(grid, emitters, cfg)
        assert len(rec.entries) == 1
        assert rec.entries[0].n == 0
        assert rec.final_value == rec.initial_value

    def test_monotone_bounded_and_verified(self):
        grid, emitters, cfg = toy(dims=(6, 6, 6), max_iterations=5,
                                  exclusion_radius=1.0)
        rec = optimize(grid, emitters, cfg)
        vals = rec.values
        assert len(rec.entries) == 6
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert np.all(rec.final_grid.eps >= 1.0)
        assert np.all(rec.final_grid.eps <= grid.eps_max + 1e-12)
        assert all(e.convergence_mismatch <= cfg.eta_converge for e in rec.entries)
        assert rec.final_value > rec.initial_value

    def test_mirror_symmetry_keeps_purcell_factors_equal(self):
        grid, emitters, cfg = toy(dims=(6, 6, 6), max_iterations=3,
                                  symmetry="mirror-z", exclusion_radius=1.0)
        rec = optimize(grid, emitters, cfg)
        for e in rec.entries:
            gap = abs(e.couplings.gamma11 - e.couplings.gamma22)
            assert gap / e.couplings.gamma11 <= 1e-6

    def test_rotation_symmetry_produces_invariant_map(self):
        grid, emitters, cfg = toy(dims=(6, 6, 6), max_iterations=2,
                                  symmetry="z-axis-rotation-4fold",
                                  exclusion_radius=1.0)
        rec = optimize(grid, emitters, cfg)
        eps = rec.final_grid.eps.reshape(rec.final_grid.dims)
        rotated = np.rot90(eps, k=1, axes=(0, 1))
        assert np.array_equal(eps, rotated)
        assert rec.final_value > rec.initial_value

    def test_rotation_symmetry_requires_square_section(self):
        grid, emitters, _ = toy(dims=(4, 6, 6))
        cfg = DesignConfig(symmetry="z-axis-rotation-4fold")
        state = compute_state(grid, emitters, cfg)
        with pytest.raises(ValueError):
            sweep_once(state, cfg)

    def test_adaptive_halving_on_identity_violation(self):
        # a coarse increment must trigger the safeguard, then proceed
        grid, emitters, cfg = toy(dims=(6, 6, 6), delta_eps=1.6,
                                  delta_eps_min=0.3, max_iterations=3,
                                  exclusion_radius=1.0)
        rec = optimize(grid, emitters, cfg)
        assert all(e.convergence_mismatch <= cfg.eta_converge for e in rec.entries)
        if len(rec.entries) > 1:
            assert rec.entries[-1].delta_eps_used < cfg.delta_eps

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            DesignConfig(pump_ratio=0.0)
        with pytest.raises(ValueError):
            DesignConfig(delta_eps=-0.1)
        # the grid owns eps_max; optimize checks it before any solve
        grid, emitters, cfg = toy(dims=(4, 4, 4), eps_max=1.0)
        with pytest.raises(ValueError, match="eps_max"):
            optimize(grid, emitters, cfg)
        with pytest.raises(ValueError):
            DesignConfig(target="fidelity")
        with pytest.raises(ValueError):
            DesignConfig(sweep_mode="parallel")
        for method in ("dens", "auto"):
            with pytest.raises(ValueError, match="iterative.*dense"):
                DesignConfig(solver_method=method)
        for rtol in (0.0, -1e-10):
            with pytest.raises(ValueError, match="solver_rtol"):
                DesignConfig(solver_rtol=rtol)

    def test_negativity_target_improves_negativity(self):
        grid, emitters, cfg = toy(dims=(6, 6, 6), target="negativity",
                                  max_iterations=2, exclusion_radius=1.0)
        rec = optimize(grid, emitters, cfg)
        assert rec.final_value >= rec.initial_value
        assert rec.target == "negativity"

    def test_loop_agrees_across_solver_paths(self):
        # the whole design iteration must not depend on which linear
        # solver backs the field solves
        records = {}
        for method in ("dense", "iterative"):
            grid, emitters, cfg = toy(dims=(6, 6, 6), max_iterations=2,
                                      exclusion_radius=1.0,
                                      solver_method=method,
                                      solver_rtol=1e-11)
            records[method] = optimize(grid, emitters, cfg)
        a, b = records["dense"], records["iterative"]
        assert np.array_equal(a.final_grid.eps > 1.0, b.final_grid.eps > 1.0)
        assert a.final_value == pytest.approx(b.final_value, abs=1e-8)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.accepted_count == eb.accepted_count
