import numpy as np
import pytest

from entcloak import optimizer, quantum
from entcloak.emcore import (
    POSITIVITY_TOL,
    CouplingSet,
    couplings_from_q,
    free_space_green,
    project,
)
from entcloak.errors import (ConfigError, DegenerateSteadyStateError,
                             SolverInconsistencyError)
from entcloak.optimizer import (
    DesignConfig,
    born_delta_green,
    compute_state,
    optimize,
    prepare_design,
    pump_params,
    score_q,
    sweep_once,
    verify_convergence,
    _born_dq,
    _pair_scalars,
    _sum_dq,
)
from entcloak.vie import (
    KRYLOV_RTOL,
    PermittivityGrid,
    _fields_and_incident,
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


def prepared(grid, emitters, cfg):
    """`prepare_design`'s orbits of `grid` and the mask of the voxels
    they hold, the only voxels a sweep may change."""
    orbits = prepare_design(grid, emitters, cfg)
    return orbits, np.isin(np.arange(grid.n_voxels), orbits)


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
        # the candidate scorer and MasterEqParams apply the one emcore
        # rule: every set emcore accepts also builds MasterEqParams, and
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


#: The witnesses of (4, 4) states, kept apart from the optimizer's
#: scalar table so that `array_path_score` is an independent path
ARRAY_WITNESSES = {"concurrence": quantum.concurrence,
                   "negativity": quantum.negativity}


def array_path_score(q, pump_ratio, target):
    """The candidate score through CouplingSet, MasterEqParams and the
    (4, 4) steady state; None where the coupling set fails validation."""
    try:
        params = pump_params(couplings_from_q(*q), pump_ratio)
    except SolverInconsistencyError:
        return None
    return ARRAY_WITNESSES[target](quantum.steady_state(params))


def born_step_q(state, voxel, delta_eps):
    """`state.q` after the first-Born update of voxel `voxel` by
    delta_eps, as the Python complex numbers `score_q` takes."""
    dq = _born_dq(delta_eps, state.s[voxel], state.grid.voxel_volume)
    return (state.q + dq).tolist()


class TestScoreQ:
    def _random_q(self, rng, n):
        """n random (q11, q22, q12) of Python complex numbers whose
        gamma12 lies inside, on (within POSITIVITY_TOL either side) or
        beyond the positivity bound, some with a non-positive gamma11
        or gamma22."""
        out = []
        for k in range(n):
            im11, im22 = rng.uniform(0.01, 1.0, 2)
            if k % 10 == 0:
                im11, im22 = (-im11, im22) if k % 20 else (im11, 0.0)
            bound = np.sqrt(abs(im11 * im22))
            kind = k % 4
            if kind == 0:
                im12 = rng.uniform(-1.0, 1.0) * bound
            elif kind == 1:
                # gamma12 = 3 Im q12: within a few POSITIVITY_TOL of the bound
                im12 = bound + rng.uniform(-3.0, 3.0) * POSITIVITY_TOL / 3.0
            elif kind == 2:
                im12 = bound
            else:
                im12 = rng.uniform(1.0, 1.5) * bound
            im12 *= rng.choice((-1.0, 1.0))
            out.append((complex(rng.normal(), im11), complex(rng.normal(), im22),
                        complex(rng.uniform(-1.0, 1.0), im12)))
        return out

    @pytest.mark.parametrize("target", ["concurrence", "negativity"])
    def test_equals_the_array_path_bitwise(self, rng, target):
        triples = self._random_q(rng, 10_000)
        ratios = 10.0 ** rng.uniform(-4.0, 0.0, len(triples))
        outcomes = {"none": 0, "value": 0}
        for q, ratio in zip(triples, ratios.tolist()):
            got = score_q(*q, ratio, target)
            expect = array_path_score(q, ratio, target)
            # None exactly where CouplingSet.validate raises
            try:
                couplings_from_q(*q).validate()
                assert got is not None, q
            except SolverInconsistencyError:
                assert got is None, q
            assert got == expect and type(got) is type(expect), q
            outcomes["none" if got is None else "value"] += 1
        # both sides of the bound are exercised
        assert min(outcomes.values()) > 1_000

    @pytest.mark.parametrize("target", ["concurrence", "negativity"])
    def test_degenerate_d_takes_the_svd_fallback(self, monkeypatch, target):
        # gamma11 = gamma22 = 1 with gamma12 on the bound (inside
        # POSITIVITY_TOL): at P = 5.0005e-10 the closed form's
        # denominator D falls below _KERNEL_RTOL * S^3 T, while the
        # Liouvillian kernel is still one-dimensional
        svd_calls = count_calls(monkeypatch, quantum, "steady_state_svd")
        q = (1j / 3, 1j / 3, 1j * (1.0 + POSITIVITY_TOL) / 3)
        got = score_q(*q, 5.0005e-10, target)
        assert len(svd_calls) == 1
        assert got == array_path_score(q, 5.0005e-10, target)
        # on the exact bound at a tinier pump the kernel is degenerate,
        # and both paths raise through the same fallback
        q = (1j / 3, 1j / 3, 1j / 3)
        with pytest.raises(DegenerateSteadyStateError):
            score_q(*q, 1e-13, target)
        with pytest.raises(DegenerateSteadyStateError):
            array_path_score(q, 1e-13, target)

    def test_one_call_per_scored_candidate(self, monkeypatch):
        # sweep of a 6^3 map half at eps = 2: the +delta_eps steps of its
        # 200 orbits are scored, as many as the steady states solved when
        # each candidate built a CouplingSet, a MasterEqParams and a
        # (4, 4) state
        grid, emitters, cfg = toy(exclusion_radius=1.0)
        orbits, free = prepared(grid, emitters, cfg)
        grid.eps[free & (grid.centers()[:, 0] > 0)] = 2.0
        st = compute_state(grid, emitters, cfg)
        calls = count_calls(monkeypatch, optimizer, "score_q")
        states = count_calls(monkeypatch, quantum, "steady_state")
        _, _, accepted = sweep_once(st, cfg, orbits, optimizer.DELTA_EPS)
        assert (len(calls), accepted, len(states)) == (200, 110, 0)


def filled_toy(rng, **cfg_kw):
    """6^3 toy whose free voxels are 40 % filled at random eps in [1, 4]."""
    grid, emitters, cfg = toy(**cfg_kw)
    _, free = prepared(grid, emitters, cfg)
    filled = free & (rng.random(grid.n_voxels) < 0.4)
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
        grid, emitters, _ = filled_toy(rng)
        q = _pair_scalars(grid, emitters,
                          *_fields_and_incident(grid, emitters, method, 1e-12))
        tensors = scattered_green_pair(grid, *emitters, method=method,
                                       rtol=1e-12)
        q_ref = np.array([project(G) for G in tensors])
        assert np.max(np.abs(q - q_ref) / np.abs(q_ref)) <= 1e-10

    def test_field_maps_are_the_oracle_z_columns(self, rng):
        grid, emitters, _ = filled_toy(rng)
        fields = solve_fields(grid, emitters, rtol=1e-12)
        blocks = solve_green_block(grid, emitters, rtol=1e-12)
        for f, block in zip(fields, blocks, strict=True):
            assert np.array_equal(f, block[:, :, 2])

    def test_couplings_are_the_emcore_conversion_of_the_solve(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        grid.eps[:] = 2.0
        st = compute_state(grid, emitters, cfg)
        assert st.couplings == couplings_from_q(*st.q)

    def test_unphysical_solve_raises_naming_the_rate(self, lossy_pair_scalars):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        with pytest.raises(SolverInconsistencyError, match="gamma11=-"):
            compute_state(grid, emitters, cfg)

    @pytest.mark.parametrize("target", ["concurrence", "negativity"])
    def test_target_value_is_the_score_of_q(self, rng, target):
        # the state's witness and every candidate's come from one scorer
        grid, emitters, cfg = filled_toy(rng, target=target)
        st = compute_state(grid, emitters, cfg)
        expect = score_q(*st.q.tolist(), cfg.pump_ratio, target)
        assert st.target_value == expect and type(expect) is float

    def test_design_loop_builds_no_array_steady_state(self, monkeypatch):
        def no_array_state(*args, **kwargs):
            raise AssertionError("quantum.steady_state called in the loop")

        monkeypatch.setattr(quantum, "steady_state", no_array_state)
        grid, emitters, cfg = toy(dims=(4, 4, 4), max_iterations=2,
                                  exclusion_radius=1.0)
        rec = optimize(grid, emitters, cfg)
        assert len(rec.entries) > 1


class TestEvaluateCandidate:
    """One candidate voxel step, scored by `score_q` on its first-Born q."""

    def test_zero_increment_returns_current(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        prepare_design(grid, emitters, cfg)
        st = compute_state(grid, emitters, cfg)
        q = born_step_q(st, voxel=7, delta_eps=0.0)
        assert score_q(*q, cfg.pump_ratio, cfg.target) == st.target_value
        assert couplings_from_q(*q) == st.couplings

    @pytest.mark.parametrize("d12", [0.25, 0.5])
    def test_matches_brute_force_pipeline(self, d12):
        # candidate estimate vs full re-solve with that one voxel changed
        grid, emitters, cfg = toy(dims=(6, 6, 6), d12=d12)
        free = prepare_design(grid, emitters, cfg)[:, 0]
        st = compute_state(grid, emitters, cfg)
        for kidx in free[:: max(1, len(free) // 5)][:5]:
            value = score_q(*born_step_q(st, int(kidx), 0.05), cfg.pump_ratio,
                            cfg.target)
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
        _, free = prepared(grid, emitters, cfg)
        st = compute_state(grid, emitters, cfg)
        s11 = st.s[:, 0]
        kidx = int(np.argmax(np.abs(s11.imag) * free))
        # the delta_eps that takes Im q11 to minus its current value
        q11 = st.q[0]
        delta_eps = -2 * q11.imag / (K**2 * grid.voxel_volume * s11[kidx].imag)
        q = born_step_q(st, kidx, delta_eps)
        assert score_q(*q, cfg.pump_ratio, cfg.target) is None
        # a quarter of that step only halves gamma11 and is scored
        q = born_step_q(st, kidx, delta_eps / 4)
        assert score_q(*q, cfg.pump_ratio, cfg.target) is not None
        assert couplings_from_q(*q).gamma11 > 0

    def test_frozen_voxels_never_swept(self):
        # the exclusion zone is in no orbit and stays at eps = 1 through a
        # sweep, also when the start map has dielectric there
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        grid.eps[:] = 2.0
        dist = np.min([np.linalg.norm(grid.centers() - r, axis=1)
                       for r in emitters], axis=0)
        zone = dist <= cfg.exclusion_radius * grid.spacing
        assert 0 < zone.sum() < grid.n_voxels
        orbits, free = prepared(grid, emitters, cfg)
        assert np.array_equal(free, ~zone)
        assert np.all(grid.eps[zone] == 1.0)
        st = compute_state(grid, emitters, cfg)
        swept, _, accepted = sweep_once(st, cfg, orbits, optimizer.DELTA_EPS)
        assert accepted > 0
        assert np.all(swept.eps[zone] == 1.0)


class TestSweepOnce:
    def test_no_improvement_leaves_grid_unchanged(self, monkeypatch):
        # a huge acceptance threshold rejects every candidate
        monkeypatch.setattr(optimizer, "TOL_ACCEPT", 1.0)
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        orbits = prepare_design(grid, emitters, cfg)
        st = compute_state(grid, emitters, cfg)
        swept, sum_dq, accepted = sweep_once(st, cfg, orbits, optimizer.DELTA_EPS)
        assert accepted == 0
        assert np.array_equal(swept.eps, grid.eps)
        assert np.all(sum_dq == 0)

    def test_leaves_state_unchanged_and_returns_the_swept_map(self, rng):
        # dyadic eps and step make every sum and difference below exact,
        # so the step map is recovered bitwise from the swept map
        grid, emitters, cfg = toy(symmetry="mirror-z", exclusion_radius=1.0)
        orbits, free = prepared(grid, emitters, cfg)
        grid.eps[free] = rng.choice([1.0, 2.0], int(free.sum()))
        st = compute_state(grid, emitters, cfg)
        eps0, q0, s0 = st.grid.eps.copy(), st.q.copy(), st.s.copy()
        swept, sum_dq, accepted = sweep_once(st, cfg, orbits, 0.0625)
        assert accepted > 0
        assert np.array_equal(st.grid.eps, eps0)
        assert np.array_equal(st.q, q0) and np.array_equal(st.s, s0)
        assert swept is not st.grid
        steps = swept.eps - st.grid.eps
        assert np.count_nonzero(steps) == accepted
        assert np.array_equal(_sum_dq(st, steps), sum_dq)

    def test_sequential_matches_hand_trace(self):
        # independent scripted re-implementation of the acceptance rule
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        orbits = prepare_design(grid, emitters, cfg)
        st = compute_state(grid, emitters, cfg)

        hand = grid.copy()
        q = st.q.copy()
        current = st.target_value
        accepted_hand = []
        for kidx in orbits[:, 0]:
            trial = q + _born_dq(optimizer.DELTA_EPS, st.s[kidx], hand.voxel_volume)
            value = score_q(*trial.tolist(), cfg.pump_ratio, cfg.target)
            if value is None or value - current <= optimizer.TOL_ACCEPT:
                continue
            q = trial
            current = value
            hand.eps[kidx] += optimizer.DELTA_EPS
            accepted_hand.append(kidx)

        swept, _, acc = sweep_once(st, cfg, orbits, optimizer.DELTA_EPS)
        assert acc == len(accepted_hand)
        assert np.allclose(swept.eps, hand.eps, atol=0, rtol=0)

    def test_eps_max_cap_respected(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4), eps_max=1.06)
        orbits = prepare_design(grid, emitters, cfg)
        st = compute_state(grid, emitters, cfg)
        swept, _, _ = sweep_once(st, cfg, orbits, optimizer.DELTA_EPS)
        assert np.all(swept.eps <= grid.eps_max + 1e-12)
        # second sweep, from the first one's map, cannot push past the cap
        st = compute_state(swept, emitters, cfg)
        swept, _, _ = sweep_once(st, cfg, orbits, optimizer.DELTA_EPS)
        assert np.all(swept.eps <= grid.eps_max + 1e-12)
        # free voxels just below the default bound: the sweep's headroom
        # is the grid's own eps_max, so the swept map stays a valid grid
        grid, emitters, cfg = toy(dims=(4, 4, 4), exclusion_radius=1.0)
        orbits, free = prepared(grid, emitters, cfg)
        grid.eps[free] = grid.eps_max - 0.02
        st = compute_state(grid, emitters, cfg)
        swept, _, _ = sweep_once(st, cfg, orbits, optimizer.DELTA_EPS)
        assert swept.eps.max() <= grid.eps_max
        swept.copy()  # the copy re-checks eps against the grid's bound

    def test_sum_dq_is_the_born_sum_of_the_eps_changes(self):
        # mirror-z on a map half at eps = 2: the sweep takes +delta_eps
        # steps on two-member orbits
        grid, emitters, cfg = toy(dims=(6, 6, 6), symmetry="mirror-z",
                                  exclusion_radius=1.0)
        orbits, free = prepared(grid, emitters, cfg)
        grid.eps[free & (grid.centers()[:, 0] > 0)] = 2.0
        st = compute_state(grid, emitters, cfg)
        swept, sum_dq, _ = sweep_once(st, cfg, orbits, optimizer.DELTA_EPS)
        delta = swept.eps - grid.eps
        changed = np.flatnonzero(delta)
        assert (delta >= 0).all() and (delta > 0).any()
        assert (np.isin(orbits[:, 1], changed)).any()
        # the full-tensor first-Born sum over the oracle's blocks, projected
        X1, X2 = solve_green_block(grid, emitters, rtol=KRYLOV_RTOL)
        pairs = ((X1, X1), (X2, X2), (X1, X2))
        for dq, (X_i, X_j) in zip(sum_dq, pairs, strict=True):
            expected = project(sum(born_delta_green(
                X_i[m].T, X_j[m], delta[m], grid.voxel_volume)
                for m in changed))
            assert abs(dq - expected) <= 1e-12 * abs(expected)


def reference_sweep(state, cfg, orbits):
    """`sweep_once` written out one orbit at a time, leaving the grid as
    it is: each trial step is scored by `score_q`, and an accepted
    orbit's members are assigned its step at once.  Returns (eps after
    the sweep, sum_dq, accepted)."""
    grid = state.grid
    q = state.q.tolist()
    current = state.target_value
    steps = np.zeros(grid.n_voxels)
    accepted = 0
    for orbit in orbits:
        members = orbit[orbit >= 0]
        s = sum(state.s[m] for m in members)
        step = min(optimizer.DELTA_EPS,
                   min(grid.eps_max - grid.eps[m] for m in members))
        if abs(step) < 1e-15:
            continue
        dq = _born_dq(step, s, grid.voxel_volume).tolist()
        trial = [x + d for x, d in zip(q, dq, strict=True)]
        value = score_q(*trial, cfg.pump_ratio, cfg.target)
        if value is None or value - current <= optimizer.TOL_ACCEPT:
            continue
        steps[members] = step
        accepted += len(members)
        q, current = trial, value
    return grid.eps + steps, _sum_dq(state, steps), accepted


class TestSweepEquivalence:
    #: (dims, d12): the 5^3 layout puts voxels on the central axis and
    #: the midplane, whose symmetry orbits are padded with -1
    LAYOUTS = {"even": ((6, 6, 6), 0.25), "odd": ((5, 5, 5), 0.1875)}

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("symmetry", ["none", "mirror-z"])
    def test_matches_per_orbit_loop(self, rng, layout, symmetry):
        dims, d12 = self.LAYOUTS[layout]
        grid, emitters, cfg = toy(dims=dims, d12=d12, exclusion_radius=1.0,
                                  symmetry=symmetry)
        orbits, free = prepared(grid, emitters, cfg)
        assert (orbits < 0).any() == (layout == "odd" and symmetry != "none")
        # eps at eps_max (no room), just inside it (clipped steps) and
        # below
        grid.eps[free] = rng.choice([1.0, 1.01, 1.5, 2.0, 8.97, 9.0],
                                    int(free.sum()))
        st = compute_state(grid, emitters, cfg)
        eps_ref, sum_dq_ref, accepted_ref = reference_sweep(st, cfg, orbits)
        swept, sum_dq, accepted = sweep_once(st, cfg, orbits, optimizer.DELTA_EPS)
        assert accepted_ref > 0
        assert accepted == accepted_ref
        assert np.array_equal(swept.eps, eps_ref)
        assert np.array_equal(sum_dq, sum_dq_ref)

    def test_no_orbits_leave_the_grid_unchanged(self):
        grid, emitters, cfg = toy(exclusion_radius=1.0)
        orbits = prepare_design(grid, emitters, cfg)
        st = compute_state(grid, emitters, cfg)
        swept, sum_dq, accepted = sweep_once(st, cfg, orbits[:0],
                                             optimizer.DELTA_EPS)
        assert accepted == 0
        assert np.array_equal(swept.eps, grid.eps)
        assert np.all(sum_dq == 0)


class TestVerifyConvergence:
    def test_zero_accepted_zero_mismatch(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        st = compute_state(grid, emitters, cfg)
        new_state, mism = verify_convergence(st, np.zeros_like(st.q), grid, cfg)
        assert mism == 0.0
        assert np.array_equal(new_state.q, st.q)

    def test_one_voxel_small_mismatch(self):
        grid, emitters, cfg = toy(dims=(4, 4, 4))
        kidx = prepare_design(grid, emitters, cfg)[0, 0]
        st = compute_state(grid, emitters, cfg)
        g2 = grid.copy()
        g2.eps[kidx] += 0.05
        sum_dq = _sum_dq(st, g2.eps - grid.eps)
        _, mism = verify_convergence(st, sum_dq, g2, cfg)
        assert 0 < mism <= 1e-3

    def test_large_increment_breaks_identity(self):
        # delta_eps = 1 on a cluster: the accumulated first-Born estimate
        # must overshoot the threshold used for adaptive halving
        grid, emitters, cfg = toy(dims=(6, 6, 6))
        free = prepare_design(grid, emitters, cfg)[:40, 0]
        st = compute_state(grid, emitters, cfg)
        g2 = grid.copy()
        g2.eps[free] += 1.0
        sum_dq = _sum_dq(st, g2.eps - grid.eps)
        _, mism = verify_convergence(st, sum_dq, g2, cfg)
        assert mism > cfg.eta_converge


class TestOptimize:
    def test_all_frozen_returns_initial(self):
        # an exclusion zone wider than the grid leaves no voxel free
        grid, emitters, cfg = toy(dims=(4, 4, 4), exclusion_radius=100.0)
        assert prepare_design(grid.copy(), emitters, cfg).size == 0
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

    @pytest.mark.parametrize("origin, message", [
        ((0.03, -0.09375, -0.09375), "central z axis"),
        ((-0.09375, -0.09375, 0.03), "midplane"),
    ], ids=["off-axis", "off-midplane"])
    def test_mirror_needs_a_centered_layout(self, origin, message):
        # a grid moved off the emitter pair cannot carry mirror-z: the
        # pre-flight raises ConfigError, before any field solve
        _, emitters, cfg = toy(dims=(4, 4, 4), symmetry="mirror-z")
        grid = PermittivityGrid.vacuum((4, 4, 4), 1 / 16, origin=origin)
        with pytest.raises(ConfigError, match=message):
            prepare_design(grid, emitters, cfg)

    def test_adaptive_halving_on_identity_violation(self, monkeypatch):
        # a coarse increment must trigger the safeguard, then proceed
        monkeypatch.setattr(optimizer, "DELTA_EPS_MIN", 0.3)
        monkeypatch.setattr(optimizer, "DELTA_EPS", 1.6)
        grid, emitters, cfg = toy(dims=(6, 6, 6), max_iterations=3,
                                  exclusion_radius=1.0)
        rec = optimize(grid, emitters, cfg)
        assert rec.entries[0].delta_eps_used == 1.6
        assert all(e.convergence_mismatch <= cfg.eta_converge for e in rec.entries)
        if len(rec.entries) > 1:
            assert rec.entries[-1].delta_eps_used < 1.6

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            DesignConfig(pump_ratio=0.0)
        # the grid owns eps_max; optimize checks it before any solve
        grid, emitters, cfg = toy(dims=(4, 4, 4), eps_max=1.0)
        with pytest.raises(ValueError, match="eps_max"):
            optimize(grid, emitters, cfg)
        with pytest.raises(ValueError):
            DesignConfig(target="fidelity")
        for method in ("dens", "auto"):
            with pytest.raises(ValueError, match="iterative.*dense"):
                DesignConfig(solver_method=method)

    @pytest.mark.parametrize("field", ["eta_converge", "exclusion_radius",
                                       "pump_ratio"])
    def test_nan_knob_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            DesignConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["pump_ratio"])
    def test_inf_knob_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            DesignConfig(**{field: float("inf")})

    def test_negativity_target_improves_negativity(self):
        grid, emitters, cfg = toy(dims=(6, 6, 6), target="negativity",
                                  max_iterations=2, exclusion_radius=1.0)
        rec = optimize(grid, emitters, cfg)
        assert rec.final_value >= rec.initial_value
        # each recorded value is the negativity of that entry's state, to
        # the bit, and not the concurrence
        states = [quantum.steady_state(pump_params(e.couplings, cfg.pump_ratio))
                  for e in rec.entries]
        assert rec.values == [quantum.negativity(rho) for rho in states]
        assert rec.values != [quantum.concurrence(rho) for rho in states]

    def test_loop_agrees_across_solver_paths(self):
        # the whole design iteration must not depend on which linear
        # solver backs the field solves
        records = {}
        for method in ("dense", "iterative"):
            grid, emitters, cfg = toy(dims=(6, 6, 6), max_iterations=2,
                                      exclusion_radius=1.0,
                                      solver_method=method)
            records[method] = optimize(grid, emitters, cfg)
        a, b = records["dense"], records["iterative"]
        assert np.array_equal(a.final_grid.eps > 1.0, b.final_grid.eps > 1.0)
        assert a.final_value == pytest.approx(b.final_value, abs=1e-8)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.accepted_count == eb.accepted_count
