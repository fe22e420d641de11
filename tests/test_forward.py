import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.linalg import spsolve

from waveguide_carleman import forward
from waveguide_carleman.forward import (
    BoundaryData,
    PotentialSpec,
    SeparableOracle,
    SolverBreakdownError,
    compatibility_residual,
    manufacture_pair,
    measurement,
    positive_preset_data,
    solve_heat,
)
from waveguide_carleman.grid import (FULL, ScalarField, WaveguideDomain, build_grid,
                                     fit_convergence_order, gradient, normal_derivative)
from waveguide_carleman.stability import perturbation_sweep
from waveguide_carleman.synth import axial_factor, dq_preset, q_preset


def constant_data(grid, value=1.0):
    shape_wall = (grid.nt + 1, grid.n1 + 2)
    shape_cap = (grid.nt + 1, grid.n2 + 2)
    return BoundaryData(
        grid,
        np.full((grid.n1 + 2, grid.n2 + 2), value),
        np.full(shape_wall, value),
        np.full(shape_wall, value),
        np.zeros(shape_cap),
        np.zeros(shape_cap),
    )


def zero_potential(grid):
    return PotentialSpec(grid, np.zeros((grid.nt + 1, grid.n2 + 2)), np.ones(grid.n1 + 2))


class TestPotentialAndData:
    def test_potential_shape_and_assembly(self, grid):
        q = q_preset(grid)
        f = axial_factor(grid)
        pot = PotentialSpec(grid, q, f)
        V = pot.potential_values()
        assert V.shape == grid.shape
        k, i, j = 3, 4, 5
        assert V[k, i, j] == pytest.approx(q[k, j] * f[i])

    def test_axial_factor_must_be_positive(self, grid):
        f = np.ones(grid.n1 + 2)
        f[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            PotentialSpec(grid, np.zeros((grid.nt + 1, grid.n2 + 2)), f)

    def test_axial_factor_bump_must_stay_below_one(self, grid):
        # f = 1 + bump cos(pi x1 / L) vanishes at a cap when bump = 1
        with pytest.raises(ValueError, match=re.escape("bump must lie in [0, 1)")):
            axial_factor(grid, 1.0)

    def test_mode_specific_data_validation(self, grid, open_grid):
        # both modes take one required cap pair; a cap trace missing its
        # last time level is named in the error
        for g in (grid, open_grid):
            wall = np.ones((g.nt + 1, g.n1 + 2))
            for bad in ("cap_minus", "cap_plus"):
                caps = {"cap_minus": np.ones((g.nt + 1, g.n2 + 2)),
                        "cap_plus": np.ones((g.nt + 1, g.n2 + 2)), bad: np.ones((g.nt, g.n2 + 2))}
                with pytest.raises(ValueError, match=f"{bad} must have shape"):
                    BoundaryData(g, np.ones((g.n1 + 2, g.n2 + 2)), wall, wall, **caps)

    def test_non_finite_samples_are_named(self, domain):
        # a NaN used to pass silently: in bounded cap data it stopped CG
        # before its first iteration (level 5 came out equal to level 4),
        # and in q it was reported as an indefinite step matrix
        grid = build_grid(domain, 16, 16, 32)
        pot = PotentialSpec(grid, q_preset(grid), axial_factor(grid))
        data = positive_preset_data(pot)
        names = ("u0", "b_bottom", "b_top", "cap_minus", "cap_plus")
        for name, bad in zip(names, (np.nan, np.inf, -np.inf, np.nan, np.nan)):
            arrays = {n: getattr(data, n).copy() for n in names}
            arrays[name][5, 3] = bad
            with pytest.raises(ValueError, match=f"{name} samples must be finite"):
                BoundaryData(grid, **arrays)
        for name, bad in (("q", np.nan), ("f", np.inf)):
            arrays = {"q": pot.q.copy(), "f": pot.f.copy()}
            arrays[name][5] = bad
            with pytest.raises(ValueError, match=f"{name} samples must be finite"):
                PotentialSpec(grid, **arrays)

    def test_positive_preset_is_exactly_compatible(self, grid):
        # the preset potential vanishes at t=0, so the wall consistency
        # residual is identically zero
        pot = PotentialSpec(grid, q_preset(grid), axial_factor(grid))
        data = positive_preset_data(pot)
        assert min(np.min(data.u0), np.min(data.b_bottom), np.min(data.b_top)) > 0.0
        assert compatibility_residual(data, pot) == 0.0

    def test_compatibility_residual_rejects_a_potential_on_another_grid(self, grid):
        # same node counts, longer guide: the potential's samples sit at
        # other x1 nodes than the data's
        other = build_grid(WaveguideDomain(L=3.0, h=1.0, T=2.0), grid.n1, grid.n2, grid.nt)
        data = positive_preset_data(PotentialSpec(grid, q_preset(grid), axial_factor(grid)))
        pot = PotentialSpec(other, q_preset(other), axial_factor(other))
        with pytest.raises(ValueError, match="share one grid"):
            compatibility_residual(data, pot)

    def test_oracle_compatibility_residual_is_pure_stencil_error(self, domain):
        # the oracle's walls trace an exact solution, so the residual is
        # the second-order stencils' error alone: positive, and falling at
        # least 4x per refinement
        errs = []
        for n in (8, 16, 32, 64):
            g = build_grid(domain, n, n, 2 * n)
            oracle = SeparableOracle(g)
            errs.append(compatibility_residual(oracle.data(), oracle.potential()))
        assert errs[-1] > 0.0
        assert all(coarse >= 4.0 * fine for coarse, fine in zip(errs, errs[1:]))


class TestSolveHeat:
    def test_constant_preservation(self, domain):
        # zero potential and constant data keep the exact constant state
        grid = build_grid(domain, 8, 8, 512)
        [u] = solve_heat(grid, [zero_potential(grid)], constant_data(grid, 3.0))
        assert np.max(np.abs(u.values - 3.0)) <= 1e-12 * 3.0

    def test_truncated_grid_rejected(self, open_grid):
        # the solver marches bounded grids only; the open regime is checked
        # on synthetic fields, never on a solved one
        with pytest.raises(ValueError, match="bounded grids only"):
            solve_heat(open_grid, [zero_potential(open_grid)], constant_data(open_grid))

    @pytest.mark.parametrize("entry", ["oracle", "manufacture_pair", "perturbation_sweep"])
    def test_truncated_grid_rejected_by_every_solving_entry_point(self, open_grid, entry):
        # the public routes to a solve carry no check of their own: each
        # reaches solve_heat's guard
        q, dq, f = q_preset(open_grid), dq_preset(open_grid), axial_factor(open_grid)
        calls = {
            "oracle": lambda: SeparableOracle(open_grid).solve(),
            "manufacture_pair": lambda: manufacture_pair(open_grid, q, q + 0.1 * dq, f),
            "perturbation_sweep": lambda: perturbation_sweep(open_grid, q, dq, f, [0.1], [0.25]),
        }
        with pytest.raises(ValueError, match="bounded grids only"):
            calls[entry]()

    def test_oracle_convergence(self, domain):
        errs, hs = [], []
        for n, nt in ((8, 32), (16, 64), (32, 128)):
            g = build_grid(domain, n, n, nt)
            errs.append(SeparableOracle(g).relative_l2_error())
            hs.append(g.dx1)
        assert fit_convergence_order(hs, errs) >= 1.8
        assert errs[-1] < 2e-3

    def test_linearity_in_data(self, grid):
        pot = PotentialSpec(grid, q_preset(grid), axial_factor(grid))
        d1 = positive_preset_data(pot)
        bump = 0.3 * np.sin(np.pi * (grid.x1 + 1.0) / 2.0)
        d2 = BoundaryData(
            grid,
            d1.u0 + 0.2,
            d1.b_bottom + bump[None, :],
            d1.b_top.copy(),
            d1.cap_minus + 0.1,
            d1.cap_plus.copy(),
        )
        d_sum = BoundaryData(
            grid,
            d1.u0 + d2.u0,
            d1.b_bottom + d2.b_bottom,
            d1.b_top + d2.b_top,
            d1.cap_minus + d2.cap_minus,
            d1.cap_plus + d2.cap_plus,
        )
        u1 = solve_heat(grid, [pot], d1)[0].values
        u2 = solve_heat(grid, [pot], d2)[0].values
        u12 = solve_heat(grid, [pot], d_sum)[0].values
        scale = np.max(np.abs(u12))
        assert np.max(np.abs(u12 - u1 - u2)) <= 1e-11 * scale

    def test_positivity_with_positive_preset(self, domain):
        grid = build_grid(domain, 24, 24, 48)
        pot = PotentialSpec(grid, q_preset(grid, 0.4), axial_factor(grid))
        [u] = solve_heat(grid, [pot], positive_preset_data(pot))
        assert np.min(u.values) > 0.0

    def test_indefinite_step_matrix_rejected(self, domain):
        # conjugate gradients need a positive definite step matrix; with
        # this potential they would stop at a field far from the exact step
        grid = build_grid(domain, 32, 32, 64)
        pot = PotentialSpec(grid, q_preset(grid, -100.0), axial_factor(grid))
        with pytest.raises(ValueError, match=r"time step 0\.03125 with min V -224\."):
            solve_heat(grid, [pot], positive_preset_data(pot))
        # in a stack, the message names the indefinite member
        good = PotentialSpec(grid, q_preset(grid), axial_factor(grid))
        with pytest.raises(ValueError, match="member 1 is not positive definite"):
            solve_heat(grid, [good, pot], positive_preset_data(good))

    def test_definiteness_reads_the_marched_levels_only(self, domain):
        # level 0 is u0, never solved for: a potential indefinite there alone
        # is accepted, and the same values at level 1 are not
        grid = build_grid(domain, 8, 8, 16)
        q = np.zeros((grid.nt + 1, grid.n2 + 2))
        q[0] = -1e3
        pots = [zero_potential(grid), PotentialSpec(grid, q, np.ones(grid.n1 + 2))]
        data = positive_preset_data(pots[0])
        u, u_level0 = solve_heat(grid, pots, data)
        assert np.all(np.isfinite(u_level0.values))
        assert u_level0.values[1:].tobytes() != u.values[1:].tobytes()
        pots[1] = PotentialSpec(grid, np.roll(q, 1, axis=0), pots[1].f)
        with pytest.raises(ValueError, match=r"member 1 is not positive definite: "
                                             r"time step 0\.125 with min V -1000\.0;"):
            solve_heat(grid, pots, data)

    def test_iteration_cap_names_the_step(self, grid, monkeypatch):
        monkeypatch.setattr(forward, "CG_MAX_ITERATIONS", 0)
        pot = PotentialSpec(grid, q_preset(grid), axial_factor(grid))
        with pytest.raises(SolverBreakdownError,
                           match="step 1: no convergence in 0 iterations") as info:
            solve_heat(grid, [pot], positive_preset_data(pot))
        assert "member 0, step 1" in str(info.value)

    def test_iteration_cap_counts_both_phases(self, monkeypatch):
        # at step 1 this member hands over to CG after five Richardson
        # applications and converges after three CG iterations more, so a cap
        # of seven stops it there; CG alone would first reach seven at step 2
        monkeypatch.setattr(forward, "CG_MAX_ITERATIONS", 7)
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0), 24, 20, 16)
        pot = PotentialSpec(g, q_preset(g, 40.0), axial_factor(g, 0.5))
        with pytest.raises(SolverBreakdownError,
                           match="^member 0, step 1: no convergence in 7 iterations"):
            solve_heat(g, [pot], positive_preset_data(pot))

    def test_non_finite_residual_names_the_member_and_the_step(self, domain):
        # the second member's first residual overflows to inf, then NaN,
        # which the stopping test would pass as converged; the overflow
        # itself raises no RuntimeWarning (an error under tier-1's filters)
        grid = build_grid(domain, 8, 8, 16)
        good = PotentialSpec(grid, q_preset(grid), axial_factor(grid))
        huge = PotentialSpec(grid, q_preset(grid, 1e308), axial_factor(grid))
        with pytest.raises(SolverBreakdownError, match="^member 1, step 1: non-finite residual$"):
            solve_heat(grid, [good, huge], positive_preset_data(good))


def stack_members(grid):
    """Four potentials on one grid: the preset, a stronger and a negative
    one, and a random one with its own axial factor."""
    rng = np.random.default_rng(7)
    q, f = q_preset(grid, 0.4), axial_factor(grid, 0.5)
    return [PotentialSpec(grid, q, f), PotentialSpec(grid, q + 0.3 * dq_preset(grid), f),
            PotentialSpec(grid, -0.5 * q, f),
            PotentialSpec(grid, rng.uniform(-0.5, 1.0, q.shape), rng.uniform(0.2, 2.0, f.shape))]


def cap_weight(grid):
    """D = diag(1/2, 1, ..., 1, 1/2) along x1 as a (P, 1) column: the
    weight of the inner product in which the step matrix is symmetric."""
    weight = np.ones((grid.n1 + 2, 1))
    weight[[0, -1]] = 0.5
    return weight


def step_residuals(grid, pot, data, u):
    """True relative D-norm residual of every Crank-Nicolson step of the
    solved bounded field u, with -Lap_h assembled as a sparse Kronecker sum
    in the unscaled variables and applied afresh to each level."""
    dt, dx1, dx2 = grid.dt, grid.dx1, grid.dx2
    lap = negative_laplacian(grid)
    weight = cap_weight(grid)
    V = pot.potential_values()

    def step_matrix(k, x):
        """A_k x with A_k = 1/dt + (-Lap_h + V^k) / 2."""
        return x / dt + 0.5 * ((lap @ x.ravel()).reshape(x.shape) + V[k][:, 1:-1] * x)

    def lift(k):
        c = np.zeros((grid.n1 + 2, grid.n2))
        c[:, 0] += u[k][:, 0] / dx2**2
        c[:, -1] += u[k][:, -1] / dx2**2
        c[0] += 2.0 * data.cap_minus[k][1:-1] / dx1
        c[-1] += 2.0 * data.cap_plus[k][1:-1] / dx1
        return c

    out = []
    for k in range(grid.nt):
        x, x_next = u[k][:, 1:-1], u[k + 1][:, 1:-1]
        rhs = 2.0 * x / dt - step_matrix(k, x) + 0.5 * (lift(k) + lift(k + 1))
        r = rhs - step_matrix(k + 1, x_next)
        out.append(np.sqrt(np.sum(weight * r * r) / np.sum(weight * rhs * rhs)))
    return np.array(out)


def counted_applications(monkeypatch):
    """A list that receives the member count of every preconditioner
    application of the solves that follow."""
    applied = []
    separable_inverse = forward._separable_inverse

    def counting(grid):
        scale, inverse = separable_inverse(grid)

        def counted(r, reciprocal):
            applied.append(len(r))
            return inverse(r, reciprocal)

        return scale, counted

    monkeypatch.setattr(forward, "_separable_inverse", counting)
    return applied


def handed_over(monkeypatch):
    """A list that receives the set of members of every hand-over from
    Richardson to CG in the solves that follow."""
    handed = []
    conjugate_gradients = forward._conjugate_gradients

    def recording(inverse, result, s, iterations, step):
        handed.append(set(s.members.tolist()))
        return conjugate_gradients(inverse, result, s, iterations, step)

    monkeypatch.setattr(forward, "_conjugate_gradients", recording)
    return handed


def preset_stack(grid, amplitude):
    """The four potentials the perturbation sweep marches: the preset at
    ``amplitude`` and its three shipped theta perturbations."""
    q, dq, f = q_preset(grid, amplitude), dq_preset(grid), axial_factor(grid, 0.5)
    return [PotentialSpec(grid, q + theta * dq, f) for theta in (0.0, 0.1, 0.05, 0.025)]


class TestStackedMarch:
    def test_member_fields_do_not_depend_on_the_stack(self, monkeypatch):
        # each member's field is the same, bit for bit, alone and in a
        # stack of five whose members converge at different iterations; the
        # strong fifth one hands over to CG, after one to five Richardson
        # applications, and the other four converge in Richardson
        handed = handed_over(monkeypatch)
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0), 24, 20, 16)
        pots = stack_members(g) + [PotentialSpec(g, q_preset(g, 40.0), axial_factor(g, 0.5))]
        data = positive_preset_data(pots[0])
        stacked = solve_heat(g, pots, data)
        assert len(stacked) == 5
        assert handed and set().union(*handed) == {4}
        for pot, field in zip(pots, stacked):
            [alone] = solve_heat(g, [pot], data)
            assert field.values.tobytes() == alone.values.tobytes()

    @pytest.mark.parametrize("n, nt", [(32, 64), (64, 128)])
    def test_every_step_meets_the_tolerance(self, domain, n, nt):
        # the loop updates A p by recurrence; the stencil re-applied to the
        # solved levels must still find each step converged
        g = build_grid(domain, n, n, nt)
        pots = stack_members(g)[:2]
        data = positive_preset_data(pots[0])
        for pot, u in zip(pots, solve_heat(g, pots, data)):
            assert np.max(step_residuals(g, pot, data, u.values)) <= 2.0 * forward.CG_TOLERANCE

    def test_march_applies_the_stencil_once_per_step(self, domain, monkeypatch):
        # the iteration updates A p by recurrence: the march's only stencil
        # is the one matvec per level, and the solve holds no stencil at all
        calls = []
        pcg_solver = forward._pcg_solver

        def counting(grid):
            matvec, solve = pcg_solver(grid)
            assert "matvec" not in solve.__code__.co_freevars

            def counted(diag, p, out=None):
                calls.append(len(p))
                return matvec(diag, p, out)

            return counted, solve

        monkeypatch.setattr(forward, "_pcg_solver", counting)
        g = build_grid(domain, 16, 16, 32)
        pots = stack_members(g)
        solve_heat(g, pots, positive_preset_data(pots[0]))
        assert calls == [len(pots)] * g.nt

    def test_stack_members_take_the_measured_applications(self, domain, monkeypatch):
        # the four stack members at 32x32x64 took 1019 preconditioner
        # applications (3.98 per member and step) under CG alone and 1090
        # (4.26) under Richardson from the previous level; from the
        # extrapolated start they take 774 (3.02), and since every
        # application shrinks their residuals at least 130-fold, none hands over
        applied, handed = counted_applications(monkeypatch), handed_over(monkeypatch)
        g = build_grid(domain, 32, 32, 64)
        pots = stack_members(g)
        solve_heat(g, pots, positive_preset_data(pots[0]))
        assert sum(applied) <= 812
        assert handed == []

    def test_high_contrast_stack_hands_over_to_cg(self, domain, monkeypatch):
        # at amplitude 400 one Richardson application shrinks the residual
        # less than 20-fold on most steps: every member hands over; the stack takes
        # 3376 applications (13.19 per member and step) from the extrapolated
        # start, against 4240 (16.56) from the previous level, 4136 (16.16)
        # under CG alone and 8827 (34.48) under Richardson alone; the
        # stencil re-applied to the solved levels finds each step converged
        applied, handed = counted_applications(monkeypatch), handed_over(monkeypatch)
        g = build_grid(domain, 32, 32, 64)
        pots = preset_stack(g, 400.0)
        data = positive_preset_data(pots[0])
        fields = solve_heat(g, pots, data)
        assert sum(applied) <= 3544
        assert set().union(*handed) == {0, 1, 2, 3}
        for pot, u in zip(pots, fields):
            assert np.max(step_residuals(g, pot, data, u.values)) <= 2.0 * forward.CG_TOLERANCE

    @pytest.mark.parametrize("n, nt", [(32, 64), (64, 128)])
    def test_shipped_preset_hands_over_no_member(self, domain, monkeypatch, n, nt):
        handed = handed_over(monkeypatch)
        g = build_grid(domain, n, n, nt)
        pots = preset_stack(g, 0.4)
        solve_heat(g, pots, positive_preset_data(pots[0]))
        assert handed == []

    def test_solve_leaves_its_inputs_untouched(self, monkeypatch):
        # the march writes into buffers and views of its own: a stacked solve
        # with a member that hands over to CG changes no byte of any
        # potential's samples or of the data set, caps included
        handed = handed_over(monkeypatch)
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0), 24, 20, 16)
        pots = stack_members(g) + [PotentialSpec(g, q_preset(g, 40.0), axial_factor(g, 0.5))]
        rng = np.random.default_rng(5)
        preset = positive_preset_data(pots[0])
        data = BoundaryData(g, preset.u0, preset.b_bottom, preset.b_top,
                            *rng.standard_normal((2, g.nt + 1, g.n2 + 2)))
        inputs = [a for pot in pots for a in (pot.q, pot.f)] + [
            data.u0, data.b_bottom, data.b_top, data.cap_minus, data.cap_plus]
        before = [a.tobytes() for a in inputs]
        solve_heat(g, pots, data)
        assert set().union(*handed) == {4}
        assert [a.tobytes() for a in inputs] == before

    def test_potentials_must_share_the_grid(self, grid, domain):
        other = build_grid(domain, 8, 8, 16)
        pots = [zero_potential(grid), zero_potential(other)]
        with pytest.raises(ValueError, match="share one grid"):
            solve_heat(grid, pots, constant_data(grid))
        with pytest.raises(ValueError, match="at least one potential"):
            solve_heat(grid, [], constant_data(grid))


def rough_data(grid, seed=0):
    """Data rough in time: standard normal samples of u0, the wall traces and the caps."""
    rng = np.random.default_rng(seed)
    return BoundaryData(grid, rng.standard_normal((grid.n1 + 2, grid.n2 + 2)),
                        *rng.standard_normal((2, grid.nt + 1, grid.n1 + 2)),
                        *rng.standard_normal((2, grid.nt + 1, grid.n2 + 2)))


class TestExtrapolatedStart:
    # Each step starts a member from the polynomial through its last six
    # levels.  A slip in the weights moves no field beyond round-off (the
    # solve hides it): only the application counts and the weights' own
    # test show it.

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, forward.EXTRAPOLATED_LEVELS),
           coeffs=st.lists(st.floats(-1.0, 1.0), min_size=forward.EXTRAPOLATED_LEVELS,
                           max_size=forward.EXTRAPOLATED_LEVELS),
           t0=st.floats(-3.0, 3.0), h=st.floats(0.01, 1.0))
    @example(m=6, coeffs=[1.0] * 6, t0=0.0, h=1.0)
    @example(m=4, coeffs=[2.225073858507203e-309, 0, 0, 0, 0, 0], t0=0.0, h=0.03125)
    def test_weights_continue_every_polynomial_of_lower_degree(self, m, coeffs, t0, h):
        weights = forward._EXTRAPOLATION_WEIGHTS[m - 1]
        assert not weights[m:].any()
        weights = weights[:m].tolist()
        assert sum(weights) == 1
        c = coeffs[:m]  # degree < m
        newest_first = [np.polyval(c, t0 + (m - 1 - j) * h) for j in range(m)]
        got = sum(w * value for w, value in zip(weights, newest_first))
        size = max(np.polyval(np.abs(c), abs(t0) + i * h) for i in range(m + 1))
        # a subnormal product rounds to a multiple of the smallest subnormal,
        # so each weighted value may be off by one such spacing whatever the
        # relative bound (2.5e-323 on the subnormal example above)
        w_sum = sum(map(abs, weights))
        bound = 1e-13 * w_sum * size + w_sum * math.ulp(0.0)
        assert abs(got - np.polyval(c, t0 + m * h)) <= bound

    def test_shipped_preset_stack_takes_under_two_applications(self, domain, monkeypatch):
        # 811 applications (1.58 per member and step) at 64x64x128, against
        # 1870 (3.65) started from the previous level
        applied = counted_applications(monkeypatch)
        g = build_grid(domain, 64, 64, 128)
        pots = preset_stack(g, 0.4)
        solve_heat(g, pots, positive_preset_data(pots[0]))
        assert sum(applied) <= 2.0 * len(pots) * g.nt

    @pytest.mark.parametrize("rough", [False, True], ids=["preset", "rough"])
    def test_fields_scale_with_the_data_bit_for_bit(self, domain, rough):
        # the march is linear in the data, and a power of two scales every
        # start, residual and bound exactly: a test of a residual against an
        # absolute threshold would break this
        g = build_grid(domain, 16, 16, 32)
        pots = preset_stack(g, 0.4)
        data = rough_data(g) if rough else positive_preset_data(pots[0])
        names = ("u0", "b_bottom", "b_top", "cap_minus", "cap_plus")
        fields = solve_heat(g, pots, data)
        for c in (2.0**-20, 2.0**30):
            scaled = BoundaryData(g, *(c * getattr(data, name) for name in names))
            for u, v in zip(fields, solve_heat(g, pots, scaled)):
                assert (c * u.values).tobytes() == v.values.tobytes()


def slice_matvec(grid, diag, p):
    """S (diag - Lap_h / 2) S^-1 p, with S = D^(1/2), written with offset
    slices along each axis: the reference for the solver's matvec."""
    c1, c2, cap = 0.5 / grid.dx1**2, 0.5 / grid.dx2**2, np.sqrt(2.0)
    out = diag * p
    c1p, c2p = c1 * p, c2 * p
    out[..., 1:] -= c2p[..., :-1]
    out[..., :-1] -= c2p[..., 1:]
    out[..., [0, -1], :] -= cap * c1p[..., [1, -2], :]
    c1p[..., [0, -1], :] *= cap
    out[..., 1:-1, :] -= c1p[..., :-2, :]
    out[..., 1:-1, :] -= c1p[..., 2:, :]
    return out


def signed_zeros(rng, a, share=0.2):
    """``a`` with about ``share`` of its entries set to +0.0 and as many to -0.0."""
    a[rng.random(a.shape) < share] = 0.0
    a[rng.random(a.shape) < share] = -0.0
    return a


class TestKernels:
    @settings(max_examples=60, deadline=None)
    @given(n1=st.integers(4, 64), n2=st.integers(4, 64), stack=st.sampled_from([(), (1,), (5,)]),
           into=st.booleans(), fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n1=4, n2=4, stack=(5,), into=True, fortran=False, seed=1)
    @example(n1=64, n2=64, stack=(5,), into=True, fortran=False, seed=2)
    def test_matvec_matches_the_slice_reference(self, n1, n2, stack, into, fortran, seed):
        # byte for byte, signed zeros included, on one block or a stack, into
        # a given buffer or a new one, from operands in either memory order;
        # p is left as it was
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0), n1, n2, 4)
        rng = np.random.default_rng(seed)
        shape = stack + (n1 + 2, n2)
        diag = signed_zeros(rng, rng.uniform(0.5, 100.0, shape), 0.1)
        p = signed_zeros(rng, rng.standard_normal(shape))
        if fortran:
            diag, p = np.asfortranarray(diag), np.asfortranarray(p)
        p_bytes = p.tobytes()
        matvec, _ = forward._pcg_solver(g)
        out = np.full(shape, np.nan) if into else None
        got = matvec(diag, p, out)
        assert got.tobytes() == slice_matvec(g, diag, p).tobytes()
        assert p.tobytes() == p_bytes
        assert out is None or got is out

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), members=st.integers(1, 4), levels=st.integers(1, 4),
           P=st.integers(6, 12), Q=st.integers(4, 12),
           shift=st.floats(1.0, 1e6), scale=st.sampled_from([1.0, 1e6, 1e308]))
    def test_diagonal_extremes_are_the_diagonals_own(self, data, members, levels, P, Q, shift,
                                                     scale):
        # min and max of every level's diagonal fl(fl(h f) + shift), read off
        # the four corners of the extremes of h and f, bit for bit, and of its
        # products fl(h f) up to the sign of a zero (which of two tied zeros
        # is the min depends on their order); h takes negative, zero and -0.0
        # entries, f > 0, and at scale 1e308 the products overflow
        q = data.draw(arrays(np.float64, (members, levels, 1, Q),
                             elements=st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0])))
        f = data.draw(arrays(np.float64, (members, P, 1),
                             elements=st.floats(0.0, 1e3, exclude_min=True)))
        half_q = 0.5 * (scale * q)
        with np.errstate(over="ignore"):
            corners = forward._potential_extremes(half_q, f)
            products = half_q * f[:, None]
            diag = products + shift
            assert corners.shape == (members, levels, 2, 2)
            for ext in (np.min, np.max):
                np.testing.assert_array_equal(ext(corners, axis=(2, 3)),
                                              ext(products, axis=(2, 3)))
                got = ext(corners + shift, axis=(2, 3))
                assert got.tobytes() == ext(diag, axis=(2, 3)).tobytes()


class TestPreconditioner:
    @settings(max_examples=60, deadline=None)
    @given(
        n1=st.integers(4, 12),
        n2=st.integers(4, 12),
        c=st.floats(0.1, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inverts_constant_coefficient_step(self, n1, n2, c, seed):
        # the inverse works in the symmetrized variables S x, S = D^(1/2):
        # S^-1 inverse(S r) must solve c + (-Lap_h)/2, with -Lap_h assembled
        # here as a sparse Kronecker sum; this checks the DCT-I/DST-I
        # extensions, eigenvalues and the folded scaling directly
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0), n1, n2, 4)
        r = np.random.default_rng(seed).standard_normal((n1 + 2, n2))
        sym = np.sqrt(cap_weight(g))
        scale, inverse = forward._separable_inverse(g)
        x = inverse(sym * r, scale(c)) / sym
        got = c * x + 0.5 * (negative_laplacian(g) @ x.ravel()).reshape(x.shape)
        norm = c + 2.0 / g.dx1**2 + 2.0 / g.dx2**2
        tol = 64.0 * np.finfo(float).eps * norm * np.max(np.abs(x))
        np.testing.assert_allclose(got, r, rtol=0, atol=tol)

    @settings(max_examples=60, deadline=None)
    @given(n1=st.integers(4, 12), n2=st.integers(4, 12), seed=st.integers(0, 2**32 - 1))
    def test_symmetrized_step_and_preconditioner(self, n1, n2, seed):
        # in the variables S x the step operator and the preconditioner are
        # symmetric, so CG may run in the plain inner product, and the
        # preconditioner inverts the step with the diagonal's mean.  Bounds
        # fixed from the sizes: an inner product of N terms errs by at most
        # (N + 6) eps |x| |y| times the operator's norm (five products per
        # row of the stencil), and each of the four transform products by at
        # most 2 n^1.5 eps relative, n <= P + Q
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0), n1, n2, 4)
        rng = np.random.default_rng(seed)
        shape = (1, n1 + 2, n2)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        c1, c2 = 0.5 / g.dx1**2, 0.5 / g.dx2**2
        diag = 2.0 * (c1 + c2) + rng.uniform(0.1, 100.0, shape)
        c = diag.mean() - 2.0 * (c1 + c2)
        matvec, _ = forward._pcg_solver(g)
        scale, inverse = forward._separable_inverse(g)
        eps, N, n = np.finfo(float).eps, x.size, n1 + 2 + n2
        size = np.linalg.norm(x) * np.linalg.norm(y)

        def asymmetry(op):
            return abs(np.sum(x * op(y)) - np.sum(op(x) * y))

        norm = np.max(diag) + 3.0 * c1 + 2.0 * c2
        assert asymmetry(lambda v: matvec(diag, v)) <= 2.0 * (N + 6) * eps * norm * size
        reciprocal = scale(c)
        assert asymmetry(lambda v: inverse(v, reciprocal)) <= (
            2.0 * (8.0 * n**1.5 + N) * eps * size / c)
        z = inverse(x, reciprocal)
        got = matvec(np.full(shape, diag.mean()), z)
        tol = 64.0 * eps * (c + 2.0 / g.dx1**2 + 2.0 / g.dx2**2) * np.max(np.abs(z))
        np.testing.assert_allclose(got, x, rtol=0, atol=tol)

    @pytest.mark.parametrize("n1, n2, nt", [(16, 16, 32), (24, 12, 16)])
    def test_exact_preconditioner_takes_one_application_per_step(self, n1, n2, nt, monkeypatch):
        # a potential constant in space at every level makes the
        # preconditioner the step matrix itself: one application solves
        # each member's step, and the converged residual gets no other
        applied = counted_applications(monkeypatch)
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0), n1, n2, nt)
        oracle = SeparableOracle(g)
        oracle.solve()
        assert sum(applied) == g.nt
        applied.clear()
        pot = oracle.potential()
        pots = [pot, PotentialSpec(g, 3.0 * pot.q + 1.0, pot.f)]
        solve_heat(g, pots, oracle.data())
        assert sum(applied) == len(pots) * g.nt


def rfft_transform(x, neumann):
    """Unnormalised DCT-I (``neumann``) or DST-I along axis 0 of x, read off
    numpy's rfft of the even or odd extension: the reference route for the
    solver's dense transform matrices (the DST-I comes out negated)."""
    n = x.shape[0]
    if neumann:
        return np.fft.rfft(np.concatenate([x, x[-2:0:-1]]), axis=0).real
    zero = np.zeros((1,) + x.shape[1:])
    ext = np.concatenate([zero, x, zero, -x[::-1]])
    return np.fft.rfft(ext, axis=0).imag[1:n + 1]


class TestTransformMatrix:
    @settings(max_examples=60, deadline=None)
    @given(neumann=st.booleans(), n=st.integers(2, 257), seed=st.integers(0, 2**32 - 1))
    def test_matches_fft_extension_and_squares_to_m(self, neumann, n, seed):
        # tolerances fixed from n eps: a length-n sum errs by at most about
        # n eps times the sum of its absolute terms, here |M_kj x_j| <= 2|x_j|
        # for M @ x and |M_ij M_jk| <= 4 for M @ M; the DCT-I is the cosine
        # matrix with its end columns halved
        eps = np.finfo(float).eps
        M = forward._transform_matrix(n, neumann)
        if neumann:
            M[:, [0, -1]] *= 0.5
        m = forward._spectrum(n, 1.0, neumann)[1]
        x = np.random.default_rng(seed).standard_normal((n, 3))
        sign = 1.0 if neumann else -1.0
        tol = 4.0 * n * eps * np.sum(np.abs(x), axis=0)
        assert np.all(np.abs(M @ x - sign * rfft_transform(x, neumann)) <= tol)
        np.testing.assert_allclose(M @ M, m * np.eye(n), rtol=0, atol=4.0 * n * n * eps)


def second_difference(n, d, doubled_ends=False):
    """Sparse 1-D -d^2/dx^2 on n unknowns; ``doubled_ends`` couples each
    end row twice to its one neighbour (ghost-value Neumann rows)."""
    main = np.full(n, 2.0)
    upper = np.full(n - 1, -1.0)
    lower = np.full(n - 1, -1.0)
    if doubled_ends:
        upper[0] = lower[-1] = -2.0
    return sp.diags([lower, main, upper], [-1, 0, 1], format="csr") / d**2


def negative_laplacian(grid):
    """-Lap_h on the unknown block as a sparse Kronecker sum, acting on the
    row-major ravel of a (P, Q) block: ghost-value caps along x1, Dirichlet
    rows eliminated along x2; unscaled, as the scheme states it."""
    return sp.kronsum(second_difference(grid.n2, grid.dx2),
                      second_difference(grid.n1 + 2, grid.dx1, doubled_ends=True), format="csc")


def reference_solve(grid, pot, data):
    """Crank-Nicolson with -Lap_h assembled as a sparse Kronecker sum and
    every step solved by spsolve: an independent route to solve_heat."""
    P = grid.n1 + 2
    A = negative_laplacian(grid)
    eye = sp.identity(P * grid.n2, format="csc")
    V = pot.potential_values()[:, :, 1:-1].reshape(grid.nt + 1, -1)

    def known(k):
        # data terms of -Lap_h moved to the right-hand side at level k
        c = np.zeros((P, grid.n2))
        c[:, 0] += data.b_bottom[k] / grid.dx2**2
        c[:, -1] += data.b_top[k] / grid.dx2**2
        c[0] += 2.0 * data.cap_minus[k][1:-1] / grid.dx1
        c[-1] += 2.0 * data.cap_plus[k][1:-1] / grid.dx1
        return c.ravel()

    u = np.empty(grid.shape)
    u[0] = data.u0
    for k in range(grid.nt):
        x = u[k][:, 1:-1].ravel()
        lhs = eye / grid.dt + 0.5 * (A + sp.diags(V[k + 1]))
        rhs = (eye / grid.dt - 0.5 * (A + sp.diags(V[k]))) @ x + 0.5 * (known(k) + known(k + 1))
        u[k + 1, :, 0] = data.b_bottom[k + 1]
        u[k + 1, :, -1] = data.b_top[k + 1]
        u[k + 1][:, 1:-1] = spsolve(lhs.tocsc(), rhs).reshape(P, grid.n2)
    return u


class TestAgainstSparseReference:
    @pytest.mark.parametrize("n1, n2", [
        (9, 7),    # nonzero Neumann cap data
        (4, 11),   # tall: n2 > n1 + 2
        (7, 9),    # square transform blocks: n1 + 2 == n2
        (12, 4),   # wide: n1 + 2 > 3 n2
    ])
    def test_matches_kronecker_sum_stepper(self, n1, n2, rng):
        d = WaveguideDomain(L=1.0, h=1.3, T=2.0)
        g = build_grid(d, n1, n2, 10)
        pot = PotentialSpec(g, rng.uniform(-0.5, 1.0, (g.nt + 1, g.n2 + 2)),
                            rng.uniform(0.2, 2.0, g.n1 + 2))
        cap = (g.nt + 1, g.n2 + 2)
        cap_minus, cap_plus = rng.standard_normal(cap), rng.standard_normal(cap)
        wall = (g.nt + 1, g.n1 + 2)
        data = BoundaryData(g, rng.standard_normal((g.n1 + 2, g.n2 + 2)),
                            rng.standard_normal(wall), rng.standard_normal(wall),
                            cap_minus=cap_minus, cap_plus=cap_plus)
        # u0 carries the level-0 Dirichlet traces, as consistent data does
        data.u0[:, 0], data.u0[:, -1] = data.b_bottom[0], data.b_top[0]
        got = solve_heat(g, [pot], data)[0].values
        ref = reference_solve(g, pot, data)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_potential_that_only_the_laplacian_keeps_definite(self):
        # 1/dt + min V / 2 <= 0 < 1/dt + (lambda_min + min V) / 2: the step
        # matrix is positive definite through -Lap_h's lowest eigenvalue alone
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0), 9, 7, 10)
        weight = cap_weight(g).ravel().repeat(g.n2)  # -Lap_h is D-symmetric
        sym = np.sqrt(weight)
        lap = negative_laplacian(g).toarray() * sym[:, None] / sym[None, :]
        lam_min = float(np.linalg.eigvalsh(0.5 * (lap + lap.T))[0])
        q = -2.0 / g.dt - 0.5 * lam_min
        assert 1.0 / g.dt + q / 2.0 <= 0.0 < 1.0 / g.dt + (lam_min + q) / 2.0
        pot = PotentialSpec(g, np.full((g.nt + 1, g.n2 + 2), q), np.ones(g.n1 + 2))
        data = constant_data(g)
        data.cap_minus[:] = 0.3
        got = solve_heat(g, [pot], data)[0].values
        ref = reference_solve(g, pot, data)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestManufacturePair:
    def test_identical_potentials_give_identical_solves(self, grid):
        q = q_preset(grid)
        pair = manufacture_pair(grid, q, q.copy(), axial_factor(grid))
        np.testing.assert_array_equal(pair.u.values, pair.u_tilde.values)
        assert compatibility_residual(pair.data, pair.pot) == 0.0
        assert compatibility_residual(pair.data, pair.pot_tilde) == 0.0

    def test_first_order_response_in_theta(self, domain):
        grid = build_grid(domain, 16, 16, 32)
        q = q_preset(grid)
        dq = dq_preset(grid)
        f = axial_factor(grid)
        thetas = [0.2, 0.1, 0.05]
        diffs = []
        for th in thetas:
            pair = manufacture_pair(grid, q, q + th * dq, f)
            diffs.append(np.max(np.abs(pair.u.values - pair.u_tilde.values)))
        slope = fit_convergence_order(thetas, diffs)
        assert abs(slope - 1.0) <= 0.1


class TestMeasurement:
    def test_constant_field_measures_zero(self, grid):
        u = grid.sample(lambda t, x1, x2: 2.5 + 0 * t * x1 * x2)
        m = measurement(u)
        assert np.max(np.abs(m)) == 0.0

    def test_bilinear_field_measures_one(self, grid):
        u = grid.sample(lambda t, x1, x2: x1 * x2 + 0 * t)
        m = measurement(u)
        assert m.shape == (grid.nt + 1, grid.n1 + 2)
        np.testing.assert_allclose(m, 1.0, atol=1e-12)

    @pytest.mark.parametrize("obs_side", ["top", "bottom"])
    def test_equals_the_full_gradient_route(self, obs_side, rng):
        # only three wall columns are differentiated; the values must be
        # those of the full two-axis gradient, bit for bit
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0, obs_side=obs_side), 20, 16, 8)
        u = ScalarField(g, rng.standard_normal(g.shape), FULL)
        m = measurement(u)
        ref = normal_derivative(gradient(u)[0])
        assert m.tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        obs_side=st.sampled_from(["top", "bottom"]),
        sizes=st.tuples(st.integers(4, 12), st.integers(4, 12), st.integers(4, 8)),
        extents=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_full_gradient_route_on_any_grid(self, obs_side, sizes, extents, seed):
        L, h, T = extents
        g = build_grid(WaveguideDomain(L=L, h=h, T=T, obs_side=obs_side), *sizes)
        u = ScalarField(g, np.random.default_rng(seed).standard_normal(g.shape), FULL)
        ref = normal_derivative(gradient(u)[0])
        assert measurement(u).tobytes() == ref.tobytes()

    def test_oracle_measurement_matches_analytic(self, domain):
        g = build_grid(domain, 32, 32, 64)
        oracle = SeparableOracle(g)
        u = oracle.solve()
        m = measurement(u)
        L, h = domain.L, domain.h
        factor = -(np.pi / (2 * L)) * np.sin(np.pi * (g.x1 + L) / (2 * L))
        wall = (np.pi / h) * np.cos(np.pi)  # d/dx2 of sin(pi x2/h) at x2 = h
        analytic = (
            np.exp(-oracle.q_primitive(g.t)[:, None] - oracle.mu * g.t[:, None])
            * factor[None, :]
            * wall
        )
        tol = 10.0 * max(g.dx1, g.dx2) ** 2
        assert np.max(np.abs(m - analytic)) <= tol


class TestThreadIndependence:
    # The preconditioner applies its transforms as GEMMs (M1 @ r @ M2).
    # OpenBLAS splits a GEMM over output rows and columns, never over the
    # summed index, so each entry is summed in one order at any thread
    # count.  A BLAS dot product is split over its length; any BLAS inner
    # product inside the iteration would show in these solves.

    def solve_bytes(self, tmp_path, n1, n2, members=1):
        """Bytes of a 4-step positive-preset march of ``members`` potentials
        (q_preset scaled by 1, 2, ...) at 1 and at 2 threads."""
        script = (
            "import sys\n"
            "from waveguide_carleman.grid import WaveguideDomain, build_grid\n"
            "from waveguide_carleman.forward import PotentialSpec, positive_preset_data, solve_heat\n"
            "from waveguide_carleman.synth import axial_factor, q_preset\n"
            "d = WaveguideDomain(L=1.0, h=1.0, T=2.0)\n"
            f"g = build_grid(d, {n1}, {n2}, 4)\n"
            "pots = [PotentialSpec(g, (1 + b) * q_preset(g), axial_factor(g))\n"
            f"        for b in range({members})]\n"
            "us = solve_heat(g, pots, positive_preset_data(pots[0]))\n"
            "open(sys.argv[1], 'wb').write(b''.join(u.values.tobytes() for u in us))\n"
        )
        paths = []
        for threads in ("1", "2"):
            path = tmp_path / f"u{threads}.bin"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script, str(path)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            paths.append(path)
        return paths[0].read_bytes(), paths[1].read_bytes()

    def test_large_step_does_not_depend_on_blas_threads(self, tmp_path):
        # 162 x 128 = 20,736 unknowns per step: at this length a BLAS dot
        # product gives different bits at 1 and at 2 threads
        first, second = self.solve_bytes(tmp_path, 160, 128)
        assert len(first) == 5 * 162 * 130 * 8
        assert first == second

    def test_wide_section_step_does_not_depend_on_blas_threads(self, tmp_path):
        # 96 x 256 = 24,576 unknowns per step, with the long axis in the
        # right-hand GEMM instead of the left-hand one
        first, second = self.solve_bytes(tmp_path, 94, 256)
        assert len(first) == 5 * 96 * 258 * 8
        assert first == second

    def test_stacked_march_does_not_depend_on_blas_threads(self, tmp_path):
        # four members in one march: the per-member GEMMs and inner
        # products must give the same bits at 1 and at 2 threads
        first, second = self.solve_bytes(tmp_path, 160, 128, members=4)
        assert len(first) == 4 * 5 * 162 * 130 * 8
        assert first == second
