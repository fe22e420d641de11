import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from waveguide_carleman import (WaveguideDomain, build_grid, forward, manufacture_pair, measurement,
                                perturbation_sweep, solve_heat)
from waveguide_carleman.forward import (
    BoundaryData,
    PotentialSpec,
    SeparableOracle,
    SolverBreakdownError,
    compatibility_residual,
    positive_preset_data,
)
from waveguide_carleman.grid import FULL, ScalarField, fit_convergence_order, gradient, normal_derivative
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
        data = positive_preset_data(grid, pot)
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
        data = positive_preset_data(grid, pot)
        assert min(np.min(data.u0), np.min(data.b_bottom), np.min(data.b_top)) > 0.0
        assert compatibility_residual(data, pot) == 0.0

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
        d1 = positive_preset_data(grid, pot)
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
        [u] = solve_heat(grid, [pot], positive_preset_data(grid, pot))
        assert np.min(u.values) > 0.0

    def test_indefinite_step_matrix_rejected(self, domain):
        # conjugate gradients need a positive definite step matrix; with
        # this potential they would stop at a field far from the exact step
        grid = build_grid(domain, 32, 32, 64)
        pot = PotentialSpec(grid, q_preset(grid, -100.0), axial_factor(grid))
        with pytest.raises(ValueError, match=r"time step 0\.03125 with min V -224\."):
            solve_heat(grid, [pot], positive_preset_data(grid, pot))
        # in a stack, the message names the indefinite member
        good = PotentialSpec(grid, q_preset(grid), axial_factor(grid))
        with pytest.raises(ValueError, match="member 1 is not positive definite"):
            solve_heat(grid, [good, pot], positive_preset_data(grid, good))

    def test_iteration_cap_names_the_step(self, grid, monkeypatch):
        monkeypatch.setattr(forward, "CG_MAX_ITERATIONS", 0)
        pot = PotentialSpec(grid, q_preset(grid), axial_factor(grid))
        with pytest.raises(SolverBreakdownError,
                           match="step 1: no convergence in 0 iterations") as info:
            solve_heat(grid, [pot], positive_preset_data(grid, pot))
        assert "member 0, step 1" in str(info.value)


def stack_members(grid):
    """Four potentials on one grid: the preset, a stronger and a negative
    one, and a random one with its own axial factor."""
    rng = np.random.default_rng(7)
    q, f = q_preset(grid, 0.4), axial_factor(grid, 0.5)
    return [PotentialSpec(grid, q, f), PotentialSpec(grid, q + 0.3 * dq_preset(grid), f),
            PotentialSpec(grid, -0.5 * q, f),
            PotentialSpec(grid, rng.uniform(-0.5, 1.0, q.shape), rng.uniform(0.2, 2.0, f.shape))]


def step_residuals(grid, pot, data, u):
    """True relative D-norm residual of every Crank-Nicolson step of the
    solved bounded field u, with the stencil applied afresh to each level."""
    matvec, _ = forward._pcg_solver(grid)
    dt, dx1, dx2 = grid.dt, grid.dx1, grid.dx2
    weight = np.ones((grid.n1 + 2, 1))
    weight[[0, -1]] = 0.5
    V = pot.potential_values()

    def level(k):
        diag = 1.0 / dt + 0.5 * (2.0 / dx1**2 + 2.0 / dx2**2 + V[k][:, 1:-1])
        lift = np.zeros_like(diag)
        lift[:, 0] += u[k][:, 0] / dx2**2
        lift[:, -1] += u[k][:, -1] / dx2**2
        lift[0] += 2.0 * data.cap_minus[k][1:-1] / dx1
        lift[-1] += 2.0 * data.cap_plus[k][1:-1] / dx1
        return diag, lift

    out = []
    for k in range(grid.nt):
        (diag, lift), (diag_next, lift_next) = level(k), level(k + 1)
        x, x_next = u[k][:, 1:-1], u[k + 1][:, 1:-1]
        rhs = 2.0 * x / dt - matvec(diag, x) + 0.5 * (lift + lift_next)
        r = rhs - matvec(diag_next, x_next)
        out.append(np.sqrt(np.sum(weight * r * r) / np.sum(weight * rhs * rhs)))
    return np.array(out)


class TestStackedMarch:
    def test_member_fields_do_not_depend_on_the_stack(self):
        # each member's field is the same, bit for bit, alone and in a
        # stack of four whose members converge at different iterations
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0), 24, 20, 16)
        pots = stack_members(g)
        data = positive_preset_data(g, pots[0])
        stacked = solve_heat(g, pots, data)
        assert len(stacked) == 4
        for pot, field in zip(pots, stacked):
            [alone] = solve_heat(g, [pot], data)
            assert field.values.tobytes() == alone.values.tobytes()

    @pytest.mark.parametrize("n, nt", [(32, 64), (64, 128)])
    def test_every_step_meets_the_tolerance(self, domain, n, nt):
        # the loop updates A p by recurrence; the stencil re-applied to the
        # solved levels must still find each step converged
        g = build_grid(domain, n, n, nt)
        pots = stack_members(g)[:2]
        data = positive_preset_data(g, pots[0])
        for pot, u in zip(pots, solve_heat(g, pots, data)):
            assert np.max(step_residuals(g, pot, data, u.values)) <= 2.0 * forward.CG_TOLERANCE

    def test_potentials_must_share_the_grid(self, grid, domain):
        other = build_grid(domain, 8, 8, 16)
        pots = [zero_potential(grid), zero_potential(other)]
        with pytest.raises(ValueError, match="share one grid"):
            solve_heat(grid, pots, constant_data(grid))
        with pytest.raises(ValueError, match="at least one potential"):
            solve_heat(grid, [], constant_data(grid))


class TestPreconditioner:
    @settings(max_examples=60, deadline=None)
    @given(
        n1=st.integers(4, 12),
        n2=st.integers(4, 12),
        c=st.floats(0.1, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inverts_constant_coefficient_step(self, n1, n2, c, seed):
        # c + (-Lap_h)/2, applied through the solver's own matvec with its
        # diagonal c + 1/dx1^2 + 1/dx2^2, maps the transform solve of r back
        # to r: this checks the DCT-I/DST-I extensions and eigenvalues directly
        g = build_grid(WaveguideDomain(L=1.0, h=1.3, T=2.0), n1, n2, 4)
        r = np.random.default_rng(seed).standard_normal((n1 + 2, n2))
        x = forward._separable_inverse(g)(r, c)
        matvec, _ = forward._pcg_solver(g)
        got = matvec(np.full(r.shape, c + 1.0 / g.dx1**2 + 1.0 / g.dx2**2), x)
        norm = c + 2.0 / g.dx1**2 + 2.0 / g.dx2**2
        tol = 64.0 * np.finfo(float).eps * norm * np.max(np.abs(x))
        np.testing.assert_allclose(got, r, rtol=0, atol=tol)


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
        # for M @ x and |M_ij M_jk| <= 4 for M @ M
        eps = np.finfo(float).eps
        M = forward._transform_matrix(n, neumann)
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


def reference_solve(grid, pot, data):
    """Crank-Nicolson with -Lap_h assembled as a sparse Kronecker sum and
    every step solved by spsolve: an independent route to solve_heat."""
    P = grid.n1 + 2
    A = sp.kronsum(second_difference(grid.n2, grid.dx2),
                   second_difference(P, grid.dx1, doubled_ends=True), format="csc")
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
        ref = normal_derivative(gradient(u)[0], g.domain.obs_segment)
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
        ref = normal_derivative(gradient(u)[0], g.domain.obs_segment)
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
            "from waveguide_carleman import WaveguideDomain, build_grid, solve_heat\n"
            "from waveguide_carleman.forward import PotentialSpec, positive_preset_data\n"
            "from waveguide_carleman.synth import axial_factor, q_preset\n"
            "d = WaveguideDomain(L=1.0, h=1.0, T=2.0)\n"
            f"g = build_grid(d, {n1}, {n2}, 4)\n"
            "pots = [PotentialSpec(g, (1 + b) * q_preset(g), axial_factor(g))\n"
            f"        for b in range({members})]\n"
            "us = solve_heat(g, pots, positive_preset_data(g, pots[0]))\n"
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
