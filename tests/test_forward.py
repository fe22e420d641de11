import numpy as np
import pytest

from waveguide_carleman import WaveguideDomain, build_grid, manufacture_pair, measurement, solve_heat
from waveguide_carleman.forward import (
    BoundaryData,
    PotentialSpec,
    SeparableOracle,
    compatibility_residual,
    decaying_preset_data,
    positive_preset_data,
)
from waveguide_carleman.grid import fit_convergence_order, integrate_values
from waveguide_carleman.synth import axial_factor, dq_preset, q_preset


def constant_data(grid, value=1.0):
    shape_wall = (grid.nt + 1, grid.n1 + 2)
    shape_cap = (grid.nt + 1, grid.n2 + 2)
    return BoundaryData(
        grid,
        np.full((grid.n1 + 2, grid.n2 + 2), value),
        np.full(shape_wall, value),
        np.full(shape_wall, value),
        k_minus=np.zeros(shape_cap),
        k_plus=np.zeros(shape_cap),
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
        assert pot.c_min == pytest.approx(0.5)

    def test_axial_factor_must_be_positive(self, grid):
        f = np.ones(grid.n1 + 2)
        f[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            PotentialSpec(grid, np.zeros((grid.nt + 1, grid.n2 + 2)), f)

    def test_mode_specific_data_validation(self, grid, open_grid):
        with pytest.raises(ValueError, match="Neumann"):
            BoundaryData(
                grid,
                np.ones((grid.n1 + 2, grid.n2 + 2)),
                np.ones((grid.nt + 1, grid.n1 + 2)),
                np.ones((grid.nt + 1, grid.n1 + 2)),
            )
        with pytest.raises(ValueError, match="Dirichlet"):
            BoundaryData(
                open_grid,
                np.ones((open_grid.n1 + 2, open_grid.n2 + 2)),
                np.ones((open_grid.nt + 1, open_grid.n1 + 2)),
                np.ones((open_grid.nt + 1, open_grid.n1 + 2)),
            )

    def test_positive_preset_is_exactly_compatible(self, grid):
        # the preset potential vanishes at t=0, so the wall consistency
        # residual is identically zero
        pot = PotentialSpec(grid, q_preset(grid), axial_factor(grid))
        data = positive_preset_data(grid, pot)
        assert data.is_positive()
        assert compatibility_residual(data, pot) == 0.0


class TestSolveHeat:
    def test_constant_preservation(self, domain):
        # zero potential and constant data keep the exact constant state
        grid = build_grid(domain, 8, 8, 512)
        u = solve_heat(grid, zero_potential(grid), constant_data(grid, 3.0))
        assert np.max(np.abs(u.values - 3.0)) <= 1e-12 * 3.0

    def test_constant_preservation_truncated(self, open_domain):
        grid = build_grid(open_domain, 8, 8, 16)
        data = BoundaryData(
            grid,
            np.ones((grid.n1 + 2, grid.n2 + 2)),
            np.ones((grid.nt + 1, grid.n1 + 2)),
            np.ones((grid.nt + 1, grid.n1 + 2)),
            b_left=np.ones((grid.nt + 1, grid.n2 + 2)),
            b_right=np.ones((grid.nt + 1, grid.n2 + 2)),
        )
        u = solve_heat(grid, zero_potential(grid), data)
        assert np.max(np.abs(u.values - 1.0)) <= 1e-12

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
            k_minus=d1.k_minus + 0.1,
            k_plus=d1.k_plus.copy(),
        )
        d_sum = BoundaryData(
            grid,
            d1.u0 + d2.u0,
            d1.b_bottom + d2.b_bottom,
            d1.b_top + d2.b_top,
            k_minus=d1.k_minus + d2.k_minus,
            k_plus=d1.k_plus + d2.k_plus,
        )
        u1 = solve_heat(grid, pot, d1).values
        u2 = solve_heat(grid, pot, d2).values
        u12 = solve_heat(grid, pot, d_sum).values
        scale = np.max(np.abs(u12))
        assert np.max(np.abs(u12 - u1 - u2)) <= 1e-11 * scale

    def test_positivity_with_positive_preset(self, domain):
        grid = build_grid(domain, 24, 24, 48)
        pot = PotentialSpec(grid, q_preset(grid, 0.4), axial_factor(grid))
        u = solve_heat(grid, pot, positive_preset_data(grid, pot))
        assert np.min(u.values) > 0.0


class TestManufacturePair:
    def test_identical_potentials_give_identical_solves(self, grid):
        q = q_preset(grid)
        pair = manufacture_pair(grid, q, q.copy(), axial_factor(grid))
        np.testing.assert_array_equal(pair.u.values, pair.u_tilde.values)
        assert pair.compat_residual == 0.0
        assert pair.compat_residual_tilde == 0.0

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
        m = measurement(u, grid)
        assert np.max(np.abs(m.values)) == 0.0

    def test_bilinear_field_measures_one(self, grid):
        u = grid.sample(lambda t, x1, x2: x1 * x2 + 0 * t)
        m = measurement(u, grid)
        np.testing.assert_allclose(m.values, 1.0, atol=1e-12)

    def test_oracle_measurement_matches_analytic(self, domain):
        g = build_grid(domain, 32, 32, 64)
        oracle = SeparableOracle(g)
        u = oracle.solve()
        m = measurement(u, g).values
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


class TestDecayingPreset:
    def test_requires_truncated_grid(self, grid):
        pot = PotentialSpec(grid, q_preset(grid), axial_factor(grid))
        with pytest.raises(ValueError, match="truncated"):
            decaying_preset_data(grid, pot)

    def test_cap_mass_is_negligible_for_wide_truncation(self):
        # radius chosen so the spreading kernel's tail stays under 1e-8
        d = WaveguideDomain(L=10.0, h=1.0, T=1.0, truncated=True)
        g = build_grid(d, 48, 12, 16)
        pot = PotentialSpec(g, np.zeros((g.nt + 1, g.n2 + 2)), np.ones(g.n1 + 2))
        data = decaying_preset_data(g, pot)
        u = solve_heat(g, pot, data)
        caps = np.abs(u.values[:, [0, -1], :])
        assert np.max(caps) <= 1e-8 * np.max(np.abs(u.values))
        assert integrate_values(g, u.values**2, "Q") > 0.0

    def test_compatibility_residual_is_pure_stencil_error(self, open_domain):
        # walls are identically zero and the caps trace an exact solution,
        # so the residual shrinks under refinement (the cap trace starts
        # on a fast kernel time scale, hence the moderate constants)
        errs = []
        for n in (32, 64):
            gg = build_grid(open_domain, n, n, 2 * n)
            pp = PotentialSpec(gg, q_preset(gg), np.ones(gg.n1 + 2))
            errs.append(compatibility_residual(decaying_preset_data(gg, pp), pp))
        assert errs[1] < 0.5 * errs[0]
        assert errs[1] < 0.2
