import tracemalloc

import numpy as np
import pytest
import sympy as sp

from waveguide_carleman.forward import PotentialSpec, manufacture_pair
from waveguide_carleman.grid import (FULL, ScalarField, build_grid, derivative,
                                     fit_convergence_order, gradient, laplacian, time_derivative)
from waveguide_carleman.synth import axial_factor, dq_preset, q_preset
from waveguide_carleman.transform import (
    build_bundle,
    core_mask,
    ftc_representation_check,
    rhs_identity_check,
    z_residual,
    z_source,
)


def _pair(grid, theta=0.1):
    q = q_preset(grid)
    return manufacture_pair(grid, q, q + theta * dq_preset(grid), axial_factor(grid))


class TestBuildBundle:
    def test_identical_solutions_vanish(self, grid):
        pair = _pair(grid, theta=0.0)
        b = build_bundle(pair.u, pair.u_tilde, pair.pot)
        assert np.max(np.abs(pair.u.values - pair.u_tilde.values)) == 0.0
        assert np.max(np.abs(b.w.values)) == 0.0
        assert np.max(np.abs(b.z.values)) == 0.0
        for f in (b.A1, b.A2, b.a_coef, b.B1, b.B2, b.b_coef):
            assert np.all(np.isfinite(f.values))
        assert b.c1_floor > 0.0

    def test_unit_denominator_coefficients(self, grid):
        # f = 1 and u~ = 1: the drift vanishes and a reduces to the potential
        pot = PotentialSpec(grid, q_preset(grid), np.ones(grid.n1 + 2))
        ones = grid.sample(lambda t, x1, x2: 1.0 + 0 * t * x1 * x2)
        u = grid.sample(lambda t, x1, x2: 1.0 + 0.1 * np.sin(x1) * np.sin(np.pi * x2) * t)
        b = build_bundle(u, ones, pot)
        assert np.max(np.abs(b.A1.values)) == 0.0
        assert np.max(np.abs(b.A2.values)) == 0.0
        np.testing.assert_allclose(b.a_coef.values, pot.potential_values(), atol=1e-14)

    def test_retains_two_fields(self, domain):
        # only w and z are stored; the seven coefficient fields, which only
        # the source term and the identity checks read, are formed on access
        # (a 1.07 MiB field here; slack of a tenth of a field for the small
        # arrays).  Storing B2 and b as well reads 4.00
        g = build_grid(domain, 32, 32, 120)
        pot = PotentialSpec(g, q_preset(g), axial_factor(g))
        u_tilde = g.sample(lambda t, x1, x2: 1.0 + 0.2 * np.sin(x1 + t) * np.cos(x2))
        u = g.sample(lambda t, x1, x2: 1.0 + 0.1 * np.cos(x1 - t) * np.sin(x2))
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            b = build_bundle(u, u_tilde, pot)
            kept = tracemalloc.get_traced_memory()[0] - live
        finally:
            tracemalloc.stop()
        assert b.u_tilde is u_tilde and b.pot is pot
        fields = kept / (8 * np.prod(g.shape))
        assert fields <= 2.1, fields

    def test_nonpositive_denominator_rejected(self, grid):
        pot = PotentialSpec(grid, q_preset(grid), np.ones(grid.n1 + 2))
        ones = grid.sample(lambda t, x1, x2: 1.0 + 0 * t * x1 * x2)
        bad = grid.sample(lambda t, x1, x2: x2 + 0 * t * x1)  # zero on the bottom wall
        with pytest.raises(ValueError, match=r"not positive: min 0\.0 at \(time,x1,x2\) index "
                                             r"\(0, 0, 0\)$"):
            build_bundle(ones, bad, pot)

    def test_fields_on_another_grid_are_rejected(self, grid, domain):
        pair = _pair(grid)
        other = build_grid(domain, grid.n1, grid.n2, grid.nt)
        u_tilde = ScalarField(other, pair.u_tilde.values, FULL)
        with pytest.raises(ValueError, match="share one grid"):
            build_bundle(pair.u, u_tilde, pair.pot)

    def test_coefficients_match_symbolic_oracle(self, domain):
        # closed-form positive u~ and f, coefficients derived symbolically
        t_s, x1_s, x2_s = sp.symbols("t x1 x2")
        beta = sp.Rational(1, 2)
        f_s = 1 + beta * sp.cos(sp.pi * x1_s)
        u_s = sp.exp(
            -t_s / 2
            + sp.Rational(3, 10) * sp.sin(1 + x1_s) * (x2_s / 2) ** 2
            + x2_s / 5
        )
        m_s = f_s * u_s
        q_s = sp.Rational(2, 5) * (1 + sp.cos(sp.pi * x2_s)) * t_s * (2 - t_s) / 4
        V_s = q_s * f_s
        A1_s = -2 * sp.diff(m_s, x1_s) / m_s
        A2_s = -2 * sp.diff(m_s, x2_s) / m_s
        a_s = (sp.diff(m_s, t_s) - sp.diff(m_s, x1_s, 2) - sp.diff(m_s, x2_s, 2)) / m_s + V_s
        B1_s = -2 * sp.diff(sp.diff(m_s, x1_s) / m_s, x1_s)
        B2_s = 2 * sp.diff(sp.diff(m_s, x2_s) / m_s, x1_s)
        b_s = -sp.diff(a_s, x1_s)
        lam = {
            name: sp.lambdify((t_s, x1_s, x2_s), expr, "numpy")
            for name, expr in (
                ("A1", A1_s), ("A2", A2_s), ("a", a_s),
                ("B1", B1_s), ("B2", B2_s), ("b", b_s),
                ("u", u_s), ("q", q_s), ("f", f_s),
            )
        }

        errs = {name: [] for name in ("A1", "A2", "a", "B1", "B2", "b")}
        hs = []
        for n in (16, 32, 64):
            g = build_grid(domain, n, n, 2 * n)
            u_tilde = g.sample(lam["u"])
            q = np.asarray(lam["q"](g.t[:, None], 0.0, g.x2[None, :]))
            f = np.asarray(lam["f"](0.0, g.x1, 0.0))
            pot = PotentialSpec(g, q, f)
            b = build_bundle(u_tilde, u_tilde, pot)
            mask = core_mask(g)
            tt, xx1, xx2 = g.mesh()
            for name, field in (
                ("A1", b.A1), ("A2", b.A2), ("a", b.a_coef),
                ("B1", b.B1), ("B2", b.B2), ("b", b.b_coef),
            ):
                exact = np.broadcast_to(lam[name](tt, xx1, xx2), g.shape)
                errs[name].append(np.max(np.abs(np.where(mask, field.values - exact, 0.0))))
            hs.append(g.dx1)
        for name, seq in errs.items():
            assert fit_convergence_order(hs, seq) >= 1.8, (name, seq)
        # absolute agreement at the finest level
        for name in ("A1", "A2", "a"):
            assert errs[name][-1] <= 10.0 * hs[-1] ** 2


class TestPipelineIdentities:
    def test_zero_pair_residuals(self, grid):
        pair = _pair(grid, theta=0.0)
        b = build_bundle(pair.u, pair.u_tilde, pair.pot)
        res, norm = z_residual(b)
        assert np.max(np.abs(res.values)) == 0.0
        assert norm == 0.0
        rep = rhs_identity_check(b, pair.pot, pair.pot_tilde)
        assert rep["mismatch_vs_target"] == 0.0

    def test_z_source_matches_hand_written_source(self, grid):
        # the benchmark builds B2 w_x2 + b w by hand; both must agree bit for bit
        pair = _pair(grid)
        b = build_bundle(pair.u, pair.u_tilde, pair.pot)
        by_hand = b.B2.values * gradient(b.w)[1].values + b.b_coef.values * b.w.values
        np.testing.assert_array_equal(z_source(b).values, by_hand)
        assert np.max(np.abs(by_hand)) > 0.0

    def test_axial_derivatives_equal_the_gradient_route(self, grid):
        # the bundle differentiates along x1 only; each field has the bytes
        # of the x1 component of the full gradient
        pair = _pair(grid)
        b = build_bundle(pair.u, pair.u_tilde, pair.pot)
        dm1, dm2 = gradient(b.fu)
        ratio1, ratio2 = (ScalarField(grid, d.values / b.fu.values, FULL)
                          for d in (dm1, dm2))
        assert b.z.values.tobytes() == gradient(b.w)[0].values.tobytes()
        assert b.B1.values.tobytes() == (-2.0 * gradient(ratio1)[0].values).tobytes()
        assert b.B2.values.tobytes() == (2.0 * gradient(ratio2)[0].values).tobytes()
        assert b.b_coef.values.tobytes() == (-gradient(b.a_coef)[0].values).tobytes()

    def test_on_demand_fields_have_the_bytes_of_the_eager_build(self, grid):
        # fu, A1, A2, a_coef and B1 are formed on access; each has the bytes
        # of the formula an eager build of every coefficient field used
        pair = _pair(grid)
        b = build_bundle(pair.u, pair.u_tilde, pair.pot)
        m = pair.pot.f[None, :, None] * pair.u_tilde.values
        fu = ScalarField(grid, m, FULL)
        dm1, dm2 = gradient(fu)
        a = (time_derivative(fu).values - laplacian(m, grid)) / m + pair.pot.potential_values()
        eager = {
            "fu": m, "A1": -2.0 * dm1.values / m, "A2": -2.0 * dm2.values / m, "a_coef": a,
            "B1": -2.0 * derivative(dm1.values / m, grid.dx1, 1),
            "B2": 2.0 * derivative(dm2.values / m, grid.dx1, 1),
            "b_coef": -derivative(a, grid.dx1, 1),
        }
        for name, values in eager.items():
            field = getattr(b, name)
            assert isinstance(field, ScalarField), name
            assert field.values.tobytes() == values.tobytes(), name

    def test_initial_level_of_z_is_exactly_zero(self, grid):
        pair = _pair(grid)
        b = build_bundle(pair.u, pair.u_tilde, pair.pot)
        assert np.max(np.abs(b.z.values[0])) == 0.0

    def test_z_vanishes_on_space_boundary(self, domain):
        g = build_grid(domain, 24, 24, 48)
        pair = _pair(g)
        b = build_bundle(pair.u, pair.u_tilde, pair.pot)
        z = b.z.values
        worst = max(
            np.max(np.abs(z[:, 0, :])),
            np.max(np.abs(z[:, -1, :])),
            np.max(np.abs(z[:, :, 0])),
            np.max(np.abs(z[:, :, -1])),
        )
        assert worst <= 10.0 * max(g.dx1, g.dx2) ** 2

    def test_forced_linear_w_makes_ftc_exact(self, grid):
        # u = 1 + (x1 - alpha), u~ = 1, f = 1: w is linear in x1, so the
        # anchored trapezoid reconstruction is exact
        pot = PotentialSpec(grid, np.zeros((grid.nt + 1, grid.n2 + 2)), np.ones(grid.n1 + 2))
        a = grid.alpha_snapped
        u = grid.sample(lambda t, x1, x2: 1.0 + (x1 - a) + 0 * t * x2)
        ones = grid.sample(lambda t, x1, x2: 1.0 + 0 * t * x1 * x2)
        b = build_bundle(u, ones, pot)
        rep = ftc_representation_check(b)
        assert rep["w_error"] <= 1e-13
        assert rep["dx2w_error"] <= 1e-13

    def test_residual_and_identities_converge(self, domain):
        norms, ftc, pw, hs = [], [], [], []
        for n, nt in ((16, 16), (32, 32), (64, 64)):
            g = build_grid(domain, n, n, nt)
            pair = _pair(g)
            b = build_bundle(pair.u, pair.u_tilde, pair.pot)
            norms.append(z_residual(b)[1])
            ftc.append(ftc_representation_check(b)["w_error_l2"])
            pw.append(rhs_identity_check(b, pair.pot, pair.pot_tilde)["mismatch_vs_target_l2"])
            hs.append(g.dx1)
        assert fit_convergence_order(hs, norms) >= 1.8
        assert fit_convergence_order(hs, ftc) >= 1.8
        assert fit_convergence_order(hs, pw) >= 1.8

    def test_x1_variation_of_Pw_small(self, domain):
        g = build_grid(domain, 24, 24, 48)
        pair = _pair(g)
        b = build_bundle(pair.u, pair.u_tilde, pair.pot)
        rep = rhs_identity_check(b, pair.pot, pair.pot_tilde)
        assert rep["x1_variation"] <= 10.0 * (g.dx1**2 + g.dt**2)
