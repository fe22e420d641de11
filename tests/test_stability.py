import numpy as np
import pytest

from waveguide_carleman import WaveguideDomain, assemble_stability, build_grid, manufacture_pair, perturbation_sweep
from waveguide_carleman.grid import (FULL, ScalarField, fit_convergence_order, gradient,
                                     normal_derivative)
from waveguide_carleman.stability import mixed_sobolev_norm, sweep_table
from waveguide_carleman.synth import axial_factor, dq_preset, q_preset


@pytest.fixture(scope="module")
def run_grid():
    return build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), 24, 24, 48)


@pytest.fixture(scope="module")
def pair(run_grid):
    q = q_preset(run_grid)
    return manufacture_pair(run_grid, q, q + 0.1 * dq_preset(run_grid), axial_factor(run_grid))


class TestMixedSobolevNorm:
    def test_zero(self, grid):
        assert mixed_sobolev_norm(grid, np.zeros((grid.nt + 1, grid.n2 + 2))) == 0.0

    def test_constant_trace(self, grid):
        # T * h = 2 with all derivative terms vanishing
        tr = np.ones((grid.nt + 1, grid.n2 + 2))
        assert mixed_sobolev_norm(grid, tr) == pytest.approx(2.0, rel=1e-12)

    def test_separable_trace_closed_form(self, domain):
        # v = t*sin(pi x2/h): the squared norm integrates to
        # (h/2)*(1+(pi/h)^2+(pi/h)^4)*(T^3/3 + T)
        h, T = domain.h, domain.T
        K = 1.0 + (np.pi / h) ** 2 + (np.pi / h) ** 4
        expected = (h / 2.0) * K * (T**3 / 3.0 + T)
        errs, hs = [], []
        for n in (16, 32, 64):
            g = build_grid(domain, 4, n, n)
            tr = np.outer(g.t, np.sin(np.pi * g.x2 / h))
            errs.append(abs(mixed_sobolev_norm(g, tr) - expected))
            hs.append(g.dx2)
        assert fit_convergence_order(hs, errs) >= 1.9
        assert errs[-1] / expected < 1e-3

    def test_shape_guard(self, domain):
        # a full field or a wall trace is not a (t, x2) section trace
        grid = build_grid(domain, 11, 15, 16)
        full = grid.sample(lambda t, x1, x2: t * x1 * x2).values
        for wrong in (full, full[:, :, -1], full[:, grid.alpha_index, :-1]):
            with pytest.raises(ValueError, match="shape"):
                mixed_sobolev_norm(grid, wrong)


class TestAssembleStability:
    def test_identical_pair_gives_zero(self, run_grid):
        q = q_preset(run_grid)
        same = manufacture_pair(run_grid, q, q.copy(), axial_factor(run_grid))
        rep = assemble_stability(same.u, same.u_tilde, q, q.copy(), run_grid, eps=0.25)
        assert rep.lhs == 0.0
        assert rep.rhs_boundary == 0.0
        assert rep.rhs_trace == 0.0
        assert rep.empirical_C_eps == 0.0

    def test_perturbed_pair_has_positive_sides(self, run_grid, pair):
        rep = assemble_stability(
            pair.u, pair.u_tilde, pair.pot.q, pair.pot_tilde.q, run_grid, eps=0.25
        )
        assert rep.lhs > 0.0
        assert rep.rhs_boundary > 0.0
        assert rep.rhs_trace > 0.0
        assert np.isfinite(rep.empirical_C_eps) and rep.empirical_C_eps > 0.0
        assert rep.r_bound >= max(
            0.0, np.sqrt(rep.lhs) - 1e-12
        )  # admissible-class radius dominates the mismatch mass

    def test_unobserved_mismatch_has_no_finite_constant(self, run_grid, pair):
        # u on both sides sees nothing of q~ - q: the right side is 0 while
        # the left is not, which no finite constant bounds
        q, qt = pair.pot.q, pair.pot_tilde.q
        rep = assemble_stability(pair.u, pair.u, q, qt, run_grid, eps=0.25)
        assert rep.lhs > 0.0 and rep.rhs_boundary == rep.rhs_trace == 0.0
        assert rep.empirical_C_eps == np.inf
        assert "note: non-finite empirical constant\n" in rep.to_text()

    def test_solutions_on_another_grid_rejected(self, run_grid, pair):
        # same shape, different domain: the norms would silently be taken
        # with the wrong spacings
        far = build_grid(WaveguideDomain(L=3.0, h=1.0, T=2.0), 24, 24, 48)
        moved = ScalarField(far, pair.u_tilde.values, FULL)
        q, qt = pair.pot.q, pair.pot_tilde.q
        for u, u_tilde, g in ((pair.u, pair.u_tilde, far), (pair.u, moved, run_grid)):
            with pytest.raises(ValueError, match="share"):
                assemble_stability(u, u_tilde, q, qt, g, eps=0.25)

    def test_window_validation(self, run_grid, pair):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                assemble_stability(
                    pair.u, pair.u_tilde, pair.pot.q, pair.pot_tilde.q, run_grid, eps=bad
                )

    def test_window_monotonicity_exact(self, run_grid, pair):
        q, qt = pair.pot.q, pair.pot_tilde.q
        reps = [
            assemble_stability(pair.u, pair.u_tilde, q, qt, run_grid, eps=e)
            for e in (0.125, 0.25, 0.5, 0.75)
        ]
        lhss = [r.lhs for r in reps]
        assert all(a >= b for a, b in zip(lhss, lhss[1:]))


def _trap(n, d):
    w = np.full(n, d)
    w[0] = w[-1] = 0.5 * d
    return w


class TestAgainstFullGridEinsum:
    @pytest.mark.parametrize("eps", [0.25, 0.5])
    def test_windowed_lhs(self, run_grid, pair, eps):
        q, qt = pair.pot.q, pair.pot_tilde.q
        rep = assemble_stability(pair.u, pair.u_tilde, q, qt, run_grid, eps=eps)
        g = run_grid
        ia = int(round(eps / g.dt))
        ib = g.nt - ia
        expected = np.einsum("tj,t,j->", (qt - q)[ia : ib + 1] ** 2,
                             _trap(ib - ia + 1, g.dt), _trap(g.n2 + 2, g.dx2))
        assert expected > 0.0
        assert rep.lhs == pytest.approx(expected, rel=1e-12)

    def test_boundary_term(self, run_grid, pair):
        # the observed trace taken from the full-grid gradient, squared and
        # integrated over the observed wall and (0, T)
        g = run_grid
        rep = assemble_stability(pair.u, pair.u_tilde, pair.pot.q, pair.pot_tilde.q, g, eps=0.25)
        seg = g.domain.obs_segment
        diff = (normal_derivative(gradient(pair.u_tilde)[0], seg)
                - normal_derivative(gradient(pair.u)[0], seg))
        expected = np.einsum("ti,t,i->", diff**2, _trap(g.nt + 1, g.dt), _trap(g.n1 + 2, g.dx1))
        assert expected > 0.0
        assert rep.rhs_boundary == pytest.approx(expected, rel=1e-12)

    def test_r_bound(self, run_grid, pair):
        # the larger of the two potentials' L2 norms over (0, T) x section
        g = run_grid
        q, qt = pair.pot.q, pair.pot_tilde.q
        rep = assemble_stability(pair.u, pair.u_tilde, q, qt, g, eps=0.25)
        w = (_trap(g.nt + 1, g.dt), _trap(g.n2 + 2, g.dx2))
        expected = max(np.sqrt(np.einsum("tj,t,j->", p**2, *w)) for p in (q, qt))
        assert expected > 0.0
        assert rep.r_bound == pytest.approx(expected, rel=1e-12)


class TestPerturbationSweep:
    def test_single_point(self, run_grid):
        reports = perturbation_sweep(
            run_grid, q_preset(run_grid), dq_preset(run_grid), axial_factor(run_grid),
            [0.1], [0.25],
        )
        assert len(reports) == 1
        assert reports[0].theta == 0.1 and reports[0].eps == 0.25

    def test_quadratic_scaling_and_stable_constant(self, run_grid):
        thetas = [0.1, 0.05, 0.025]
        reports = perturbation_sweep(
            run_grid, q_preset(run_grid), dq_preset(run_grid), axial_factor(run_grid),
            thetas, [0.25],
        )
        lhss = [r.lhs for r in reports]
        assert abs(fit_convergence_order(thetas, lhss) - 2.0) <= 0.3
        cs = [r.empirical_C_eps for r in reports]
        assert max(cs) / min(cs) <= 4.0

    def test_doubled_direction_keeps_constant(self, run_grid):
        q, dq, f = q_preset(run_grid), dq_preset(run_grid), axial_factor(run_grid)
        r1 = perturbation_sweep(run_grid, q, dq, f, [0.05], [0.25])[0]
        r2 = perturbation_sweep(run_grid, q, 2.0 * dq, f, [0.05], [0.25])[0]
        assert r2.lhs == pytest.approx(4.0 * r1.lhs, rel=1e-12)
        ratio = r2.empirical_C_eps / r1.empirical_C_eps
        assert 0.5 <= ratio <= 2.0

    def test_constant_non_decreasing_as_window_grows(self, run_grid):
        reports = perturbation_sweep(
            run_grid, q_preset(run_grid), dq_preset(run_grid), axial_factor(run_grid),
            [0.1], [0.5, 0.25, 0.125],
        )
        cs = [r.empirical_C_eps for r in reports]
        assert cs[0] <= cs[1] <= cs[2]

    def test_rejects_bad_theta(self, run_grid):
        with pytest.raises(ValueError):
            perturbation_sweep(
                run_grid, q_preset(run_grid), dq_preset(run_grid), axial_factor(run_grid),
                [-0.1], [0.25],
            )

    def test_sweep_table_format(self, run_grid):
        reports = perturbation_sweep(
            run_grid, q_preset(run_grid), dq_preset(run_grid), axial_factor(run_grid),
            [0.1], [0.25, 0.5],
        )
        table = sweep_table(reports)
        lines = table.strip().splitlines()
        assert lines[0] == "theta,eps,lhs,rhs_boundary,rhs_trace,empirical_C_eps"
        assert len(lines) == 3
