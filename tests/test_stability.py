from unittest import mock

import numpy as np
import pytest

from waveguide_carleman import stability
from waveguide_carleman.grid import (FULL, ScalarField, WaveguideDomain, build_grid, derivative,
                                     fit_convergence_order, gradient, integrate_values,
                                     normal_derivative)
from waveguide_carleman.stability import (assemble_stability, mixed_sobolev_norm,
                                          perturbation_sweep, sweep_table)
from waveguide_carleman.forward import (PotentialSpec, manufacture_pair, positive_preset_data,
                                        solve_heat)
from waveguide_carleman.synth import axial_factor, dq_preset, q_preset


@pytest.fixture(scope="module")
def run_grid():
    return build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), 24, 24, 48)


@pytest.fixture(scope="module")
def pair(run_grid):
    q = q_preset(run_grid)
    return manufacture_pair(run_grid, q, q + 0.1 * dq_preset(run_grid), axial_factor(run_grid))


def _anchor_pair(grid, trace):
    """A zero field and a field whose anchor column is ``trace``."""
    values = np.zeros(grid.shape)
    values[:, grid.alpha_index, :] = trace
    return ScalarField(grid, np.zeros(grid.shape), FULL), ScalarField(grid, values, FULL)


def _trace_norm_reference(g, v):
    """The norm of a (t, x2) trace as the routine computed it when it took
    the differenced trace itself."""
    def h2_density(a):
        return a**2 + derivative(a, g.dx2, 1) ** 2 + derivative(a, g.dx2, 1, order=2) ** 2

    return integrate_values(g, h2_density(v) + h2_density(derivative(v, g.dt, 0)),
                            "section_time")


class TestMixedSobolevNorm:
    def test_zero(self, grid):
        assert mixed_sobolev_norm(*_anchor_pair(grid, 0.0)) == 0.0

    def test_constant_trace(self, grid):
        # T * h = 2 with all derivative terms vanishing
        assert mixed_sobolev_norm(*_anchor_pair(grid, 1.0)) == pytest.approx(2.0, rel=1e-12)

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
            errs.append(abs(mixed_sobolev_norm(*_anchor_pair(g, tr)) - expected))
            hs.append(g.dx2)
        assert fit_convergence_order(hs, errs) >= 1.9
        assert errs[-1] / expected < 1e-3

    def test_traces_rejected_on_a_square_grid(self, grid):
        # on the square 15x15x16 grid a (t, x1) wall trace and the (t, x2)
        # anchor trace have one shape; the norm takes the fields and slices
        # the anchor column itself, so neither trace is accepted
        u, u_tilde = (grid.sample(lambda t, x1, x2, a=a: a * t * x1 * x2 + np.sin(t + x2))
                      for a in (1.0, 1.5))
        assert grid.n1 == grid.n2
        for trace in (u_tilde.values[:, :, -1], u_tilde.values[:, grid.alpha_index, :]):
            with pytest.raises(ValueError, match="full fields"):
                mixed_sobolev_norm(u, trace)
            with pytest.raises(ValueError, match="full fields"):
                mixed_sobolev_norm(trace, u)
        other = build_grid(grid.domain, 15, 15, 16)
        with pytest.raises(ValueError, match="share"):
            mixed_sobolev_norm(u, ScalarField(other, u_tilde.values, FULL))
        ia = grid.alpha_index
        expected = _trace_norm_reference(grid, u_tilde.values[:, ia, :] - u.values[:, ia, :])
        assert np.float64(mixed_sobolev_norm(u, u_tilde)).tobytes() == np.float64(expected).tobytes()


class TestAssembleStability:
    def test_identical_pair_gives_zero(self, run_grid):
        q = q_preset(run_grid)
        same = manufacture_pair(run_grid, q, q.copy(), axial_factor(run_grid))
        rep = assemble_stability(same.u, same.u_tilde, q, q.copy(), eps=0.25)
        assert rep.lhs == 0.0
        assert rep.rhs_boundary == 0.0
        assert rep.rhs_trace == 0.0
        assert rep.empirical_C_eps == 0.0

    def test_perturbed_pair_has_positive_sides(self, run_grid, pair):
        rep = assemble_stability(
            pair.u, pair.u_tilde, pair.pot.q, pair.pot_tilde.q, eps=0.25
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
        rep = assemble_stability(pair.u, pair.u, q, qt, eps=0.25)
        assert rep.lhs > 0.0 and rep.rhs_boundary == rep.rhs_trace == 0.0
        assert rep.empirical_C_eps == np.inf
        assert "note: non-finite empirical constant\n" in rep.to_text()

    def test_solutions_on_another_grid_rejected(self, run_grid, pair):
        # same shape, different domain: the norms would silently be taken
        # with the wrong spacings
        far = build_grid(WaveguideDomain(L=3.0, h=1.0, T=2.0), 24, 24, 48)
        moved = ScalarField(far, pair.u_tilde.values, FULL)
        q, qt = pair.pot.q, pair.pot_tilde.q
        for u, u_tilde in ((pair.u, moved), (moved, pair.u_tilde)):
            with pytest.raises(ValueError, match="share"):
                assemble_stability(u, u_tilde, q, qt, eps=0.25)

    def test_window_validation(self, run_grid, pair):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                assemble_stability(
                    pair.u, pair.u_tilde, pair.pot.q, pair.pot_tilde.q, eps=bad
                )

    def test_window_monotonicity_exact(self, run_grid, pair):
        q, qt = pair.pot.q, pair.pot_tilde.q
        reps = [
            assemble_stability(pair.u, pair.u_tilde, q, qt, eps=e)
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
        rep = assemble_stability(pair.u, pair.u_tilde, q, qt, eps=eps)
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
        rep = assemble_stability(pair.u, pair.u_tilde, pair.pot.q, pair.pot_tilde.q, eps=0.25)
        diff = (normal_derivative(gradient(pair.u_tilde)[0])
                - normal_derivative(gradient(pair.u)[0]))
        expected = np.einsum("ti,t,i->", diff**2, _trap(g.nt + 1, g.dt), _trap(g.n1 + 2, g.dx1))
        assert expected > 0.0
        assert rep.rhs_boundary == pytest.approx(expected, rel=1e-12)

    def test_r_bound(self, run_grid, pair):
        # the larger of the two potentials' L2 norms over (0, T) x section
        g = run_grid
        q, qt = pair.pot.q, pair.pot_tilde.q
        rep = assemble_stability(pair.u, pair.u_tilde, q, qt, eps=0.25)
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

    def test_bottom_observed_reflection_matches_the_top(self, run_grid):
        # q and dq mirrored in x2 and the bottom wall observed: every number
        # of the top-observed sweep, the observed wall's measurement included
        bottom = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, obs_side="bottom"),
                            run_grid.n1, run_grid.n2, run_grid.nt)
        q, dq, f = q_preset(run_grid), dq_preset(run_grid), axial_factor(run_grid)
        sweeps = [perturbation_sweep(g, qq, dd, f, [0.1, 0.05], [0.25, 0.5]) for g, qq, dd in
                  ((run_grid, q, dq), (bottom, q[:, ::-1], dq[:, ::-1]))]
        for top, bot in zip(*sweeps, strict=True):
            for key in ("lhs", "rhs_boundary", "rhs_trace", "empirical_C_eps", "r_bound"):
                want = getattr(top, key)
                assert want > 0.0, key
                assert getattr(bot, key) == pytest.approx(want, rel=1e-11, abs=0.0), key

    def test_reports_equal_assemble_stability_and_measure_each_solve_once(self, run_grid):
        # the window-free right side is formed once per theta, and the base
        # solve's measurement once per sweep, with the bytes of one
        # assemble_stability call per (theta, eps) on the same stacked solve
        g, thetas, epss = run_grid, [0.1, 0.05], [0.25, 0.5]
        q, dq, f = q_preset(g), dq_preset(g), axial_factor(g)
        with mock.patch.object(stability, "measurement", wraps=stability.measurement) as meas:
            reports = perturbation_sweep(g, q, dq, f, thetas, epss)
        assert meas.call_count == 1 + len(thetas)
        q_tildes = [q + theta * dq for theta in thetas]
        pot = PotentialSpec(g, q, f)
        u, *u_tildes = solve_heat(g, [pot] + [PotentialSpec(g, qt, f) for qt in q_tildes],
                                  positive_preset_data(pot))
        expected = [assemble_stability(u, ut, q, qt, eps, theta=theta)
                    for theta, qt, ut in zip(thetas, q_tildes, u_tildes) for eps in epss]
        assert [r.to_text() for r in reports] == [r.to_text() for r in expected]

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
