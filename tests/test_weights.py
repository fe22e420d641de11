import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveguide_carleman import WaveguideDomain, WeightParams, assemble_weight, build_grid, make_psi1, make_psi2
from waveguide_carleman.weights import (
    EXPONENT_FLOOR,
    UNDERFLOW_CLAMP,
    ConstantAxisProfile,
    SectionWeightProfile,
    check_assumption_bounded,
    check_assumption_open,
    singular_time_profile,
)


class TestSectionProfile:
    def test_affine_values_top_observed(self, domain):
        p2 = make_psi2(domain, 0.5)
        assert p2.value(0.0) == pytest.approx(0.5)
        assert p2.value(1.0) == pytest.approx(1.5)

    def test_normal_slope_on_hidden_wall(self, domain):
        # outward normal at the bottom wall is -e2; the profile slope is +1
        p2 = make_psi2(domain, 0.5)
        assert -p2.derivative(np.array([0.0]))[0] == pytest.approx(-1.0)

    def test_unit_slope_everywhere(self, domain, grid):
        p2 = make_psi2(domain, 0.5)
        assert np.min(np.abs(p2.derivative(grid.x2))) == pytest.approx(1.0)

    def test_bottom_observed_reflection(self):
        d = WaveguideDomain(L=1.0, h=1.0, T=2.0, obs_side="bottom")
        p2 = make_psi2(d, 0.5)
        assert p2.value(0.0) == pytest.approx(1.5)
        assert p2.value(1.0) == pytest.approx(0.5)


class TestAxialProfile:
    def test_slope_roots(self, domain):
        p1 = make_psi1(domain, 0.5)
        roots = p1.derivative(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(roots, 0.0, atol=1e-15)

    def test_slope_signs_maximum_at_anchor(self, domain):
        # the profile increases toward the anchor from both sides, so the
        # comparison kernel of the anchored prefix inequality stays <= 1
        p1 = make_psi1(domain, 0.5)
        assert p1.derivative(np.array([-0.5]))[0] > 0.0
        assert p1.derivative(np.array([0.5]))[0] < 0.0
        assert abs(p1.derivative(np.array([0.5]))[0]) == pytest.approx(0.375)

    def test_floor_on_dense_sampling(self, domain):
        # dense 1-D oracle: the minimum equals c1 and sits at a cap
        p1 = make_psi1(domain, 0.5)
        xs = np.linspace(-1.0, 1.0, 20001)
        vals = p1.value(xs)
        assert np.min(vals) == pytest.approx(0.5, abs=1e-9)
        assert abs(abs(xs[np.argmin(vals)]) - 1.0) < 1e-3
        assert p1.value(np.array([domain.alpha]))[0] == np.max(vals)

    def test_alpha_validation(self, domain):
        with pytest.raises(ValueError):
            make_psi1(domain, 0.5, alpha=1.5)


class TestAssembleWeight:
    def test_degenerate_psi_gives_zero_weight(self, grid):
        ws = assemble_weight(
            WeightParams(),
            grid,
            psi1_profile=ConstantAxisProfile(0.0),
            psi2_profile=ConstantAxisProfile(1.0),
        )
        assert np.max(np.abs(ws.weight.values)) == 0.0

    def test_time_profile_midpoint(self, grid):
        g = singular_time_profile(grid)
        k = grid.nt // 2  # t = 1 on T = 2
        assert grid.t[k] == pytest.approx(1.0)
        assert g[k] == pytest.approx(1.0)
        assert g[0] == 0.0 and g[-1] == 0.0

    def test_scalar_arithmetic_of_eta(self, grid):
        # psi = 1 everywhere, lambda = 1, t = 1 (so g = 1 on T = 2):
        # eta = e^(2*1*1) - e^(1*1) = e^2 - e
        ws = assemble_weight(
            WeightParams(lam=1.0, s=1.0),
            grid,
            psi1_profile=ConstantAxisProfile(1.0),
            psi2_profile=ConstantAxisProfile(1.0),
        )
        assert ws.psi_sup == pytest.approx(1.0)
        k = grid.nt // 2
        eta = ws.weight.values[k, 0, 0]
        assert eta == pytest.approx(np.e**2 - np.e, rel=1e-12)
        assert eta == pytest.approx(4.6708, abs=5e-4)

    def test_psi_is_pointwise_product(self, grid):
        ws = assemble_weight(WeightParams(), grid)
        np.testing.assert_array_equal(
            ws.psi.values, ws.psi1.values * ws.psi2.values
        )

    def test_open_regime_requires_truncated_grid(self, grid):
        with pytest.raises(ValueError, match="truncated"):
            assemble_weight(WeightParams(regime="open"), grid)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WeightParams(lam=-1.0)
        with pytest.raises(ValueError):
            WeightParams(regime="weird")


class TestWeightInvariants:
    def test_eta_positive_interior(self, grid):
        ws = assemble_weight(WeightParams(lam=1.0, s=2.0), grid)
        eta = ws.weight.values[1:-1]
        g = singular_time_profile(grid)[1:-1]
        lower = g[:, None, None] * (
            np.exp(2.0 * ws.params.lam * ws.psi_sup) - np.exp(ws.params.lam * ws.psi_sup)
        )
        assert np.all(eta > 0.0)
        assert np.all(eta >= lower - 1e-12 * np.abs(lower))

    def test_decay_in_unit_interval(self, grid, open_grid):
        for params, g in (
            (WeightParams(lam=1.0, s=2.0), grid),
            (WeightParams(lam=1.0, s=2.0, regime="open"), open_grid),
        ):
            ws = assemble_weight(params, g)
            dec = ws.decay()
            assert np.all(dec >= 0.0)
            assert np.all(dec[1:-1] < 1.0)
            assert np.all(dec[0] == 0.0) and np.all(dec[-1] == 0.0)

    def test_decay_underflow_clamps_to_zero(self, grid):
        ws = assemble_weight(WeightParams(lam=2.0, s=32.0), grid)
        dec = ws.decay()
        small = dec[(dec > 0.0) & (dec < 1e-290)]
        assert small.size == 0

    def test_closed_form_gradient_matches_stencils(self, open_domain):
        from waveguide_carleman.grid import FULL, ScalarField, fit_convergence_order, gradient

        # the closed-form gradient is the limit of the stencil gradient
        errs, hs = [], []
        for n in (31, 63, 127):
            g = build_grid(open_domain, n, n, 8)
            ws = assemble_weight(WeightParams(lam=0.5, s=1.0, regime="open"), g)
            w = ScalarField(g, ws.weight.values, FULL)
            k = g.nt // 2
            p1_num = gradient(w)[0].values[k]
            p1_exact = ws.weight_gradient()[0][k]
            errs.append(np.max(np.abs(p1_num - p1_exact)) / np.max(np.abs(p1_exact)))
            hs.append(g.dx1)
        # edge stencils on the steep exponential settle slowly; the max-norm
        # order is still close to two
        assert fit_convergence_order(hs, errs) >= 1.8
        assert errs[-1] < 1e-3


def _decay_reference(ws, s):
    """exp(-2*s*weight) without the exponent floor, then the clamp."""
    factor = 2.0 * s
    out = np.zeros(ws.grid.shape)
    out[1:-1] = np.exp(-factor * ws.weight.values[1:-1])
    out[out < UNDERFLOW_CLAMP] = 0.0
    return out


class TestDecayFloor:
    @settings(max_examples=60, deadline=None)
    @given(
        regime=st.sampled_from(["bounded", "open"]),
        node=st.integers(0, 10**6),
        offset=st.floats(-1.0, 1.0),
    )
    def test_equals_the_unfloored_expression_near_the_clamp(self, regime, node, offset):
        # s puts the exponent of one interior node within 1 of
        # log(UNDERFLOW_CLAMP), so nodes on both sides of the floor and of
        # the clamp take part
        domain = WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=regime == "open")
        g = build_grid(domain, 15, 15, 16)
        ws = assemble_weight(WeightParams(lam=1.0, s=1.0, regime=regime), g)
        interior = ws.weight.values[1:-1].ravel()
        s = (offset - math.log(UNDERFLOW_CLAMP)) / (2.0 * interior[node % interior.size])
        exponents = -2.0 * s * interior
        assert np.any(np.abs(exponents - math.log(UNDERFLOW_CLAMP)) <= 1.0 + 1e-9)
        got = ws.decay(s)
        assert got.tobytes() == _decay_reference(ws, s).tobytes()
        assert not np.any((got > 0.0) & (got < UNDERFLOW_CLAMP))

    @pytest.mark.parametrize("regime, shape, lam", [
        ("bounded", (64, 64, 128), 1.0),
        ("open", (255, 31, 64), 1.1),
    ])
    def test_equals_the_unfloored_expression_at_bench_scale(self, regime, shape, lam):
        domain = WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=regime == "open")
        ws = assemble_weight(WeightParams(lam=lam, s=4.0, regime=regime), build_grid(domain, *shape))
        for s in (1.0, 4.0, 16.0, 32.0, 64.0, 256.0):
            assert ws.decay(s).tobytes() == _decay_reference(ws, s).tobytes(), s


def _unmirrored_decay(ws, s):
    """:meth:`WeightSystem.decay` evaluated on every interior level."""
    out = np.zeros(ws.grid.shape)
    inner = np.maximum(ws.weight.values[1:-1] * -(2.0 * s), EXPONENT_FLOOR)
    out[1:-1] = np.exp(inner)
    out[out < UNDERFLOW_CLAMP] = 0.0
    return out


class TestTimeMirror:
    """The time profile and the decayed weight are exactly symmetric about
    T/2, and mirroring gives the bytes of the full evaluation."""

    @pytest.mark.parametrize("regime, shape", [
        ("bounded", (64, 64, 128)),
        ("open", (255, 31, 64)),
        ("bounded", (32, 32, 64)),
    ])
    def test_equals_the_unmirrored_expression(self, regime, shape):
        domain = WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=regime == "open")
        ws = assemble_weight(WeightParams(s=4.0, regime=regime), build_grid(domain, *shape))
        for s in range(1, 65):
            assert ws.decay(s).tobytes() == _unmirrored_decay(ws, s).tobytes(), s

    @pytest.mark.parametrize("T, nt", [(1.7, 50), (1.0, 37)])
    def test_symmetric_and_close_to_the_exact_profile(self, T, nt):
        grid = build_grid(WaveguideDomain(L=1.0, h=1.0, T=T), 7, 5, nt)
        g = singular_time_profile(grid)
        assert g[0] == g[-1] == 0.0
        assert np.array_equal(g, g[::-1])
        for k in range(1, nt):
            t = Fraction(T) * k / nt  # the exact node
            exact = 1 / (t * (Fraction(T) - t))
            assert abs(Fraction(g[k]) - exact) <= Fraction(1e-14) * exact, k
        ws = assemble_weight(WeightParams(s=2.0), grid)
        for s in (0.5, 2.0, 30.0):
            dec = ws.decay(s)
            for k in range(nt + 1):
                assert dec[k].tobytes() == dec[nt - k].tobytes(), (s, k)


class TestAssumptionBounded:
    def test_constructed_profiles_pass_all_bullets(self, grid):
        ws = assemble_weight(WeightParams(), grid)
        rep = check_assumption_bounded(ws)
        assert rep.all_passed
        by_name = {b.name: b for b in rep.bullets}
        assert by_name["psi_positive"].margin == pytest.approx(0.25)  # c1 * delta
        assert by_name["gradient_lower_bound"].margin >= 0.5  # >= c1 * min|psi2'|
        assert by_name["normal_nonpositive_off_obs"].margin <= 0.0

    def test_constant_cross_profile_breaks_gradient_bound(self, grid):
        ws = assemble_weight(WeightParams(), grid, psi2_profile=ConstantAxisProfile(1.0))
        rep = check_assumption_bounded(ws)
        by_name = {b.name: b for b in rep.bullets}
        assert not by_name["gradient_lower_bound"].passed
        assert not rep.all_passed

    def test_zero_offset_breaks_positivity(self, grid):
        ws = assemble_weight(
            WeightParams(), grid, psi2_profile=SectionWeightProfile(h=1.0, delta=0.0)
        )
        rep = check_assumption_bounded(ws)
        by_name = {b.name: b for b in rep.bullets}
        assert not by_name["psi_positive"].passed

    def test_regime_mismatch(self, open_grid):
        ws = assemble_weight(WeightParams(regime="open"), open_grid)
        with pytest.raises(ValueError):
            check_assumption_bounded(ws)


class TestAssumptionOpen:
    def test_kappa_formula(self, open_grid):
        ws = assemble_weight(WeightParams(lam=1.0, s=1.0, regime="open"), open_grid)
        rep = check_assumption_open(ws)
        assert rep.extras["kappa"] == pytest.approx(0.5 * np.exp(-1.0), rel=1e-12)
        assert rep.all_passed

    def test_axial_slope_positive_at_every_node(self, open_grid):
        ws = assemble_weight(WeightParams(regime="open"), open_grid)
        assert np.min(ws.dpsi_dx1) > 0.0

    def test_growth_ratio_decays_with_radius(self):
        # lam must shrink with the radius to keep exp(lam*psi) representable
        margins = []
        for R in (1.0, 2.0, 4.0, 8.0):
            d = WaveguideDomain(L=R, h=1.0, T=2.0, truncated=True)
            g = build_grid(d, 15, 7, 8)
            ws = assemble_weight(WeightParams(lam=0.05, regime="open"), g)
            rep = check_assumption_open(ws)
            by_name = {b.name: b for b in rep.bullets}
            margins.append(by_name["superlinear_growth"].margin)
            assert "unbounded_strip_flags" in rep.extras
        assert all(m2 < m1 for m1, m2 in zip(margins, margins[1:]))
        assert margins[-1] == pytest.approx(0.5 * np.exp(-8.0) / 8.0, rel=1e-12)

    def test_report_text_has_bullets(self, open_grid):
        ws = assemble_weight(WeightParams(regime="open"), open_grid)
        text = check_assumption_open(ws).to_text()
        assert "bullet.psi_positive" in text
        assert "kappa" in text
