import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveguide_carleman.grid import WaveguideDomain, build_grid
from waveguide_carleman.weights import (
    EXPONENT_FLOOR,
    UNDERFLOW_CLAMP,
    AxialWeightProfile,
    SectionWeightProfile,
    WeightParams,
    assemble_weight,
    check_assumption_bounded,
    check_assumption_open,
    singular_time_profile,
)

from closed_forms import ConstantAxisProfile


def _weight(ws):
    """The full-size weight g (x) spatial_weight, the tests' reference."""
    return np.multiply.outer(ws.g, ws.spatial_weight)


class TestSectionProfile:
    def test_affine_values_top_observed(self, domain):
        p2 = SectionWeightProfile(h=domain.h, delta=0.5, obs_side=domain.obs_side)
        assert p2.value(0.0) == pytest.approx(0.5)
        assert p2.value(1.0) == pytest.approx(1.5)

    def test_normal_slope_on_hidden_wall(self, domain):
        # outward normal at the bottom wall is -e2; the profile slope is +1
        p2 = SectionWeightProfile(h=domain.h, delta=0.5, obs_side=domain.obs_side)
        assert -p2.derivative(np.array([0.0]))[0] == pytest.approx(-1.0)

    def test_unit_slope_everywhere(self, domain, grid):
        p2 = SectionWeightProfile(h=domain.h, delta=0.5, obs_side=domain.obs_side)
        assert np.min(np.abs(p2.derivative(grid.x2))) == pytest.approx(1.0)

    def test_bottom_observed_reflection(self):
        d = WaveguideDomain(L=1.0, h=1.0, T=2.0, obs_side="bottom")
        p2 = SectionWeightProfile(h=d.h, delta=0.5, obs_side=d.obs_side)
        assert p2.value(0.0) == pytest.approx(1.5)
        assert p2.value(1.0) == pytest.approx(0.5)


class TestAxialProfile:
    def test_slope_roots(self, domain):
        p1 = AxialWeightProfile(L=domain.L, alpha=domain.alpha, c1=0.5)
        roots = p1.derivative(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(roots, 0.0, atol=1e-15)

    def test_slope_signs_maximum_at_anchor(self, domain):
        # the profile increases toward the anchor from both sides, so the
        # comparison kernel of the anchored prefix inequality stays <= 1
        p1 = AxialWeightProfile(L=domain.L, alpha=domain.alpha, c1=0.5)
        assert p1.derivative(np.array([-0.5]))[0] > 0.0
        assert p1.derivative(np.array([0.5]))[0] < 0.0
        assert abs(p1.derivative(np.array([0.5]))[0]) == pytest.approx(0.375)

    def test_floor_on_dense_sampling(self, domain):
        # dense 1-D oracle: the minimum equals c1 and sits at a cap
        p1 = AxialWeightProfile(L=domain.L, alpha=domain.alpha, c1=0.5)
        xs = np.linspace(-1.0, 1.0, 20001)
        vals = p1.value(xs)
        assert np.min(vals) == pytest.approx(0.5, abs=1e-9)
        assert abs(abs(xs[np.argmin(vals)]) - 1.0) < 1e-3
        assert p1.value(np.array([domain.alpha]))[0] == np.max(vals)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="strictly inside"):
            AxialWeightProfile(L=1.0, alpha=1.5, c1=0.5)


class TestAssembleWeight:
    def test_degenerate_psi_gives_zero_weight(self, grid):
        ws = assemble_weight(
            WeightParams(),
            grid,
            psi1_profile=ConstantAxisProfile(0.0),
            psi2_profile=ConstantAxisProfile(1.0),
        )
        assert np.max(np.abs(_weight(ws))) == 0.0

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
        eta = _weight(ws)[k, 0, 0]
        assert eta == pytest.approx(np.e**2 - np.e, rel=1e-12)
        assert eta == pytest.approx(4.6708, abs=5e-4)

    def test_psi_is_pointwise_product(self, grid):
        ws = assemble_weight(WeightParams(), grid)
        np.testing.assert_array_equal(
            ws.psi_values,
            np.outer(ws.psi1_profile.value(grid.x1), ws.psi2_profile.value(grid.x2)),
        )

    def test_open_psi_is_exp_x1_times_psi2(self, open_grid):
        # e^x1 is its own derivative: psi, d psi/dx1 share their bytes, and
        # the quartic psi1 is never built
        ws = assemble_weight(WeightParams(regime="open"), open_grid)
        expected = np.outer(np.exp(open_grid.x1), ws.psi2_profile.value(open_grid.x2))
        assert ws.psi_values.tobytes() == expected.tobytes()
        assert ws.dpsi_dx1.tobytes() == expected.tobytes()
        assert ws.psi1_profile is None

    @pytest.mark.parametrize("regime", ["bounded", "open"])
    def test_overflowing_weight_raises_without_a_warning(self, regime):
        # L = 6.5 puts sup psi at 725 (bounded) and exp(lam psi) past the
        # largest double in both regimes
        d = WaveguideDomain(L=6.5, h=1.0, T=2.0, truncated=regime == "open")
        g = build_grid(d, 32, 32, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"overflows: lambda=1\.0 with sup psi="):
                assemble_weight(WeightParams(regime=regime), g)

    def test_holds_no_full_size_array(self):
        # the weight is held as g (x) spatial_weight: time profiles and
        # (x1, x2) planes, about 0.2 MiB at 64x64x128, where a stored
        # full-size weight field took 4.5 MiB
        g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), 64, 64, 128)
        tracemalloc.start()
        try:
            ws = assemble_weight(WeightParams(), g)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20, held
        for name, value in vars(ws).items():
            for a in value if isinstance(value, tuple) else (value,):
                a = getattr(a, "values", a)  # a ScalarField's array
                assert not (isinstance(a, np.ndarray) and a.shape == g.shape), name

    def test_open_regime_requires_truncated_grid(self, grid):
        with pytest.raises(ValueError, match="truncated"):
            assemble_weight(WeightParams(regime="open"), grid)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WeightParams(lam=-1.0)
        with pytest.raises(ValueError):
            WeightParams(regime="weird")

    @pytest.mark.parametrize("build, key, value", [
        (b, k, v) for b, keys in ((WaveguideDomain, "L h T"), (WeightParams, "lam s delta c1"))
        for k in keys.split() for v in (math.inf, math.nan, -math.inf)])
    def test_non_finite_geometry_and_weight_values_are_rejected(self, build, key, value):
        # L = inf used to build a grid of nan x1 nodes, T = inf a grid with
        # dt = inf, and every weight parameter took nan and inf; L = nan and
        # h = nan failed only on the alpha and grid-spacing checks
        base = {"L": 1.0, "h": 1.0, "T": 2.0} if build is WaveguideDomain else {}
        with pytest.raises(ValueError, match=re.escape(f"{key}={value}")) as exc:
            build(**{**base, key: value})
        assert "positive and finite" in str(exc.value)


class TestWeightInvariants:
    def test_eta_positive_interior(self, grid):
        ws = assemble_weight(WeightParams(lam=1.0, s=2.0), grid)
        eta = _weight(ws)[1:-1]
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
            dec = ws.decay(params.s)
            assert np.all(dec >= 0.0)
            assert np.all(dec[1:-1] < 1.0)
            assert np.all(dec[0] == 0.0) and np.all(dec[-1] == 0.0)

    def test_decay_underflow_clamps_to_zero(self, grid):
        ws = assemble_weight(WeightParams(lam=2.0, s=32.0), grid)
        dec = ws.decay(32.0)
        small = dec[(dec > 0.0) & (dec < 1e-290)]
        assert small.size == 0

    # measured order and error at the finest grid: bounded 1.95/1.1e-3 (x1),
    # 2.00/2.9e-6 (x2), 1.78/1.5e-3 (laplacian), 2.01/1.1e-3 (time); open
    # 1.90/8.7e-4, 1.98/3.7e-5, 1.83/2.6e-3, 2.01/1.1e-3
    @pytest.mark.parametrize("regime, which, min_order, max_err", [
        ("bounded", "x1", 1.8, 2e-3),
        ("bounded", "x2", 1.8, 1e-5),
        ("bounded", "laplacian", 1.7, 3e-3),
        ("bounded", "time", 1.8, 2e-3),
        ("open", "x1", 1.8, 1e-3),
        ("open", "x2", 1.8, 1e-4),
        ("open", "laplacian", 1.7, 5e-3),
        ("open", "time", 1.8, 2e-3),
    ])
    def test_closed_form_gradient_matches_stencils(self, regime, which, min_order, max_err):
        from waveguide_carleman.grid import (FULL, ScalarField, fit_convergence_order,
                                             gradient, laplacian, time_derivative)

        # each closed-form derivative is the limit of its stencil: the
        # spatial ones on the middle level at n = 31, 63, 127, the time
        # derivative on level nt/4 at nt = 32, 64, 128 (at T/2 both are 0)
        domain = WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=regime == "open")
        errs, hs = [], []
        for n in (31, 63, 127):
            g = build_grid(domain, 7, 7, n + 1) if which == "time" else build_grid(domain, n, n, 8)
            ws = assemble_weight(WeightParams(lam=0.5, s=1.0, regime=regime), g)
            w = ScalarField(g, _weight(ws), FULL)
            if which == "time":
                k, h = g.nt // 4, g.dt
                num, exact = time_derivative(w).values[k], ws.weight_time_derivative()[k]
            elif which == "laplacian":
                k, h = g.nt // 2, g.dx1
                num, exact = laplacian(w.values, w.grid)[k], ws.weight_laplacian()[k]
            else:
                axis, k = ("x1", "x2").index(which), g.nt // 2
                h = (g.dx1, g.dx2)[axis]
                num, exact = gradient(w)[axis].values[k], ws.weight_gradient()[axis][k]
            errs.append(np.max(np.abs(num - exact)) / np.max(np.abs(exact)))
            hs.append(h)
        # edge stencils on the steep exponential settle slowly; the max-norm
        # order is still close to two
        assert fit_convergence_order(hs, errs) >= min_order
        assert errs[-1] < max_err


def _decay_reference(ws, s):
    """exp(-2*s*weight) without the exponent floor, then the clamp."""
    factor = 2.0 * s
    out = np.zeros(ws.grid.shape)
    out[1:-1] = np.exp(-factor * _weight(ws)[1:-1])
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
        interior = _weight(ws)[1:-1].ravel()
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
    inner = np.maximum(_weight(ws)[1:-1] * -(2.0 * s), EXPONENT_FLOOR)
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


class TestDecayBox:
    """``decay(s, box)`` evaluates only the box, with the bytes of the
    whole array's ``[box]``."""

    @settings(max_examples=80, deadline=None)
    @given(
        regime=st.sampled_from(["bounded", "open"]),
        shape=st.tuples(st.integers(4, 40), st.integers(4, 12), st.integers(4, 33)),
        s=st.floats(1.0, 128.0),
        cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                      st.floats(0.0, 1.0)),
        x2=st.sampled_from(["all", "wall", "slice"]),
    )
    def test_box_equals_the_sliced_decay(self, regime, shape, s, cut, x2):
        domain = WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=regime == "open")
        g = build_grid(domain, *shape)
        ws = assemble_weight(WeightParams(lam=1.1, s=4.0, regime=regime), g)
        (a, b), (c, d) = (sorted(min(int(f * n), n - 1) for f in pair)
                          for pair, n in ((cut[:2], g.nt + 1), (cut[2:], g.n1 + 2)))
        box = (slice(a, b + 1), slice(c, d + 1))
        box += {"all": (), "wall": (-1,), "slice": (slice(1, -1),)}[x2]
        got = ws.decay(s, box)
        assert got.shape == ws.decay(s)[box].shape
        assert got.tobytes() == ws.decay(s)[box].tobytes()

    def test_rejects_a_strided_time_slice(self, grid):
        ws = assemble_weight(WeightParams(), grid)
        with pytest.raises(ValueError, match="step 1"):
            ws.decay(2.0, (slice(0, None, 2),))


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

    @pytest.mark.parametrize("peak, failing", [
        (-0.5, "axial_slope_positive_left"), (0.5, "axial_slope_negative_right"),
    ])
    def test_axial_peak_off_the_anchor_breaks_the_slope_on_its_side(self, grid, peak, failing):
        # the grid is anchored at 0; psi1 falls between its peak and the anchor
        ws = assemble_weight(WeightParams(), grid,
                             psi1_profile=AxialWeightProfile(L=1.0, alpha=peak, c1=0.5))
        slopes = {b.name: b.passed for b in check_assumption_bounded(ws).bullets
                  if b.name.startswith("axial_slope")}
        assert slopes == {name: name != failing for name in
                          ("axial_slope_positive_left", "axial_slope_negative_right")}

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
