import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveguide_carleman import (
    FULL,
    ScalarField,
    WaveguideDomain,
    build_grid,
    gradient,
    laplacian,
    load_field,
    normal_derivative,
    prefix_integral_x1,
    save_field,
    time_derivative,
)
from waveguide_carleman.grid import (
    derivative,
    fit_convergence_order,
    integrate_values,
    report_text,
)


class TestDomainAndGrid:
    def test_spacing_interior_node_convention(self):
        g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), 8, 8, 8)
        assert g.dx1 == pytest.approx(2.0 / 9.0, abs=0)
        assert g.dx2 == pytest.approx(1.0 / 9.0, abs=0)
        assert g.dt == pytest.approx(0.25, abs=0)
        assert g.shape == (9, 10, 10)

    def test_alpha_snap_zero_on_symmetric_grid(self):
        g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, alpha=0.0), 15, 8, 8)
        assert g.alpha_snap_distance == 0.0
        assert g.x1[g.alpha_index] == 0.0

    def test_alpha_snap_distance_arithmetic(self):
        # independent oracle: nodes at -L + i*dx1, nearest to alpha=0.3
        L, n1 = 1.0, 8
        dx1 = 2.0 * L / (n1 + 1)
        nodes = -L + dx1 * np.arange(n1 + 2)
        expected = np.min(np.abs(nodes - 0.3))
        g = build_grid(WaveguideDomain(L=L, h=1.0, T=2.0, alpha=0.3), n1, 8, 8)
        assert g.alpha_snap_distance == pytest.approx(expected, rel=1e-14)
        assert g.alpha_snap_distance <= g.dx1 / 2 + 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            WaveguideDomain(L=-1.0, h=1.0, T=1.0)
        with pytest.raises(ValueError):
            WaveguideDomain(L=1.0, h=1.0, T=1.0, alpha=1.5)
        with pytest.raises(ValueError):
            build_grid(WaveguideDomain(L=1.0, h=1.0, T=1.0), 3, 8, 8)
        with pytest.raises(ValueError):
            build_grid(WaveguideDomain(L=1.0, h=1.0, T=1.0), 8, 8, 2)

    def test_rejects_spacing_whose_inverse_square_overflows(self):
        # (pi/h)^2 and 1/dx2^2 overflow downstream; the grid refuses them
        with pytest.raises(ValueError, match="1/d\\^2 overflows"):
            build_grid(WaveguideDomain(L=1.0, h=1e-300, T=2.0), 8, 8, 16)
        build_grid(WaveguideDomain(L=1.0, h=1e-150, T=2.0), 8, 8, 16)


class TestScalarField:
    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros((3, 3)), FULL)
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros(grid.shape), "no-such-kind")

    def test_rejects_non_finite(self, grid):
        bad = np.zeros(grid.shape)
        bad[2, 3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(grid, bad, FULL)

    def test_rejects_trace_shapes(self, grid):
        # traces are plain arrays; a field holds the full (t, x1, x2) grid
        for shape in ((grid.nt + 1, grid.n1 + 2), (grid.nt + 1, grid.n2 + 2)):
            with pytest.raises(ValueError, match="shape"):
                ScalarField(grid, np.zeros(shape), FULL)


class TestCalculus:
    def test_gradient_constant_and_linear(self, grid):
        c = grid.sample(lambda t, x1, x2: 3.0 + 0 * t * x1 * x2)
        g1, g2 = gradient(c)
        assert np.max(np.abs(g1.values)) == 0.0
        assert np.max(np.abs(g2.values)) == 0.0
        lin = grid.sample(lambda t, x1, x2: x1 + 0 * t * x2)
        g1, g2 = gradient(lin)
        np.testing.assert_allclose(g1.values, 1.0, atol=5e-15)
        np.testing.assert_allclose(g2.values, 0.0, atol=5e-15)

    def test_gradient_convergence_order(self, domain):
        errs, hs = [], []
        for n in (8, 16, 32):
            g = build_grid(domain, n, n, 4)
            f = g.sample(lambda t, x1, x2: np.sin(x1) * np.cos(x2) + 0 * t)
            g1, g2 = gradient(f)
            e1 = g.sample(lambda t, x1, x2: np.cos(x1) * np.cos(x2) + 0 * t)
            e2 = g.sample(lambda t, x1, x2: -np.sin(x1) * np.sin(x2) + 0 * t)
            err = max(
                np.max(np.abs(g1.values - e1.values)),
                np.max(np.abs(g2.values - e2.values)),
            )
            errs.append(err)
            hs.append(g.dx1)
        assert fit_convergence_order(hs, errs) >= 1.9

    def test_laplacian_quadratic_exact(self, grid):
        f = grid.sample(lambda t, x1, x2: x1**2 + x2**2 + 0 * t)
        lap = laplacian(f)
        np.testing.assert_allclose(lap.values, 4.0, rtol=0, atol=2e-11)
        zero = grid.sample(lambda t, x1, x2: 0.0 * t * x1 * x2)
        assert np.max(np.abs(laplacian(zero).values)) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        x0=st.floats(-5.0, 5.0),
        d=st.floats(0.01, 1.0),
        n=st.integers(4, 12),
        axis=st.integers(0, 2),
    )
    def test_second_derivative_exact_on_cubics(self, coeffs, x0, d, n, axis):
        # both the centered and the one-sided stencil are exact on cubics,
        # so the only error left is round-off of values of size `scale`;
        # below the smallest normal float that round-off is absolute
        a, b, c, e = coeffs
        shape = [1, 1, 1]
        shape[axis] = n
        x = (x0 + d * np.arange(n)).reshape(shape)
        other = [2, 3, 2]
        other[axis] = 1
        weights = np.arange(1.0, 1.0 + np.prod(other)).reshape(other)
        values = weights * (a + b * x + c * x**2 + e * x**3)
        exact = np.moveaxis(weights * (2.0 * c + 6.0 * e * x), axis, 0)
        got = np.moveaxis(derivative(values, d, axis, order=2), axis, 0)
        xm = float(np.max(np.abs(x)))
        scale = weights.max() * (abs(a) + abs(b) * xm + abs(c) * xm**2 + abs(e) * xm**3)
        fp = np.finfo(float)
        tol = 64.0 * fp.eps * (scale / d**2 + np.max(np.abs(exact))) + fp.tiny
        for nodes in (slice(1, -1), 0, -1):  # interior, then both one-sided ends
            np.testing.assert_allclose(got[nodes], exact[nodes], rtol=0, atol=tol)

    def test_laplacian_eigenfunction_order(self, domain):
        errs, hs = [], []
        for n in (8, 16, 32):
            g = build_grid(domain, n, n, 4)
            f = g.sample(lambda t, x1, x2: np.sin(np.pi * x2 / g.domain.h) + 0 * t * x1)
            expected = -((np.pi / g.domain.h) ** 2) * f.values
            errs.append(np.max(np.abs(laplacian(f).values - expected)))
            hs.append(g.dx2)
        assert fit_convergence_order(hs, errs) >= 1.9

    def test_time_derivative(self, grid, domain):
        const = grid.sample(lambda t, x1, x2: 1.0 + 0 * t * x1 * x2)
        assert np.max(np.abs(time_derivative(const).values)) == 0.0
        lin = grid.sample(lambda t, x1, x2: t + 0 * x1 * x2)
        np.testing.assert_allclose(time_derivative(lin).values, 1.0, atol=5e-14)
        errs, hs = [], []
        for nt in (8, 16, 32):
            g = build_grid(domain, 4, 4, nt)
            f = g.sample(lambda t, x1, x2: np.exp(-t) + 0 * x1 * x2)
            errs.append(np.max(np.abs(time_derivative(f).values + f.values)))
            hs.append(g.dt)
        assert fit_convergence_order(hs, errs) >= 1.9

    def test_order_fit_needs_distinct_spacings(self):
        # two equal spacings leave a single abscissa, through which no line
        # is determined; numpy would only warn and return a slope
        with pytest.raises(ValueError, match="distinct"):
            fit_convergence_order([0.4, 0.4], [0.03, 0.02])
        with pytest.raises(ValueError, match="distinct"):
            fit_convergence_order([0.4, 0.2, 0.4], [0.03, 0.01, 0.02])
        assert fit_convergence_order([0.4, 0.2], [0.04, 0.01]) == pytest.approx(2.0)


class TestNormalDerivative:
    def test_lateral_signs(self, grid):
        # the outward normal is +e2 on the top wall and -e2 on the bottom one
        bottom = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, obs_side="bottom"), 15, 15, 16)
        top = normal_derivative(grid.sample(lambda t, x1, x2: x2 + 0 * t * x1))
        bot = normal_derivative(bottom.sample(lambda t, x1, x2: x2 + 0 * t * x1))
        assert top.shape == bot.shape == (grid.nt + 1, grid.n1 + 2)
        np.testing.assert_allclose(top, 1.0, atol=5e-13)
        np.testing.assert_allclose(bot, -1.0, atol=5e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        obs_side=st.sampled_from(["top", "bottom"]),
        sizes=st.tuples(st.integers(4, 12), st.integers(4, 12), st.integers(4, 8)),
        extents=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
        coeffs=st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=7, max_size=7),
    )
    def test_exact_on_quadratics(self, obs_side, sizes, extents, coeffs):
        # the one-sided 3-point stencil is exact on quadratics, so on
        # (1 + p t)(a + b x1 + c x2 + d x1^2 + e x1 x2 + k x2^2) the observed
        # wall reads the outward derivative up to round-off of values of
        # size `scale` divided by the spacing
        a, b, c, d, e, k, p = coeffs
        L, h, T = extents
        g = build_grid(WaveguideDomain(L=L, h=h, T=T, obs_side=obs_side), *sizes)
        tt, x1, _ = g.mesh()
        f = g.sample(lambda t, x1, x2: (1.0 + p * t)
                     * (a + b * x1 + c * x2 + d * x1**2 + e * x1 * x2 + k * x2**2))
        time = 1.0 + p * tt[:, :, 0]
        if obs_side == "top":
            exact = time * (c + e * x1[:, :, 0] + 2.0 * k * h)
        else:
            exact = -time * (c + e * x1[:, :, 0])
        scale = (1.0 + abs(p) * T) * (abs(a) + (abs(b) + abs(d) * L) * L
                                      + (abs(c) + abs(k) * h) * h + abs(e) * L * h)
        fp = np.finfo(float)
        got = normal_derivative(f)
        tol = 64.0 * fp.eps * (scale / g.dx2 + np.max(np.abs(exact))) + fp.tiny
        assert got.shape == exact.shape
        np.testing.assert_allclose(got, exact, rtol=0, atol=tol)


class TestQuadrature:
    def test_volume_of_Q(self, grid):
        one = grid.sample(lambda t, x1, x2: 1.0 + 0 * t * x1 * x2)
        # 2L * h * T = 2 * 1 * 2
        assert integrate_values(grid, one.values, "Q") == pytest.approx(4.0, abs=1e-12)

    def test_odd_integrand_vanishes(self, grid):
        f = grid.sample(lambda t, x1, x2: x1 + 0 * t * x2)
        assert integrate_values(grid, f.values, "Q") == pytest.approx(0.0, abs=1e-13)

    def test_cross_section_profile_convergence(self, domain):
        errs, hs = [], []
        for n in (8, 16, 32):
            g = build_grid(domain, 4, n, 4)
            vals = np.broadcast_to(np.sin(np.pi * g.x2 / domain.h), (g.nt + 1, g.n2 + 2))
            exact = domain.T * 2.0 * domain.h / np.pi
            errs.append(abs(integrate_values(g, vals, "section_time") - exact))
            hs.append(g.dx2)
        assert fit_convergence_order(hs, errs) >= 1.9

    def test_linearity_and_monotonicity(self, grid, rng):
        a = rng.standard_normal(grid.shape)
        b = rng.standard_normal(grid.shape)
        ia = integrate_values(grid, a, "Q")
        ib = integrate_values(grid, b, "Q")
        iab = integrate_values(grid, 2.0 * a + 3.0 * b, "Q")
        assert iab == pytest.approx(2.0 * ia + 3.0 * ib, rel=1e-12, abs=1e-12)
        nonneg = np.abs(a)
        assert integrate_values(grid, nonneg, "Q") >= 0.0

    def test_region_kind_compatibility(self, grid):
        sec = np.ones((grid.nt + 1, grid.n2 + 2))
        # time x cross-section measure: T * h; time x wall measure: T * 2L
        assert integrate_values(grid, sec, "section_time") == pytest.approx(2.0, abs=1e-12)
        wall = np.ones((grid.nt + 1, grid.n1 + 2))
        assert integrate_values(grid, wall, "wall") == pytest.approx(4.0, abs=1e-12)
        for gone in ("boundary", "nowhere"):
            with pytest.raises(ValueError, match="region"):
                integrate_values(grid, sec, gone)

    # Each region and the variables of its values.
    REGIONS = (
        ("Q", ("t", "x1", "x2")),
        ("wall", ("t", "x1")),
        ("section_time", ("t", "x2")),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        which=st.integers(0, len(REGIONS) - 1),
        sizes=st.tuples(st.integers(4, 12), st.integers(4, 12), st.integers(4, 12)),
        extents=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
        coeffs=st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=8, max_size=8),
    )
    def test_exact_on_multilinear_fields(self, which, sizes, extents, coeffs):
        # the tensor trapezoid rule integrates every product of affine
        # factors exactly, so only round-off of the summands is left
        region, axes = self.REGIONS[which]
        L, h, T = extents
        g = build_grid(WaveguideDomain(L=L, h=h, T=T), *sizes)
        nodes = {"t": g.t, "x1": g.x1, "x2": g.x2}
        exact_moments = {"t": (T, T**2 / 2.0), "x1": (2.0 * L, 0.0), "x2": (h, h**2 / 2.0)}
        values = np.zeros([nodes[a].size for a in axes])
        exact = scale = 0.0
        for k, c in enumerate(coeffs[: 2 ** len(axes)]):
            powers = [(k >> bit) & 1 for bit in range(len(axes))]
            term = np.ones_like(values)
            moment = size = 1.0
            for ax_i, (a, pw) in enumerate(zip(axes, powers)):
                shape = [1] * len(axes)
                shape[ax_i] = -1
                term = term * nodes[a].reshape(shape) ** pw
                moment *= exact_moments[a][pw]
                size *= exact_moments[a][0] * max(1.0, float(np.max(np.abs(nodes[a])))) ** pw
            values += c * term
            exact += c * moment
            scale += abs(c) * size
        got = integrate_values(g, values, region)
        assert abs(got - exact) <= 1e-12 * scale + 1e-300


class TestPrefixIntegral:
    def test_constant_integrand_linear_result(self, grid):
        one = grid.sample(lambda t, x1, x2: 1.0 + 0 * t * x1 * x2)
        out = prefix_integral_x1(one)
        expected = grid.x1[None, :, None] - grid.x1[grid.alpha_index]
        np.testing.assert_allclose(out.values, np.broadcast_to(expected, grid.shape), atol=1e-13)

    def test_anchor_column_is_zero(self, grid, rng):
        f = ScalarField(grid, rng.standard_normal(grid.shape), FULL)
        out = prefix_integral_x1(f)
        assert np.max(np.abs(out.values[:, grid.alpha_index, :])) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        n1=st.integers(4, 24),
        L=st.floats(0.25, 4.0),
        alpha_frac=st.floats(-0.9, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_on_fields_linear_in_x1(self, n1, L, alpha_frac, seed):
        # f = a + b*x1 with (t, x2)-dependent a, b: the trapezoid prefix
        # integral from the snapped anchor is exact up to round-off, and
        # the anchor column is exactly zero
        g = build_grid(WaveguideDomain(L=L, h=1.0, T=1.0, alpha=alpha_frac * L), n1, 5, 4)
        r = np.random.default_rng(seed)
        a = r.uniform(-10.0, 10.0, (g.nt + 1, 1, g.n2 + 2))
        b = r.uniform(-10.0, 10.0, (g.nt + 1, 1, g.n2 + 2))
        x1 = g.x1[None, :, None]
        xa = g.alpha_snapped
        out = prefix_integral_x1(ScalarField(g, a + b * x1, FULL)).values
        exact = a * (x1 - xa) + b * (x1**2 - xa**2) / 2.0
        assert np.max(np.abs(out[:, g.alpha_index, :])) == 0.0
        tol = 64.0 * (n1 + 2) * np.finfo(float).eps * 10.0 * (2.0 * L + L**2)
        np.testing.assert_allclose(out, exact, rtol=0, atol=tol)


def _second_derivative_reference(values, d, axis):
    """The order-2 stencil of :func:`derivative` as one expression per row."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / d**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / d**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / d**2
    return np.moveaxis(out, 0, axis)


def _prefix_integral_reference(f):
    """:func:`prefix_integral_x1` as a cumulative sum of a temporary."""
    g, v = f.grid, f.values
    inc = 0.5 * g.dx1 * (v[:, :-1, :] + v[:, 1:, :])
    cs = np.concatenate([np.zeros((v.shape[0], 1, v.shape[2])), np.cumsum(inc, axis=1)], axis=1)
    return cs - cs[:, g.alpha_index : g.alpha_index + 1, :]


def _assert_kernels_equal_references(f):
    g = f.grid
    for axis, d in ((0, g.dt), (1, g.dx1), (2, g.dx2)):
        got = derivative(f.values, d, axis, order=2)
        assert got.tobytes() == _second_derivative_reference(f.values, d, axis).tobytes(), axis
    lap = (_second_derivative_reference(f.values, g.dx1, 1)
           + _second_derivative_reference(f.values, g.dx2, 2))
    assert laplacian(f).values.tobytes() == lap.tobytes()
    first = [np.gradient(f.values, d, axis=axis, edge_order=2)
             for axis, d in ((0, g.dt), (1, g.dx1), (2, g.dx2))]
    assert time_derivative(f).values.tobytes() == first[0].tobytes()
    assert [d.values.tobytes() for d in gradient(f)] == [d.tobytes() for d in first[1:]]
    assert prefix_integral_x1(f).values.tobytes() == _prefix_integral_reference(f).tobytes()


class TestDerivativeKernel:
    """The flat-shift kernel against the per-axis expressions it replaces."""

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 9), min_size=2, max_size=3),
        axis=st.integers(0, 2),
        d=st.floats(1e-3, 10.0),
        transposed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_np_gradient_and_second_difference(self, shape, axis, d, transposed,
                                                           seed):
        axis %= len(shape)
        shape[axis] = max(shape[axis], 4)
        values = np.random.default_rng(seed).standard_normal(shape[::-1] if transposed else shape)
        if transposed:  # the same logical shape, in Fortran order
            values = values.T
        assert values.shape == tuple(shape)
        got = derivative(values, d, axis)
        assert got.tobytes() == np.gradient(values, d, axis=axis, edge_order=2).tobytes()
        got = derivative(values, d, axis, order=2)
        assert got.tobytes() == _second_derivative_reference(values, d, axis).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(4, 9), st.integers(4, 9), st.integers(4, 9)),
        axis=st.integers(0, 2),
        order=st.sampled_from([1, 2]),
        member=st.integers(0, 2),
        d=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_out_has_the_bytes_of_the_allocating_call(self, shape, axis, order, member, d,
                                                      seed):
        values = np.random.default_rng(seed).standard_normal(shape)
        expected = derivative(values, d, axis, order=order).tobytes()
        buf = np.full(shape, np.nan)
        assert derivative(values, d, axis, order=order, out=buf) is buf
        assert buf.tobytes() == expected
        # one member of a stack: its neighbours keep their contents
        stack = np.full((3,) + shape, np.nan)
        derivative(values, d, axis, order=order, out=stack[member])
        assert stack[member].tobytes() == expected
        assert np.all(np.isnan(np.delete(stack, member, axis=0)))

    def test_out_must_be_a_separate_contiguous_float64_array_of_the_shape(self):
        # the flat shift writes through out.reshape(-1), which can be a copy
        # of an out that is not C-contiguous (a Fortran-ordered one is): its
        # writes would be lost
        stack = np.random.default_rng(0).standard_normal((2, 6, 7, 8))
        values, before = stack[0], stack.copy()
        flat = stack.reshape(-1)
        bad = {
            "the input": values,
            "a shifted window of the input": flat[5 : 5 + values.size].reshape(values.shape),
            "strided": np.empty((6, 7, 16))[:, :, ::2],
            "Fortran-ordered": np.empty((6, 7, 8), order="F"),
            "float32": np.empty((6, 7, 8), dtype=np.float32),
            "another shape": np.empty((6, 7, 9)),
        }
        for name, out in bad.items():
            with pytest.raises(ValueError, match="out must be"):
                derivative(values, 0.1, 2, out=out)
            assert stack.tobytes() == before.tobytes(), name
        member = stack[1]
        assert derivative(values, 0.1, 2, out=member) is member

    @pytest.mark.parametrize("order, nodes", [(1, 2), (2, 3), (2, 2)])
    def test_too_short_axis_is_named(self, order, nodes):
        values = np.ones((5, nodes, 6))
        with pytest.raises(ValueError, match=f"axis 1 has {nodes} nodes"):
            derivative(values, 0.1, 1, order=order)
        assert derivative(values, 0.1, 0, order=order).shape == values.shape


class TestKernelsAgainstExpressions:
    """The in-place stencil and prefix kernels give the bytes of the plain
    expressions they replace."""

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.tuples(st.integers(4, 20), st.integers(4, 20), st.integers(4, 20)),
        alpha_frac=st.floats(-0.9, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_on_random_fields(self, sizes, alpha_frac, seed):
        g = build_grid(WaveguideDomain(L=1.3, h=0.7, T=1.5, alpha=1.3 * alpha_frac), *sizes)
        r = np.random.default_rng(seed)
        _assert_kernels_equal_references(ScalarField(g, r.standard_normal(g.shape), FULL))

    @pytest.mark.parametrize("truncated, sizes", [(False, (64, 64, 128)), (True, (255, 31, 64))])
    def test_bytes_equal_at_bench_scale(self, truncated, sizes):
        g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=truncated), *sizes)
        f = g.sample(lambda t, x1, x2: np.sin(3.0 * x1 + t) * np.cos(2.0 * x2) + x1 * x2 * t)
        _assert_kernels_equal_references(f)


def _same_float(text: str, value: float) -> bool:
    back = float(text)
    if math.isnan(value):
        return math.isnan(back)
    return back == value and math.copysign(1.0, back) == math.copysign(1.0, value)


class TestReportText:
    @given(
        st.dictionaries(
            st.text("abcxyz_.019", min_size=1, max_size=8),
            st.one_of(st.floats(), st.text(st.characters(exclude_characters="\n"))),
        ),
        st.lists(st.tuples(st.floats(), st.floats()), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trips_floats_and_keeps_strings(self, entries, cells):
        rows = [{"a": x, "b.c": y} for x, y in cells]
        lines = report_text(entries, rows).split("\n")
        assert lines.pop() == ""
        for (key, value), line in zip(entries.items(), lines):
            read_key, sep, text = line.partition(": ")
            assert (read_key, sep) == (key, ": ")
            assert (text == value) if isinstance(value, str) else _same_float(text, value)
        table = lines[len(entries):]
        assert table[:1] == (["a,b.c"] if rows else [])
        for row, line in zip(rows, table[1:], strict=True):
            x, y = line.split(",")
            assert _same_float(x, row["a"]) and _same_float(y, row["b.c"])


class TestPersistence:
    def test_round_trip(self, grid, rng, tmp_path):
        f = ScalarField(grid, rng.standard_normal(grid.shape), FULL)
        save_field(f, tmp_path / "field")
        g = load_field(tmp_path / "field")
        np.testing.assert_array_equal(f.values, g.values)
        assert "kind: full-field\nsegment: -\n" in (tmp_path / "field.meta").read_text()
        assert g.grid.n1 == grid.n1 and g.grid.nt == grid.nt
        assert g.grid.domain == grid.domain

    def test_values_file_is_little_endian_row_major(self, grid, tmp_path):
        f = grid.sample(lambda t, x1, x2: t + 10 * x1 + 100 * x2)
        _, data_path = save_field(f, tmp_path / "field")
        raw = np.frombuffer(data_path.read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(raw, f.values.ravel(order="C"))

    def test_load_rejects_a_trace_kind(self, grid, tmp_path):
        # a file written before traces became plain arrays: the metadata of
        # a wall trace beside its (t, x1) values
        f = grid.sample(lambda t, x1, x2: x2 + 0 * t * x1)
        meta_path, data_path = save_field(f, tmp_path / "trace")
        tr = normal_derivative(f)
        data_path.write_bytes(tr.astype("<f8").tobytes())
        meta_path.write_text(meta_path.read_text()
                             .replace("kind: full-field", "kind: boundary-trace")
                             .replace("segment: -", "segment: x2_max")
                             .replace("shape: " + ",".join(map(str, grid.shape)),
                                      "shape: " + ",".join(map(str, tr.shape))))
        with pytest.raises(ValueError, match="kind"):
            load_field(tmp_path / "trace")
