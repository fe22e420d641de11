import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveguide_carleman import WaveguideDomain, WeightParams, assemble_weight, build_grid
from waveguide_carleman.carleman import (
    InequalityReport,
    WeightOverflowError,
    _masses,
    _ratio,
    _split_parts,
    _weight_coefficients,
    carleman_check_bounded,
    carleman_check_open,
    conjugated_operator,
    lemma_bounded_check,
    lemma_open_check,
    r_monotonicity_audit,
    weighted_norm_I1,
)
from waveguide_carleman.grid import (
    FULL,
    ScalarField,
    gradient,
    laplacian,
    normal_derivative,
    prefix_integral_x1,
    time_derivative,
)
from waveguide_carleman.synth import SpaceTimeBump, random_smooth_field
from waveguide_carleman.weights import SectionWeightProfile


def _trap(n, d):
    w = np.full(n, d)
    w[0] = w[-1] = 0.5 * d
    return w


def _full_grid_weights(g):
    return _trap(g.nt + 1, g.dt), _trap(g.n1 + 2, g.dx1), _trap(g.n2 + 2, g.dx2)


@pytest.fixture
def ws(grid):
    return assemble_weight(WeightParams(lam=1.0, s=1.0), grid)


@pytest.fixture
def open_ws(open_grid):
    return assemble_weight(WeightParams(lam=0.5, s=1.0, regime="open"), open_grid)


class TestWeightedNorm:
    def test_zero_field_gives_zero_terms(self, grid, ws):
        z = ScalarField(grid, np.zeros(grid.shape), FULL)
        terms = weighted_norm_I1(z, ws)
        assert all(v == 0.0 for v in terms.values())

    @pytest.mark.parametrize("s", [1.0, 24.0])
    @pytest.mark.parametrize("field", ["ones", "smooth"])
    def test_matches_hand_quadrature_on_debug_grid(self, domain, s, field):
        # explicit loops over every node reproduce the vectorized terms; at
        # s = 24 the underflow clamp zeroes 72 of the 108 interior decay nodes
        g = build_grid(domain, 4, 4, 4)
        ws = assemble_weight(WeightParams(lam=1.0, s=s), g)
        if field == "ones":
            z = ScalarField(g, np.ones(g.shape), FULL)
        else:
            z = g.sample(lambda t, x1, x2: 1.0 + t * x1**3 * (1.0 - x2) + np.sin(x2 * t))
        terms = weighted_norm_I1(z, ws)

        lap = laplacian(z).values
        zt = time_derivative(z).values
        g1, g2 = gradient(z)
        gsq = g1.values**2 + g2.values**2
        decay = ws.decay()
        sg = ws.params.s * ws.g

        wt, w1, w2 = g.wt, g.w1, g.w2
        hand = {"laplacian": 0.0, "time": 0.0, "gradient": 0.0, "zero_order": 0.0}
        for k in range(1, g.nt):
            for i in range(g.n1 + 2):
                for j in range(g.n2 + 2):
                    wq = wt[k] * w1[i] * w2[j] * decay[k, i, j]
                    hand["laplacian"] += wq * lap[k, i, j] ** 2 / sg[k]
                    hand["time"] += wq * zt[k, i, j] ** 2 / sg[k]
                    hand["gradient"] += wq * sg[k] * gsq[k, i, j]
                    hand["zero_order"] += wq * sg[k] ** 3 * z.values[k, i, j] ** 2
        if s == 24.0:
            assert np.count_nonzero(decay[1:-1] == 0.0) == 72
        for key, val in hand.items():
            assert terms[key] == pytest.approx(val, rel=1e-12, abs=0.0), key

    def test_zero_order_term_scales_with_s_cubed_times_weight_ratio(self, grid, ws, rng):
        z = ScalarField(grid, rng.standard_normal(grid.shape), FULL)
        t1 = weighted_norm_I1(z, ws, s=1.0)["zero_order"]
        t2 = weighted_norm_I1(z, ws, s=2.0)["zero_order"]
        # direct recomputation of the weight ratio
        num = np.einsum(
            "tij,t,i,j->",
            ws.decay(2.0) * z.values**2 * (ws.g**3)[:, None, None],
            grid.wt,
            grid.w1,
            grid.w2,
        )
        den = np.einsum(
            "tij,t,i,j->",
            ws.decay(1.0) * z.values**2 * (ws.g**3)[:, None, None],
            grid.wt,
            grid.w1,
            grid.w2,
        )
        assert t2 / t1 == pytest.approx(8.0 * num / den, rel=1e-12)

    def test_regime_guard(self, grid, open_ws):
        z = ScalarField(grid, np.zeros(grid.shape), FULL)
        with pytest.raises(ValueError):
            weighted_norm_I1(z, open_ws)


class TestLemmaBounded:
    def test_zero_field(self, grid, ws):
        F = ScalarField(grid, np.zeros(grid.shape), FULL)
        rep = lemma_bounded_check(F, ws, grid, s_values=[1, 2, 4, 8, 16])
        assert rep.empirical_C == 0.0

    def test_constant_field_crude_bound(self, grid, ws):
        # |prefix of 1|^2 <= (2L)^2, so the ratio cannot exceed 4
        F = ScalarField(grid, np.ones(grid.shape), FULL)
        rep = lemma_bounded_check(F, ws, grid, s_values=[1, 2, 4, 8, 16])
        assert all(row["empirical_C"] <= 4.0 for row in rep.sweep)

    def test_random_fields_are_s_uniform(self, grid, ws, rng):
        for _ in range(5):
            F = random_smooth_field(grid, rng)
            rep = lemma_bounded_check(F, ws, grid, s_values=[1, 2, 4, 8, 16])
            assert rep.verdict["s_uniform"]
            cs = [row["empirical_C"] for row in rep.sweep]
            assert max(cs) <= 2.0 * cs[0]

    def test_endpoint_supported_field_gives_zero_ratio(self, grid, ws):
        vals = np.zeros(grid.shape)
        vals[0] = 1.0  # weight vanishes at the endpoint levels
        F = ScalarField(grid, vals, FULL)
        rep = lemma_bounded_check(F, ws, grid, s_values=[1, 2, 4, 8, 16])
        assert rep.empirical_C == 0.0

    def test_ratio_rejects_any_positive_lhs_over_zero_rhs(self):
        # a row mass can underflow far below 1e-14 and still be real
        for lhs in (1e-60, 1e-13, 1.0):
            with pytest.raises(ValueError, match="rhs=0"):
                _ratio(lhs, 0.0)
        assert _ratio(0.0, 0.0) == 0.0

    def test_comparison_kernel_bounded_by_one(self, grid):
        for s in (1.0, 4.0, 16.0):
            ws = assemble_weight(WeightParams(lam=1.0, s=s), grid)
            assert r_monotonicity_audit(ws, grid) <= 1.0 + 1e-12


def _alone(g, a, b, wt):
    """a * b contracted alone: the x2 sum in one einsum, then the x1 and
    the time weights ``wt``."""
    rows = np.einsum("tij,tij,j->ti", a, b, g.w2)
    return float(wt @ (rows @ g.w1))


def _interior(g, density, decay, wt=None):
    """One integrand against ``decay`` over the interior time levels."""
    return _alone(g, decay[1:-1], density[1:-1], g.wt[1:-1] if wt is None else wt)


@pytest.mark.parametrize("regime, shape, s_values", [
    ("bounded", (64, 64, 128), [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
    ("open", (255, 31, 64), [4.0, 8.0, 16.0, 32.0, 64.0]),
    ("bounded", (32, 32, 64), [1.0, 2.0, 4.0, 8.0, 16.0]),
    ("open", (127, 7, 32), [4.0, 8.0, 16.0, 32.0, 64.0]),
])
def test_prefix_rows_equal_separate_integrals(regime, shape, s_values):
    # the checkers contract all their integrands against each decay at
    # once; every decay-weighted column keeps the bytes of its integrand
    # contracted alone
    domain = WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=regime == "open")
    g = build_grid(domain, *shape)
    lam = 1.1 if regime == "open" else 1.0
    ws = assemble_weight(WeightParams(lam=lam, s=4.0, regime=regime), g)
    F = random_smooth_field(g, np.random.default_rng(3), anchored_right=regime == "open")
    check = lemma_open_check if regime == "open" else lemma_bounded_check
    G = prefix_integral_x1(F).values ** 2
    for row in check(F, ws, g, s_values).sweep:
        decay = ws.decay(row["s"])
        assert row["lhs"] == _interior(g, G, decay), row["s"]
        assert row["rhs"] == _interior(g, F.values**2, decay), row["s"]

    bump = SpaceTimeBump(g)
    u, Hu = bump.field(), bump.heat_residual()
    g1, g2 = gradient(u)
    grad_sq = g1.values**2 + g2.values**2
    if regime == "bounded":
        densities = [laplacian(u).values ** 2, time_derivative(u).values ** 2, grad_sq,
                     u.values**2]
        for row in carleman_check_bounded(u, Hu, ws, g, s_values).sweep:
            s, decay = row["s"], ws.decay(row["s"])
            sg = s * ws.g[1:-1]
            assert row["rhs_source"] == _interior(g, Hu.values**2, decay), s
            assert row["lhs"] == sum(_interior(g, d, decay, g.wt[1:-1] * sg**p)
                                     for d, p in zip(densities, (-1, -1, 1, 3))), s
        return
    phi, coeffs = ws.weight.values, _weight_coefficients(ws)
    for row in carleman_check_open(u, Hu, ws, g, s_values).sweep:
        s, decay = row["s"], ws.decay(row["s"])
        m1, m2 = _split_parts(g, ws.decay(s / 2) * u.values, coeffs, s)
        expected = {
            "lhs_zero_order": s**3 * lam**4 * _interior(g, phi**3 * u.values**2, decay),
            "lhs_gradient": s * lam * _interior(g, phi * grad_sq, decay),
            "rhs_source": _interior(g, Hu.values**2, decay),
            "lhs_M1": _alone(g, m1, m1, g.wt),
            "lhs_M2": _alone(g, m2, m2, g.wt),
        }
        for key, value in expected.items():
            assert row[key] == value, (s, key)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 5),
    n=st.tuples(st.integers(4, 12), st.integers(4, 40), st.integers(4, 12)),
    stacked=st.booleans(),
    interior=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_masses_member_equals_its_own_call(k, n, stacked, interior, seed):
    # each member of a stacked contraction has the bytes of a call that
    # contracts that member alone, with a shared or its own decay
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), *n)
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((k,) + g.shape)
    decay = rng.random((k,) + g.shape if stacked else g.shape)
    wt = rng.random((k, g.nt + 1))
    if interior:
        stack, decay, wt = stack[:, 1:-1], decay[..., 1:-1, :, :], wt[:, 1:-1]
    got = _masses(g, decay, stack, wt)
    assert len(got) == k
    for m in range(k):
        (own,) = _masses(g, decay[m] if stacked else decay, stack[m : m + 1], wt[m : m + 1])
        assert np.float64(got[m]).tobytes() == np.float64(own).tobytes(), m


def test_bounded_check_peak_memory_in_fields():
    # the five integrands are written one at a time into one stack, so at
    # most the Laplacian's two derivatives are live beside it (about 7.2
    # fields over live data); filling it while the gradient pair is live
    # reads about 9
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), 32, 32, 64)
    ws = assemble_weight(WeightParams(lam=1.0, s=4.0), g)
    bump = SpaceTimeBump(g)
    z, Pz = bump.field(), bump.heat_residual()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        carleman_check_bounded(z, Pz, ws, g, s_values=[2.0, 4.0, 8.0, 16.0, 32.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = (peak - live) / (8 * np.prod(g.shape))
    assert fields < 8.0, fields


class TestLemmaOpen:
    def test_zero_field(self, open_grid, open_ws):
        F = ScalarField(open_grid, np.zeros(open_grid.shape), FULL)
        rep = lemma_open_check(F, open_ws, open_grid, s_values=[4, 8, 16, 32, 64])
        assert rep.empirical_C == 0.0

    def test_report_is_headed_by_the_row_at_the_weight_s(self, open_grid):
        # like the other checkers, the head row is the one at ws.params.s
        ws = assemble_weight(WeightParams(lam=0.5, s=8.0, regime="open"), open_grid)
        F = random_smooth_field(open_grid, np.random.default_rng(0), anchored_right=True)
        rep = lemma_open_check(F, ws, open_grid, s_values=[4, 8, 16])
        head = rep.sweep[1]
        assert head["s"] == 8
        assert (rep.s, rep.lhs, rep.empirical_C) == (8, head["lhs"], head["ratio"])
        assert rep.rhs_terms == {"quadrature": head["rhs"]}

    def test_slope_band_on_reference_configuration(self):
        d = WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=True)
        g = build_grid(d, 127, 7, 16)
        ws = assemble_weight(WeightParams(lam=1.1, s=4.0, regime="open"), g)
        for seed in (0, 1):
            F = random_smooth_field(g, np.random.default_rng(seed), anchored_right=True)
            rep = lemma_open_check(F, ws, g, s_values=[4, 8, 16, 32, 64])
            assert -2.5 <= rep.verdict["fitted_slope"] <= -1.5
            ref = rep.sweep[0]["ratio_times_s2"]
            assert all(row["ratio_times_s2"] <= 4.0 * ref for row in rep.sweep)

    def test_regime_guard(self, open_grid, ws):
        F = ScalarField(open_grid, np.zeros(open_grid.shape), FULL)
        with pytest.raises(ValueError, match="open-regime"):
            lemma_open_check(F, ws, open_grid, s_values=[4])


class TestConjugatedOperator:
    def test_zero_field(self, open_grid, open_ws):
        w = ScalarField(open_grid, np.zeros(open_grid.shape), FULL)
        dec = conjugated_operator(w, open_ws)
        for f in (dec.M_literal, dec.M_expanded, dec.M1, dec.M2, dec.residual):
            assert np.max(np.abs(f.values)) == 0.0

    def test_s_zero_degenerates_exactly(self, open_grid, open_ws):
        bump = SpaceTimeBump(open_grid, amplitude=0.2)
        w = bump.field()
        dec = conjugated_operator(w, open_ws, s=0.0)
        assert np.max(np.abs(dec.residual.values)) == 0.0
        np.testing.assert_array_equal(dec.M1.values, -laplacian(w).values)
        np.testing.assert_array_equal(dec.M2.values, time_derivative(w).values)
        np.testing.assert_array_equal(dec.M_literal.values, dec.M_expanded.values)

    @pytest.mark.parametrize("s", [0.5, 3.0])
    def test_split_parts_equal_the_expressions(self, open_grid, open_ws, s):
        # the in-place M1/M2 give the bytes of the term-by-term expressions
        w = SpaceTimeBump(open_grid, amplitude=0.3).field()
        dec = conjugated_operator(w, open_ws, s=s)
        phi_t = open_ws.weight_time_derivative()
        p1, p2 = open_ws.weight_gradient()
        plap = open_ws.weight_laplacian()
        w1, w2 = gradient(w)
        m1 = -laplacian(w).values - s**2 * (p1**2 + p2**2) * w.values - s * phi_t * w.values
        m2 = (time_derivative(w).values + 2.0 * s * (p1 * w1.values + p2 * w2.values)
              + s * plap * w.values)
        assert dec.M1.values.tobytes() == m1.tobytes()
        assert dec.M2.values.tobytes() == m2.tobytes()

    def test_overflow_guard_names_node(self, open_grid, open_ws):
        w = SpaceTimeBump(open_grid, amplitude=0.2).field()
        with pytest.raises(WeightOverflowError, match="index"):
            conjugated_operator(w, open_ws, s=1e6)

    def test_gap_matches_product_rule_oracle(self, open_domain):
        # the decomposition gap equals 2s*(phi_t w - 2 grad(phi).grad(w)
        # - lap(phi) w); all factors in closed form
        from waveguide_carleman.transform import core_mask

        for n, nt in ((16, 32), (32, 64)):
            g = build_grid(open_domain, n, n, nt)
            ws = assemble_weight(WeightParams(lam=0.25, s=0.5, regime="open"), g)
            bump = SpaceTimeBump(g, amplitude=0.1)
            w = bump.field()
            dec = conjugated_operator(w, ws, s=0.5)
            phi_t = ws.weight_time_derivative()
            p1, p2 = ws.weight_gradient()
            plap = ws.weight_laplacian()
            oracle = 2.0 * 0.5 * (
                phi_t * w.values
                - 2.0 * (p1 * bump.dx1_field() + p2 * bump.dx2_field())
                - plap * w.values
            )
            mask = core_mask(g)
            diff = np.max(np.abs(np.where(mask, dec.residual.values - oracle, 0.0)))
            assert diff <= 10.0 * (g.dx1**2 + g.dt**2)
            # the gap itself is a genuine nonzero field
            assert np.max(np.abs(np.where(mask, oracle, 0.0))) > 1e-3


class TestCarlemanBounded:
    def test_zero_field(self, grid, ws):
        z = ScalarField(grid, np.zeros(grid.shape), FULL)
        rep = carleman_check_bounded(z, z, ws, grid, s_values=[2, 4, 8, 16, 32])
        assert rep.empirical_C == 0.0
        assert rep.verdict["all_finite"]

    def test_bump_suite_constant_behaviour(self, domain):
        g = build_grid(domain, 24, 24, 32)
        ws = assemble_weight(WeightParams(lam=1.0, s=4.0), g)
        bump = SpaceTimeBump(g, amplitude=1.0)
        rep = carleman_check_bounded(bump.field(), bump.heat_residual(), ws, g,
                                     s_values=[2, 4, 8, 16, 32])
        cs = [row["empirical_C"] for row in rep.sweep]
        assert all(np.isfinite(cs))
        assert rep.verdict["s0"] is not None
        s_list = [row["s"] for row in rep.sweep]
        k0 = s_list.index(rep.verdict["s0"])
        tail = cs[k0:]
        assert all(tail[i + 1] <= 1.1 * tail[i] for i in range(len(tail) - 1))

    def test_rejects_nonvanishing_trace(self, grid, ws):
        z = grid.sample(lambda t, x1, x2: 1.0 + 0 * t * x1 * x2)
        with pytest.raises(ValueError, match="vanish"):
            carleman_check_bounded(z, z, ws, grid, s_values=[2, 4, 8, 16, 32])

    def test_sweep_lhs_is_the_weighted_norm(self, grid):
        # the checker integrates its s-independent densities once; every
        # row must still equal a fresh weighted_norm_I1 call bit for bit
        bump = SpaceTimeBump(grid)
        z = bump.field()
        for lam in (1.0, 1.5):
            ws_lam = assemble_weight(WeightParams(lam=lam, s=1.0), grid)
            rep = carleman_check_bounded(z, bump.heat_residual(), ws_lam, grid,
                                         s_values=[1.0, 3.0, 9.0])
            assert len(rep.sweep) == 3
            for row in rep.sweep:
                assert row["lambda"] == lam
                assert row["lhs"] == weighted_norm_I1(z, ws_lam, s=row["s"])["total"]


class TestCarlemanOpen:
    def test_bump_finite_over_sweep(self, open_domain):
        g = build_grid(open_domain, 24, 24, 32)
        ws = assemble_weight(WeightParams(lam=1.0, s=4.0, regime="open"), g)
        bump = SpaceTimeBump(g, amplitude=1.0)
        rep = carleman_check_open(bump.field(), bump.heat_residual(), ws, g,
                                  s_values=[4, 8, 16, 32])
        assert rep.verdict["all_finite"]
        assert all(row["rhs_boundary"] > 0.0 for row in rep.sweep)

    @pytest.mark.parametrize("s", [2.0, 8.0])
    def test_rows_match_full_grid_einsum(self, open_grid, open_ws, s):
        # each decay-weighted row against the full-size integrand contracted
        # by one 4-operand einsum with its own trapezoid weights
        bump = SpaceTimeBump(open_grid)
        u, Hu = bump.field(), bump.heat_residual()
        row = carleman_check_open(u, Hu, open_ws, open_grid, s_values=[s]).sweep[0]
        wt, w1, w2 = _full_grid_weights(open_grid)
        lam, phi, decay = open_ws.params.lam, open_ws.weight.values, open_ws.decay(s)
        g1, g2 = gradient(u)
        dnu_u = normal_derivative(u, "x2_max")
        flux = decay[:, :, -1] * phi[:, :, -1] * dnu_u**2 * open_ws.dpsi_dx2[None, :, -1]
        dec = conjugated_operator(
            ScalarField(open_grid, open_ws.decay(s / 2) * u.values, FULL), open_ws, s=s)
        expected = {
            "lhs_M1": np.einsum("tij,t,i,j->", dec.M1.values**2, wt, w1, w2),
            "lhs_M2": np.einsum("tij,t,i,j->", dec.M2.values**2, wt, w1, w2),
            "lhs_zero_order": s**3 * lam**4 * np.einsum(
                "tij,t,i,j->", decay * phi**3 * u.values**2, wt, w1, w2),
            "lhs_gradient": s * lam * np.einsum(
                "tij,t,i,j->", decay * phi * (g1.values**2 + g2.values**2), wt, w1, w2),
            "rhs_source": np.einsum("tij,t,i,j->", decay * Hu.values**2, wt, w1, w2),
            "rhs_boundary": s * lam * np.einsum("ti,t,i->", flux, wt, w1),
        }
        for key, value in expected.items():
            assert value > 0.0, key
            assert row[key] == pytest.approx(value, rel=1e-12), key

    def test_normal_slope_sign_audit(self, open_grid):
        # a profile sloping away from the observed wall must be refused
        ws = assemble_weight(
            WeightParams(lam=0.5, s=1.0, regime="open"),
            open_grid,
            psi2_profile=SectionWeightProfile(h=1.0, delta=1.5, obs_side="bottom"),
        )
        bump = SpaceTimeBump(open_grid, amplitude=0.5)
        with pytest.raises(ValueError, match="normal slope"):
            carleman_check_open(bump.field(), bump.heat_residual(), ws, open_grid,
                                s_values=[4, 8, 16, 32])


class TestReportSerialization:
    def test_text_round_trip_structure(self, grid, ws, rng):
        F = random_smooth_field(grid, rng)
        rep = lemma_bounded_check(F, ws, grid, s_values=[1, 2])
        text = rep.to_text()
        assert "report: prefix_integral_bounded" in text
        assert "sweep:\ns,lambda,lhs,rhs,empirical_C\n" in text
        assert "empirical_C" in text
        # deterministic serialization
        assert text == rep.to_text()


def _load_bench_gate():
    path = Path(__file__).resolve().parents[1] / "bench" / "gate.py"
    spec = importlib.util.spec_from_file_location("bench_gate", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


class TestPassRule:
    """``InequalityReport.passed`` and the benchmark gate's
    ``verdict_failed`` state one rule; a change to either fails here."""

    @pytest.mark.parametrize("verdict, expected", [
        ({"s_uniform": True, "max_over_sweep": 0.2}, True),
        ({"fitted_slope": -2.0, "slope_in_band": True, "kappa": 0.5}, True),
        ({"s0": 4.0, "all_finite": True, "boundary_trace_max": 0.0}, True),
        ({"s_uniform": False, "max_over_sweep": 3.0}, False),
        ({"fitted_slope": -1.4, "slope_in_band": False, "kappa": 0.5}, False),
        ({"s0": None, "all_finite": True, "boundary_trace_max": 0.0}, False),
        ({"s0": 4.0, "all_finite": False, "boundary_trace_max": 0.0}, False),
    ])
    def test_passed_matches_bench_gate(self, verdict, expected):
        gate = _load_bench_gate()
        rep = InequalityReport(name="r", lam=1.0, s=1.0, lhs=1.0, rhs_terms={},
                               empirical_C=1.0, verdict=verdict)
        assert rep.passed is expected
        assert rep.passed == (not gate.verdict_failed(rep))


class TestGridAgreement:
    """A field, ``grid`` and ``ws.grid`` on grids of one shape but different
    domains used to give a silent pass; every checker now rejects it."""

    @staticmethod
    def _checks(regime):
        if regime == "bounded":
            return [
                lambda F, Pz, ws, g: lemma_bounded_check(F, ws, g, s_values=[1, 2]),
                lambda F, Pz, ws, g: carleman_check_bounded(F, Pz, ws, g, s_values=[2, 4]),
            ]
        return [
            lambda F, Pz, ws, g: lemma_open_check(F, ws, g, s_values=[4, 8]),
            lambda F, Pz, ws, g: carleman_check_open(F, Pz, ws, g, s_values=[4, 8]),
        ]

    @pytest.mark.parametrize("regime", ["bounded", "open"])
    @pytest.mark.parametrize("stray", ["field", "grid", "weight"])
    def test_mismatched_grid_rejected(self, regime, stray):
        near, far = (build_grid(WaveguideDomain(L=L, h=1.0, T=2.0, truncated=regime == "open"),
                                15, 15, 16) for L in (1.0, 3.0))
        grids = {"field": near, "grid": near, "weight": near}
        grids[stray] = far
        bump = SpaceTimeBump(grids["field"])
        ws = assemble_weight(WeightParams(lam=1.0, s=4.0, regime=regime), grids["weight"])
        for check in self._checks(regime):
            with pytest.raises(ValueError, match="share"):
                check(bump.field(), bump.heat_residual(), ws, grids["grid"])
