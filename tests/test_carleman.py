import contextlib
import importlib.util
import math
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveguide_carleman import carleman
from waveguide_carleman.carleman import (
    WINDOW_TOLERANCE,
    InequalityReport,
    WeightOverflowError,
    _bounded_integrands,
    _DecayRows,
    _masses,
    _prefix_rows,
    _ratio,
    _split_parts,
    _SplitRows,
    _trim,
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
    WaveguideDomain,
    build_grid,
    derivative,
    gradient,
    laplacian,
    normal_derivative,
    prefix_integral_x1,
    time_derivative,
)
from waveguide_carleman.synth import SpaceTimeBump, random_smooth_field
from waveguide_carleman.weights import SectionWeightProfile, WeightParams, assemble_weight

from closed_forms import bump_gradient


#: The box of a whole field, for direct calls of ``_split_parts``.
_WHOLE = (slice(None), slice(None))


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
        terms = weighted_norm_I1(z, ws, 1.0)
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
        terms = weighted_norm_I1(z, ws, s)

        lap = laplacian(z.values, z.grid)
        zt = time_derivative(z).values
        g1, g2 = gradient(z)
        gsq = g1.values**2 + g2.values**2
        decay = ws.decay(s)
        sg = s * ws.g

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
            weighted_norm_I1(z, open_ws, 1.0)


class TestLemmaBounded:
    def test_zero_field(self, grid, ws):
        # both sides of every row are exactly 0: the rows measure nothing,
        # so they read nan and the verdict fails
        F = ScalarField(grid, np.zeros(grid.shape), FULL)
        rep = lemma_bounded_check(F, ws, grid, s_values=[1, 2, 4, 8, 16])
        assert all(math.isnan(row["empirical_C"]) for row in rep.sweep)
        assert math.isnan(rep.verdict["max_over_sweep"]) and not rep.passed

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

    def test_endpoint_supported_field_gives_nan_ratio(self, grid, ws):
        vals = np.zeros(grid.shape)
        vals[0] = 1.0  # weight vanishes at the endpoint levels
        F = ScalarField(grid, vals, FULL)
        rep = lemma_bounded_check(F, ws, grid, s_values=[1, 2, 4, 8, 16])
        assert rep.lhs == rep.rhs_terms["quadrature"] == 0.0
        assert math.isnan(rep.empirical_C) and not rep.verdict["s_uniform"]

    @pytest.mark.parametrize("zero_row", [0, 2, 4])
    def test_one_zero_row_fails_wherever_it_sits(self, grid, ws, zero_row):
        # a 0/0 row reads nan, and max_over_sweep reads nan whatever the
        # row order (the builtin max skipped a nan after the first row)
        F = random_smooth_field(grid, np.random.default_rng(0))
        s_values = [1, 2, 4, 8, 16]
        masses = [[1.0, 2.0]] * len(s_values)
        masses[zero_row] = [0.0, 0.0]
        with mock.patch.object(carleman._DecayRows, "masses", side_effect=masses):
            rep = lemma_bounded_check(F, ws, grid, s_values)
        assert math.isnan(rep.verdict["max_over_sweep"])
        assert not rep.verdict["s_uniform"] and not rep.passed

    @pytest.mark.parametrize("growth, uniform", [(1.9, True), (2.1, False)])
    def test_s_uniform_allows_twice_the_first_constant(self, grid, ws, growth, uniform):
        rows = [{"s": s, "lambda": 1.0, "lhs": c, "rhs": 1.0}
                for s, c in ((1.0, 0.3), (2.0, 0.3 * growth), (4.0, 0.3))]
        F = ScalarField(grid, np.zeros(grid.shape), FULL)
        with mock.patch.object(carleman, "_prefix_sweep", return_value=rows):
            rep = lemma_bounded_check(F, ws, grid, [1.0, 2.0, 4.0])
        assert rep.verdict["s_uniform"] is uniform and rep.passed is uniform

    def test_ratio_rejects_any_positive_lhs_over_zero_rhs(self):
        # a row mass can underflow far below 1e-14 and still be real
        for lhs in (1e-60, 1e-13, 1.0):
            with pytest.raises(ValueError, match="rhs=0"):
                _ratio(lhs, 0.0)
        assert math.isnan(_ratio(0.0, 0.0))

    def test_comparison_kernel_bounded_by_one(self, grid):
        for s in (1.0, 4.0, 16.0):
            ws = assemble_weight(WeightParams(lam=1.0, s=s), grid)
            assert r_monotonicity_audit(ws) <= 1.0 + 1e-12


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
    # the checkers contract each integrand on its own window of each
    # decay; every decay-weighted column keeps the bytes of its integrand
    # contracted alone over the whole grid
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
        # the two densities of power -1 are summed, in the check's order,
        # before they are integrated
        densities = [laplacian(u.values, u.grid) ** 2 + time_derivative(u).values ** 2,
                     grad_sq, u.values**2]
        for row in carleman_check_bounded(u, Hu, ws, g, s_values).sweep:
            s, decay = row["s"], ws.decay(row["s"])
            sg = s * ws.g[1:-1]
            assert row["rhs_source"] == _interior(g, Hu.values**2, decay), s
            assert row["lhs"] == sum(_interior(g, d, decay, g.wt[1:-1] * sg**p)
                                     for d, p in zip(densities, (-1, 1, 3))), s
        return
    S = ws.spatial_weight
    for row in carleman_check_open(u, Hu, ws, g, s_values).sweep:
        s, decay = row["s"], ws.decay(row["s"])
        sg = s * ws.g[1:-1]
        w = ws.decay(s / 2) * u.values
        m1, m2 = _split_parts(ws, w, derivative(w, g.dt, 0), s, _WHOLE)
        expected = {
            "lhs_zero_order": lam**4 * _interior(g, u.values**2 * (S * S * S), decay,
                                                 g.wt[1:-1] * sg**3),
            "lhs_gradient": lam * _interior(g, grad_sq * S, decay, g.wt[1:-1] * sg),
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
    plane = (0, wt.shape[1], 0, g.n1 + 2)
    got = _masses(g, decay, stack, wt, plane)
    assert len(got) == k
    for m in range(k):
        (own,) = _masses(g, decay[m] if stacked else decay, stack[m : m + 1], wt[m : m + 1],
                         plane)
        assert np.float64(got[m]).tobytes() == np.float64(own).tobytes(), m


def _windowing_every_grid():
    """Window the rows of every grid, however small."""
    return mock.patch.object(carleman, "_WINDOW_MIN_NODES", 0)


def _check_window(rows, cells, masses, reference):
    """A windowed row against the unwindowed one: masses within 1e-15
    relative of ``reference``, each member's exact mass outside the row's
    box (from the per-(t, x1) ``cells``) within its bound, and that bound
    within WINDOW_TOLERANCE of the in-box mass unless the box is the plane."""
    plane = (0, cells.shape[1], 0, cells.shape[2])
    t0, t1, i0, i1 = box = rows.box
    for k, bound in enumerate(rows.dropped):
        assert masses[k] == pytest.approx(reference[k], rel=1e-15, abs=0.0), k
        outside = cells[k].copy()
        outside[t0:t1, i0:i1] = 0.0
        assert outside.sum() <= np.exp(bound) * (1.0 + 1e-12), k
        if box != plane:
            # in logs: WINDOW_TOLERANCE times a subnormal mass underflows to 0
            assert masses[k] > 0.0, k
            assert bound <= math.log(WINDOW_TOLERANCE) + math.log(masses[k]), k


@settings(max_examples=40, deadline=None)
@given(
    regime=st.sampled_from(["bounded", "open"]),
    shape=st.tuples(st.integers(4, 40), st.integers(4, 12), st.integers(4, 32)),
    s=st.floats(1.0, 128.0),
    powers=st.lists(st.sampled_from([-1, 0, 1, 3]), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# a member mass of 6.3e-322 on the box (0, 3, 1, 26)
@example(regime="bounded", shape=(24, 4, 4), s=35.0, powers=[-1], seed=0)
def test_windowed_decay_rows_match_the_full_contraction(regime, shape, s, powers, seed):
    domain = WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=regime == "open")
    g = build_grid(domain, *shape)
    ws = assemble_weight(WeightParams(lam=1.1, s=4.0, regime=regime), g)
    rng = np.random.default_rng(seed)
    stack = np.stack([random_smooth_field(g, rng, anchored_right=regime == "open").values ** 2
                      for _ in powers])
    with _windowing_every_grid():
        rows = _DecayRows(ws, stack, powers)
    masses = rows.masses(s)
    decay, sg = ws.decay(s)[1:-1], s * ws.g[1:-1]
    wts = [g.wt[1:-1] * sg**p for p in powers]
    x2_sums = [np.einsum("tij,tij,j->ti", decay, m[1:-1], g.w2) for m in stack]
    reference = [float(w @ (r @ g.w1)) for w, r in zip(wts, x2_sums)]
    cells = np.array([r * w[:, None] * g.w1 for r, w in zip(x2_sums, wts)])
    _check_window(rows, cells, masses, reference)


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(4, 40), st.integers(4, 12), st.integers(4, 32)),
    s=st.floats(1.0, 128.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_windowed_split_rows_match_the_full_contraction(shape, s, seed):
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=True), *shape)
    ws = assemble_weight(WeightParams(lam=1.1, s=4.0, regime="open"), g)
    u = random_smooth_field(g, np.random.default_rng(seed)).values
    with _windowing_every_grid():
        rows = _SplitRows(ws, u)
    masses = rows.masses(s)
    w = ws.decay(s / 2) * u
    parts = _split_parts(ws, w, derivative(w, g.dt, 0), s, _WHOLE)
    x2_sums = [np.einsum("tij,tij,j->ti", m, m, g.w2) for m in parts]
    reference = [float(g.wt @ (r @ g.w1)) for r in x2_sums]
    cells = np.array([r * g.wt[:, None] * g.w1 for r in x2_sums])
    _check_window(rows, cells, masses, reference)
    # every kept node of the slabs (M1, M2 by turns, in time order) has the
    # bytes of the whole-grid parts, and each mass is the whole-grid plane,
    # zeroed off the box, summed in the same order
    t0, t1, i0, i1 = rows.box
    with mock.patch.object(carleman, "_x2_sums", wraps=carleman._x2_sums) as spy:
        rows._contract(s, rows.box)
    for k, full in enumerate(parts):
        kept = np.concatenate([call.args[1] for call in spy.call_args_list[k::2]])
        assert kept.tobytes() == full[t0:t1, i0:i1].tobytes(), k
    for mass, full in zip(masses, x2_sums):
        kept = np.zeros_like(full)
        kept[t0:t1, i0:i1] = full[t0:t1, i0:i1]
        assert np.float64(mass).tobytes() == np.float64(g.wt @ (kept @ g.w1)).tobytes()


def test_trim_keeps_the_whole_plane_for_a_member_without_bound():
    # member 1's bound is 0 on every cell: nothing of it is left after any
    # cut, so no box covers it and the row runs on the whole plane
    pt = np.array([[0.0, 1.0, 5.0, 1.0, 0.0], [0.0] * 5])
    pi = np.array([[0.0, 6.0, 1.0, 0.0], [0.0] * 4])
    assert _trim(pt, pi, np.array([1.0, 1.0])) == (0, 5, 0, 4)
    assert _trim(pt[:1], pi[:1], np.array([1.0])) == (1, 4, 1, 3)


def _boundary_free_field(g, kind, seed):
    """A field on ``g`` that vanishes on the space boundary, inside normal
    noise, a checkerboard or a near-constant field."""
    rng = np.random.default_rng(seed)
    if kind == "noise":
        v = rng.standard_normal(g.shape)
    elif kind == "checkerboard":
        v = (-1.0) ** np.indices(g.shape).sum(axis=0)
    else:
        v = 1.0 + 1e-3 * rng.standard_normal(g.shape)
    v[:, [0, -1]] = 0.0
    v[:, :, [0, -1]] = 0.0
    return v


def _assert_marginals_bound(marginals, cells):
    """The bound's marginals (pt, pi, top) of a windowed row against the exact
    per-(t, x1) masses ``cells`` (K, T, X) of the whole plane: each level's
    ``pt[k, t] e^top[k]`` and each column's ``pi[k, i] e^top[k]`` is at least
    that level's or column's mass, compared in logs with 1e-9 relative slack."""
    pt, pi, top = marginals
    with np.errstate(divide="ignore"):
        for bound, mass in ((pt, cells.sum(axis=2)), (pi, cells.sum(axis=1))):
            log_bound, log_mass = np.log(bound) + top[:, None], np.log(mass)
            short = log_bound < log_mass - 1e-9 * np.abs(log_mass)
            assert not short.any(), (np.argwhere(short)[0], log_bound[short], log_mass[short])


_FIELD_KINDS = st.sampled_from(["noise", "checkerboard", "near-constant"])


@settings(max_examples=40, deadline=None)
@given(
    regime=st.sampled_from(["bounded", "open"]),
    shape=st.tuples(st.integers(4, 16), st.integers(4, 10), st.integers(4, 16)),
    members=st.lists(st.tuples(_FIELD_KINDS, st.sampled_from([-1, 0, 1, 3])),
                     min_size=1, max_size=3),
    s=st.floats(0.5, 128.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_decay_row_bound_holds_on_every_level_and_column(regime, shape, members, s, seed):
    # the bound a windowed decay row trims by is at least the mass it bounds,
    # level by level and column by column, each member with its (s g)^p
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=regime == "open"), *shape)
    ws = assemble_weight(WeightParams(lam=1.1, s=4.0, regime=regime), g)
    stack = np.stack([_boundary_free_field(g, kind, seed + k) ** 2
                      for k, (kind, _) in enumerate(members)])
    with _windowing_every_grid():
        rows = _DecayRows(ws, stack, [p for _, p in members])
    decay = ws.decay(s)[1:-1]
    cells = np.array([np.einsum("tij,tij,j->ti", decay, m[1:-1], g.w2) * w[:, None] * g.w1
                      for m, w in zip(stack, rows._wts(s))])
    _assert_marginals_bound(rows._marginals(s), cells)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(4, 16), st.integers(4, 10), st.integers(4, 16)),
    kind=_FIELD_KINDS,
    s=st.floats(0.5, 128.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_row_bound_holds_on_every_level_and_column(shape, kind, s, seed):
    # the same for the open Carleman check's M1^2 and M2^2
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=True), *shape)
    ws = assemble_weight(WeightParams(lam=1.1, s=4.0, regime="open"), g)
    u = _boundary_free_field(g, kind, seed)
    with _windowing_every_grid():
        rows = _SplitRows(ws, u)
    w = ws.decay(s / 2) * u
    parts = _split_parts(ws, w, derivative(w, g.dt, 0), s, _WHOLE)
    cells = np.array([np.einsum("tij,tij,j->ti", m, m, g.w2) * g.wt[:, None] * g.w1
                      for m in parts])
    _assert_marginals_bound(rows._marginals(s), cells)


def test_zero_in_box_mass_falls_back_to_the_full_grid():
    # F lives left of the anchor where the open decay is clamped to 0 at
    # s = 64, while its prefix integral reaches the left cap, where the
    # decay is not: the rhs member has no mass in any box and runs on the
    # whole grid, and the ratio raises exactly where the unwindowed masses
    # make it raise
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, alpha=0.95, truncated=True), 63, 7, 16)
    ws = assemble_weight(WeightParams(lam=1.1, s=4.0, regime="open"), g)
    t, x1, x2 = g.mesh()
    values = np.where((x1 >= 0.8) & (x1 < 0.9) & (x2 >= 0.5) & (x2 < 1.0), 1.0 + t, 0.0)
    F = ScalarField(g, np.broadcast_to(values, g.shape).copy(), FULL)
    G = prefix_integral_x1(F).values ** 2
    for s in (4.0, 64.0):
        lhs, rhs = (_interior(g, d, ws.decay(s)) for d in (G, F.values**2))
        assert lhs > 0.0 and (rhs == 0.0) == (s == 64.0)
        with _windowing_every_grid():
            rows = _prefix_rows(F, ws)
            assert rows.masses(s) == [lhs, rhs]
            if rhs == 0.0:
                assert rows.box == (0, g.nt - 1, 0, g.n1 + 2)
                with pytest.raises(ValueError, match="rhs=0"):
                    lemma_open_check(F, ws, g, [s])
            else:
                assert rows.box != (0, g.nt - 1, 0, g.n1 + 2)
                assert lemma_open_check(F, ws, g, [s]).sweep[0]["rhs"] == rhs


def _open_prefix_rows():
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=True), 255, 31, 64)
    ws = assemble_weight(WeightParams(lam=1.1, s=4.0, regime="open"), g)
    F = random_smooth_field(g, np.random.default_rng(1234), anchored_right=True)
    return g, _prefix_rows(F, ws), (4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _bounded_carleman_rows():
    # the rows of carleman_check_bounded on the bump, with the check's four
    # members: each member's lower bound must come from its own peak
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), 64, 64, 128)
    ws = assemble_weight(WeightParams(lam=1.0, s=4.0), g)
    bump = SpaceTimeBump(g)
    rows = _DecayRows(ws, *_bounded_integrands(bump.field(), bump.heat_residual()))
    return g, rows, (2.0, 4.0, 8.0, 16.0, 32.0)


@pytest.mark.parametrize("make_rows", [_open_prefix_rows, _bounded_carleman_rows],
                         ids=["lemma_open", "carleman_bounded"])
def test_lemma_open_row_box_shrinks_with_s(make_rows):
    # on a bench-sized grid a row's box never grows with s, and from s = 16
    # on it covers at most half of the interior (t, x1) plane
    g, rows, s_values = make_rows()
    plane = (g.nt - 1) * (g.n1 + 2)
    previous = (0, g.nt - 1, 0, g.n1 + 2)
    for s in s_values:
        rows.masses(s)
        t0, t1, i0, i1 = box = rows.box
        assert previous[0] <= t0 and t1 <= previous[1], (s, box)
        assert previous[2] <= i0 and i1 <= previous[3], (s, box)
        if s >= 16.0:
            assert (t1 - t0) * (i1 - i0) <= 0.5 * plane, (s, box)
        previous = box


def test_bounded_check_peak_memory_in_fields():
    # the integrands are written one at a time into one stack of four
    # members, one per power of s g and then Pz^2, each derivative straight
    # into its member, so at most one full-size temporary is live beside
    # it: 5.28 fields over live data on this grid (1.07 MiB a field), the
    # rest being (t, x1) planes; the bound leaves half a field of slack.
    # With (Lap z)^2 and z_t^2 in two members it reads 6.34
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), 32, 32, 120)
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
    assert fields <= 4 + 1 + 0.5, fields


def test_open_check_peak_memory():
    # the weight's derivatives enter as time profiles times spatial
    # factors, never as full-size fields: about 25.2 MiB over live data at
    # 255x31x64 (4.2 MiB a field), where five full-size coefficient fields
    # read 46.2 MiB
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=True), 255, 31, 64)
    ws = assemble_weight(WeightParams(lam=1.1, s=4.0, regime="open"), g)
    bump = SpaceTimeBump(g)
    u, Hu = bump.field(), bump.heat_residual()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        carleman_check_open(u, Hu, ws, g, s_values=[4.0, 8.0, 16.0, 32.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - live) / 2**20 <= 30.0, (peak - live) / 2**20


class TestLemmaOpen:
    def test_zero_field(self, open_grid, open_ws):
        F = ScalarField(open_grid, np.zeros(open_grid.shape), FULL)
        rep = lemma_open_check(F, open_ws, open_grid, s_values=[4, 8, 16, 32, 64])
        assert all(math.isnan(row["ratio"]) for row in rep.sweep)
        assert math.isnan(rep.verdict["fitted_slope"]) and not rep.passed

    @pytest.mark.parametrize("rhs", [1.0, 0.0])
    def test_slope_fits_every_row(self, open_grid, open_ws, rhs):
        # a last row of ratio 0 (0/1) or nan (0/0) used to drop out of the
        # fit, which then read -2 from the other rows and passed
        F = random_smooth_field(open_grid, np.random.default_rng(0), anchored_right=True)
        s_values = [4, 8, 16, 32, 64]
        masses = [[1.0 / s**2, 1.0] for s in s_values[:-1]] + [[0.0, rhs]]
        with mock.patch.object(carleman._DecayRows, "masses", side_effect=masses):
            rep = lemma_open_check(F, open_ws, open_grid, s_values)
        assert math.isnan(rep.verdict["fitted_slope"]) and not rep.passed
        with mock.patch.object(carleman._DecayRows, "masses", side_effect=masses[:-1]):
            rep = lemma_open_check(F, open_ws, open_grid, s_values[:-1])
        assert rep.verdict["fitted_slope"] == pytest.approx(-2.0, rel=1e-12)

    @pytest.mark.parametrize("slope, in_band", [
        (-2.49, True), (-2.51, False), (-1.51, True), (-1.49, False),
    ])
    def test_slope_band_edges(self, open_grid, open_ws, slope, in_band):
        rows = [{"s": s, "lambda": 0.5, "lhs": s**slope, "rhs": 1.0} for s in (4.0, 8.0, 16.0)]
        F = ScalarField(open_grid, np.zeros(open_grid.shape), FULL)
        with mock.patch.object(carleman, "_prefix_sweep", return_value=rows):
            rep = lemma_open_check(F, open_ws, open_grid, [4.0, 8.0, 16.0])
        assert rep.verdict["fitted_slope"] == pytest.approx(slope, rel=1e-12)
        assert rep.verdict["slope_in_band"] is in_band and rep.passed is in_band

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
        dec = conjugated_operator(w, open_ws, s=1.0)
        for f in (dec.M_literal, dec.M1, dec.M2, dec.residual):
            assert np.max(np.abs(f.values)) == 0.0

    def test_s_zero_degenerates_exactly(self, open_grid, open_ws):
        bump = SpaceTimeBump(open_grid, amplitude=0.2)
        w = bump.field()
        dec = conjugated_operator(w, open_ws, s=0.0)
        assert np.max(np.abs(dec.residual.values)) == 0.0
        np.testing.assert_array_equal(dec.M1.values, -laplacian(w.values, w.grid))
        np.testing.assert_array_equal(dec.M2.values, time_derivative(w).values)

    @pytest.mark.parametrize("s", [0.5, 3.0])
    def test_split_parts_equal_the_expressions(self, open_grid, open_ws, s):
        # the in-place M1/M2 give the bytes of the term-by-term expressions
        # written from the weight's time profiles and spatial factors, in
        # the order _split_parts sums them
        ws = open_ws
        w = SpaceTimeBump(open_grid, amplitude=0.3).field()
        dec = conjugated_operator(w, ws, s=s)
        v, (w1, w2) = w.values, gradient(w)
        sg, sg_t = (s * ws.g)[:, None, None], (s * ws.g_t)[:, None, None]
        f1, f2 = ws.gradient_factors
        m1 = -laplacian(v, w.grid) - ((f1**2 + f2**2) * sg**2 + ws.spatial_weight * sg_t) * v
        m2 = ((2.0 * (w1.values * f1 + w2.values * f2) + ws.laplacian_factor * v) * sg
              + time_derivative(w).values)
        assert dec.M1.values.tobytes() == m1.tobytes()
        assert dec.M2.values.tobytes() == m2.tobytes()
        # and they are the full-field closed-form expressions up to round-off
        phi_t = ws.weight_time_derivative()
        p1, p2 = ws.weight_gradient()
        plap = ws.weight_laplacian()
        full = (-laplacian(w.values, w.grid) - s**2 * (p1**2 + p2**2) * v - s * phi_t * v,
                time_derivative(w).values + 2.0 * s * (p1 * w1.values + p2 * w2.values)
                + s * plap * v)
        for part, expected in zip((dec.M1, dec.M2), full):
            assert np.max(np.abs(part.values - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_overflow_guard_names_node(self, open_grid, open_ws):
        w = SpaceTimeBump(open_grid, amplitude=0.2).field()
        with pytest.raises(WeightOverflowError, match=r"index \(\d+, \d+, \d+\)$"):
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
            dx1_bump, dx2_bump = bump_gradient(bump)
            oracle = 2.0 * 0.5 * (
                phi_t * w.values
                - 2.0 * (p1 * dx1_bump + p2 * dx2_bump)
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
        # every row is 0/0: it measures nothing and fails all_finite
        assert all(math.isnan(row["empirical_C"]) for row in rep.sweep)
        assert not rep.verdict["all_finite"] and not rep.passed

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

    def test_sweep_lhs_is_the_weighted_norm(self, grid, domain):
        # the checker integrates its s-independent densities once, (Lap z)^2
        # and z_t^2 summed in one member; every row must equal a fresh
        # weighted_norm_I1 total up to the rounding of its three trapezoid
        # sums of nonnegative terms, on the small grid and on a windowed one
        for g in (grid, build_grid(domain, 64, 64, 128)):
            rtol = (g.nt + g.n1 + g.n2 + 8) * np.finfo(float).eps
            bump = SpaceTimeBump(g)
            z = bump.field()
            for lam in (1.0, 1.5):
                ws_lam = assemble_weight(WeightParams(lam=lam, s=1.0), g)
                rep = carleman_check_bounded(z, bump.heat_residual(), ws_lam, g,
                                             s_values=[1.0, 3.0, 9.0])
                assert len(rep.sweep) == 3
                for row in rep.sweep:
                    assert row["lambda"] == lam
                    total = weighted_norm_I1(z, ws_lam, s=row["s"])["total"]
                    assert row["lhs"] == pytest.approx(total, rel=rtol, abs=0.0), (g.shape, lam)


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
        # each windowed row against the full-size integrand contracted over
        # the whole grid by one 4-operand einsum with its own trapezoid weights
        bump = SpaceTimeBump(open_grid)
        u, Hu = bump.field(), bump.heat_residual()
        row = carleman_check_open(u, Hu, open_ws, open_grid, s_values=[s]).sweep[0]
        wt, w1, w2 = _full_grid_weights(open_grid)
        lam, decay = open_ws.params.lam, open_ws.decay(s)
        phi = np.multiply.outer(open_ws.g, open_ws.spatial_weight)
        g1, g2 = gradient(u)
        dnu_u = normal_derivative(u)
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


class TestFindS0:
    @pytest.mark.parametrize("constants, s0", [
        ([1.0, 2.0, 1.5], 2.0),
        ([1.0, math.nan], None),
        ([math.nan], None),
        ([1.0, 1.0, math.inf], None),
        ([math.inf, math.inf], None),
        ([3.0, math.nan, 2.0, 2.0], 3.0),
    ])
    def test_a_tail_holding_a_non_finite_constant_does_not_qualify(self, constants, s0):
        # a last row of 0/0 (nan) used to be a one-row tail and give its s
        sweep = [{"s": float(k + 1), "C": c} for k, c in enumerate(constants)]
        assert carleman._find_s0(sweep, "C") == s0

    @pytest.mark.parametrize("growth, s0", [(1.05, 1.0), (1.2, 2.0)])
    def test_tail_allows_a_ten_percent_step(self, growth, s0):
        # one step of the given growth, then a flat tail
        sweep = [{"s": float(k + 1), "C": c} for k, c in enumerate([1.0, growth, growth, growth])]
        assert carleman._find_s0(sweep, "C") == s0

    def test_open_sweep_ending_on_a_zero_row_has_no_s0(self, open_grid, open_ws):
        # at s = 1e6 the decay is 0 on every node, so the last row is 0/0
        bump = SpaceTimeBump(open_grid)
        rep = carleman_check_open(bump.field(), bump.heat_residual(), open_ws, open_grid,
                                  s_values=[4.0, 8.0, 1e6])
        assert math.isnan(rep.sweep[-1]["empirical_C"])
        assert rep.verdict["s0"] is None and not rep.passed


def _reflected(f, grid):
    """``f`` mirrored in x2 onto ``grid``."""
    return ScalarField(grid, f.values[:, :, ::-1], FULL)


class TestBottomObservedWall:
    """Observing the bottom wall of x2-reflected fields reads the numbers
    of observing the top wall of the fields themselves."""

    @pytest.mark.parametrize("regime", ["bounded", "open"])
    @pytest.mark.parametrize("windowed", [False, True])
    def test_checkers_match_the_top_observed_reflection(self, regime, windowed):
        check = carleman_check_open if regime == "open" else carleman_check_bounded
        top, bottom = (build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, obs_side=side,
                                                  truncated=regime == "open"), 23, 15, 32)
                       for side in ("top", "bottom"))
        bump = SpaceTimeBump(top)
        u, Hu = bump.field(), bump.heat_residual()
        reports = []
        with _windowing_every_grid() if windowed else contextlib.nullcontext():
            for g, fields in ((top, (u, Hu)), (bottom, (_reflected(u, bottom),
                                                        _reflected(Hu, bottom)))):
                ws = assemble_weight(WeightParams(lam=1.0, s=4.0, regime=regime), g)
                reports.append(check(*fields, ws, g, s_values=[2.0, 4.0, 8.0, 16.0, 32.0]))
        rep_top, rep_bottom = reports
        assert rep_top.verdict["s0"] == rep_bottom.verdict["s0"] is not None
        assert rep_top.verdict["all_finite"] and rep_bottom.verdict["all_finite"]
        for row_top, row_bottom in zip(rep_top.sweep, rep_bottom.sweep, strict=True):
            assert row_top.keys() == row_bottom.keys()
            for key, value in row_top.items():
                assert value > 0.0, key
                assert row_bottom[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


#: Sweeps no checker may accept, each led by its first bad value (for the
#: two out of order, by the value the next one fails to exceed).
_BAD_S = {"empty": [], "negative": [-2.0, 4.0], "zero": [0.0], "nan": [float("nan"), 4.0],
          "inf": [float("inf")], "decreasing": [4.0, 2.0], "repeated": [4.0, 4.0]}
_S_CHECKS = {
    "lemma_bounded": lambda u, Hu, ws, s: lemma_bounded_check(u, ws, ws.grid, s),
    "lemma_open": lambda u, Hu, ws, s: lemma_open_check(u, ws, ws.grid, s),
    "carleman_bounded": lambda u, Hu, ws, s: carleman_check_bounded(u, Hu, ws, ws.grid, s),
    "carleman_open": lambda u, Hu, ws, s: carleman_check_open(u, Hu, ws, ws.grid, s),
    "weighted_norm_I1": lambda u, Hu, ws, s: weighted_norm_I1(u, ws, s[0]),
}


@pytest.mark.parametrize("check, bad", [
    (c, b) for c in _S_CHECKS for b in _BAD_S
    # weighted_norm_I1 takes one s, the first of the sweep
    if c != "weighted_norm_I1" or b not in ("empty", "decreasing", "repeated")])
def test_checkers_reject_s_that_is_not_positive_and_finite(check, bad, grid, open_grid):
    # a negative s used to report a negative constant and pass, s = 0 gave
    # s0 = 0 and an empty sweep an IndexError, and a sweep out of order
    # changed the s-uniform and s0 verdicts; the guard names the values
    # and runs before any integrand stack is allocated
    regime = "open" if check.endswith("open") else "bounded"
    g = open_grid if regime == "open" else grid
    ws = assemble_weight(WeightParams(lam=1.0, s=4.0, regime=regime), g)
    bump = SpaceTimeBump(g)
    u, Hu = bump.field(), bump.heat_residual()
    s_values = _BAD_S[bad]
    named = repr(s_values[0]) if s_values else "[]"
    with mock.patch.object(np, "empty", side_effect=AssertionError("a stack was allocated")):
        with pytest.raises(ValueError, match=re.escape(named)):
            _S_CHECKS[check](u, Hu, ws, s_values)


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
                               empirical_C=1.0, obs_side="top", verdict=verdict)
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
