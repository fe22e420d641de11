"""Negative controls: each verdict must fail on an input that breaks one of
its hypotheses.  A control that a verdict does not yet notice is a strict
xfail naming the ROADMAP item that mends it; that item drops the marker."""

import numpy as np
import pytest

from waveguide_carleman.carleman import (SLOPE_BAND, carleman_check_bounded, lemma_bounded_check,
                                         lemma_open_check)
from waveguide_carleman.grid import WaveguideDomain, build_grid
from waveguide_carleman.synth import SpaceTimeBump, random_smooth_field
from waveguide_carleman.weights import (AxialWeightProfile, SectionWeightProfile, WeightParams,
                                        assemble_weight, check_assumption_bounded)

S_VALUES = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


@pytest.fixture(scope="module")
def flipped_section():
    """The bounded weight on the top-observed 32x32x64 grid, but with psi2
    rising toward the unobserved bottom wall, and the bump's Carleman
    report over s = 1...32."""
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), 32, 32, 64)
    ws = assemble_weight(WeightParams(), g,
                         psi2_profile=SectionWeightProfile(h=1.0, delta=0.5, obs_side="bottom"))
    bump = SpaceTimeBump(g)
    return ws, carleman_check_bounded(bump.field(), bump.heat_residual(), ws, g, S_VALUES)


def test_flipped_section_profile_breaks_the_normal_slope_hypothesis(flipped_section):
    ws, report = flipped_section
    bullets = {b.name: b for b in check_assumption_bounded(ws).bullets}
    assert not bullets["normal_nonpositive_off_obs"].passed
    constants = [row["empirical_C"] for row in report.sweep]
    assert constants == pytest.approx([1.063, 1.002, 4.089, 35.10, 397.1, 9807], rel=1e-3)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: _find_s0 lets the finite one-row "
                                       "tail s = 32 qualify after a 9,800-fold rise")
def test_bounded_carleman_fails_on_a_flipped_section_profile(flipped_section):
    _, report = flipped_section
    assert report.verdict["s0"] is None
    assert not report.passed


def test_open_lemma_fails_on_fields_across_the_anchor():
    # the open prefix inequality controls F supported right of the anchor;
    # draws on both sides of it fit rising slopes, far outside the band
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=True), 127, 7, 32)
    ws = assemble_weight(WeightParams(lam=1.1, regime="open"), g)
    rng = np.random.default_rng(1234)
    slopes = []
    for _ in range(3):
        F = random_smooth_field(g, rng, anchored_right=False)
        report = lemma_open_check(F, ws, g, [4.0, 8.0, 16.0, 32.0, 64.0])
        assert not report.verdict["slope_in_band"]
        assert not report.passed
        slopes.append(report.verdict["fitted_slope"])
    assert slopes == pytest.approx([2.145, 1.149, 1.109], abs=1e-3)
    assert all(slope > SLOPE_BAND[1] for slope in slopes)


@pytest.fixture(scope="module")
def peak_off_anchor():
    """The bounded weight on the 32x32x64 grid anchored at 0, but with psi1
    peaking at 0.5, and the three seeded draws' prefix reports over the
    finite rows s = 1, 2, 4, 8 (the rows s >= 16 read 0/0 today)."""
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), 32, 32, 64)
    ws = assemble_weight(WeightParams(), g,
                         psi1_profile=AxialWeightProfile(L=1.0, alpha=0.5, c1=0.5))
    rng = np.random.default_rng(1234)
    return ws, [lemma_bounded_check(random_smooth_field(g, rng), ws, g, [1.0, 2.0, 4.0, 8.0])
                for _ in range(3)]


def test_axial_peak_off_the_anchor_breaks_the_prefix_hypothesis(peak_off_anchor):
    ws, reports = peak_off_anchor
    bullets = {b.name: b for b in check_assumption_bounded(ws).bullets}
    assert not bullets["axial_slope_negative_right"].passed
    constants = [row["empirical_C"] for row in reports[0].sweep]
    assert constants == pytest.approx([0.2759, 0.2093, 0.1456, 0.1030], rel=1e-3)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the seeded draws' constants fall "
                                       "with s; only the worst case over all F rises")
def test_bounded_lemma_fails_on_an_axial_peak_off_the_anchor(peak_off_anchor):
    _, reports = peak_off_anchor
    assert all(not report.passed for report in reports)
