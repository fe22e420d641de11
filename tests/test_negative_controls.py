"""Negative controls: each verdict must fail on an input that breaks one of
its hypotheses.  A control that a verdict does not yet notice is a strict
xfail naming the ROADMAP item that mends it; that item drops the marker."""

import pytest

from waveguide_carleman import WaveguideDomain, WeightParams, assemble_weight, build_grid
from waveguide_carleman.carleman import carleman_check_bounded
from waveguide_carleman.synth import SpaceTimeBump
from waveguide_carleman.weights import SectionWeightProfile, check_assumption_bounded

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
