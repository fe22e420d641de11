"""Symmetry relations of the checks at the shipped configuration (bounded
32x32x64, open 127x7x32) and at acceptance criterion 10's small grids.

Three maps leave every reported number in place up to round-off:
mirroring every input in x2 while the other wall is observed, mirroring
in x1 while the anchor is negated, and scaling a field by c, under which
every mass scales by c^2 and every constant stays.  A report that breaks
one has an orientation bug.  The tolerances are relative: 1e-13 for
fields made without a solve, 1e-10 for fields made with one, and 1e-9
for the Carleman report on the pipeline field z, which differentiates
the difference of two solves theta = 0.1 apart and so magnifies their
round-off.  The largest deviations measured are 9.2e-16 without a solve,
3.8e-12 for the reports on solved fields and 7.7e-12 of a transform
field's maximum, and 1.1e-10 for the pipeline report (x2 mirror, shipped
configuration).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from waveguide_carleman.carleman import (
    carleman_check_bounded,
    carleman_check_open,
    lemma_bounded_check,
    lemma_open_check,
)
from waveguide_carleman.cli import ScenarioConfig
from waveguide_carleman.forward import manufacture_pair
from waveguide_carleman.grid import ScalarField
from waveguide_carleman.stability import perturbation_sweep
from waveguide_carleman.synth import (
    SpaceTimeBump,
    axial_factor,
    dq_preset,
    q_preset,
    random_smooth_field,
)
from waveguide_carleman.transform import build_bundle, z_source

NO_SOLVE = 1e-13
SOLVED = 1e-10
PIPELINE = 1e-9

#: sweep columns that are ratios of masses; every other column but s and
#: lambda is a mass
_CONSTANTS = {"empirical_C", "ratio", "ratio_times_s2"}


#: config keys of each base configuration: the shipped defaults, and the
#: small grids of acceptance criterion 10
_BASES = {
    "ci": {},
    "criterion10": {("grid", "n1"): 12, ("grid", "n2"): 12, ("grid", "nt"): 24,
                    ("open", "n1"): 63, ("open", "n2"): 7, ("open", "nt"): 16,
                    ("lemmas", "seed"): 3, ("lemmas", "draws"): 2},
}


@functools.cache
def _config(base: str = "ci", **domain) -> ScenarioConfig:
    """The ``base`` configuration with ``domain``'s keys replaced."""
    overrides = {("domain", key): value for key, value in domain.items()}
    return ScenarioConfig.parse(None, {("scenario", "name"): base, **_BASES[base], **overrides})


@pytest.fixture(params=list(_BASES))
def base(request) -> str:
    return request.param


def _mirrored(f: ScalarField, grid, axis: int) -> ScalarField:
    """``f`` reflected along ``axis`` (1: x1, 2: x2) onto ``grid``."""
    return ScalarField(grid, np.flip(f.values, axis))


def _draws(cfg: ScenarioConfig, regime: str) -> list[ScalarField]:
    """The draws of ``verify-lemmas`` for ``regime`` on ``cfg``."""
    rng = np.random.default_rng(cfg["lemmas"]["seed"])
    return [random_smooth_field(cfg.weights[regime].grid, rng, anchored_right=regime == "open")
            for _ in range(cfg["lemmas"]["draws"])]


def _bump(grid) -> tuple[ScalarField, ScalarField]:
    """The bump of ``verify-carleman`` on ``grid`` and its heat residual."""
    bump = SpaceTimeBump(grid)
    return bump.field(), bump.heat_residual()


def _carleman(u: ScalarField, Hu: ScalarField, cfg: ScenarioConfig, regime: str):
    """``verify-carleman``'s check of ``regime`` on ``cfg`` for u and Hu."""
    ws = cfg.weights[regime]
    if regime == "bounded":
        return carleman_check_bounded(u, Hu, ws, ws.grid, s_values=cfg["carleman"]["s_sweep"])
    return carleman_check_open(u, Hu, ws, ws.grid, s_values=cfg["open"]["s_sweep"][:-1])


def _lemma(F: ScalarField, cfg: ScenarioConfig, regime: str):
    """``verify-lemmas``' check of ``regime`` on ``cfg`` for F."""
    ws = cfg.weights[regime]
    if regime == "bounded":
        return lemma_bounded_check(F, ws, ws.grid, s_values=cfg["weights"]["s_sweep"])
    return lemma_open_check(F, ws, ws.grid, s_values=cfg["open"]["s_sweep"])


def _pipeline(cfg: ScenarioConfig, q: np.ndarray, dq: np.ndarray):
    """``verify-carleman``'s pipeline on ``cfg`` from the potential q and
    the direction dq: its transform bundle and its Carleman report."""
    ws = cfg.weights["bounded"]
    pair = manufacture_pair(ws.grid, q, q + cfg["carleman"]["theta"] * dq, axial_factor(ws.grid))
    bundle = build_bundle(pair.u, pair.u_tilde, pair.pot)
    return bundle, carleman_check_bounded(bundle.z, z_source(bundle), ws, ws.grid,
                                          s_values=cfg["carleman"]["s_sweep"])


def _assert_mirrored_bundle(bundle, mirrored, axis: int, odd: set[str]) -> None:
    """Each field of ``bundle`` is that of ``mirrored`` reflected along
    ``axis``, negated for the names in ``odd``, within ``SOLVED`` of its
    largest magnitude."""
    for name in ("w", "z", "B2", "b_coef"):
        a = getattr(bundle, name).values
        b = np.flip(getattr(mirrored, name).values, axis) * (-1.0 if name in odd else 1.0)
        assert np.max(np.abs(a - b)) <= SOLVED * np.max(np.abs(a)), name


def _cells(text: str) -> list[str]:
    """The cells of a report, its ``obs_side`` line left out."""
    return [cell for line in text.splitlines() if not line.startswith("obs_side: ")
            for cell in line.replace(": ", ",").split(",")]


def _assert_same_numbers(a, b, rel: float) -> None:
    """Reports ``a`` and ``b`` hold the same cells, every number within
    ``rel`` relative of its counterpart; ``nan`` matches only ``nan``."""
    cells_a, cells_b = _cells(a.to_text()), _cells(b.to_text())
    assert len(cells_a) == len(cells_b)
    for x, y in zip(cells_a, cells_b):
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            assert x == y
            continue
        if math.isnan(fx) or math.isnan(fy):
            assert math.isnan(fx) and math.isnan(fy), (x, y)
        else:
            assert fy == pytest.approx(fx, rel=rel, abs=0.0), (x, y)


class TestMirrorInX2:
    """Every input mirrored in x2, the bottom wall observed instead of the top."""

    @pytest.mark.parametrize("regime", ["bounded", "open"])
    def test_carleman_bump(self, base, regime):
        top, bottom = _config(base), _config(base, obs_side="bottom")
        fields = _bump(top.weights[regime].grid)
        rep_top = _carleman(*fields, top, regime)
        rep_bottom = _carleman(*(_mirrored(f, bottom.weights[regime].grid, 2) for f in fields),
                               bottom, regime)
        assert "obs_side: bottom" in rep_bottom.to_text()
        _assert_same_numbers(rep_top, rep_bottom, NO_SOLVE)

    @pytest.mark.parametrize("regime", ["bounded", "open"])
    def test_lemma_draws(self, base, regime):
        top, bottom = _config(base), _config(base, obs_side="bottom")
        for F in _draws(top, regime):
            rep_top = _lemma(F, top, regime)
            rep_bottom = _lemma(_mirrored(F, bottom.weights[regime].grid, 2), bottom, regime)
            _assert_same_numbers(rep_top, rep_bottom, NO_SOLVE)
            if regime == "open":
                assert rep_top.verdict["fitted_slope"] == rep_bottom.verdict["fitted_slope"]

    def test_perturbation_sweep(self, base):
        top, bottom = _config(base), _config(base, obs_side="bottom")
        grid, st = top.grid(), top["stability"]
        q, dq = q_preset(grid, top["forward"]["q_amplitude"]), dq_preset(grid)
        reports = [perturbation_sweep(cfg.grid(), *potentials, axial_factor(cfg.grid()),
                                      st["theta_list"], st["eps_list"])
                   for cfg, potentials in ((top, (q, dq)), (bottom, (q[:, ::-1], dq[:, ::-1])))]
        for rep_top, rep_bottom in zip(*reports, strict=True):
            _assert_same_numbers(rep_top, rep_bottom, SOLVED)

    def test_transform_bundle_and_pipeline(self, base):
        # w, z and b are even in x2 and B2, a derivative in x2, is odd
        top, bottom = _config(base), _config(base, obs_side="bottom")
        q, dq = q_preset(top.grid(), top["forward"]["q_amplitude"]), dq_preset(top.grid())
        bundle, rep_top = _pipeline(top, q, dq)
        mirrored, rep_bottom = _pipeline(bottom, q[:, ::-1], dq[:, ::-1])
        _assert_mirrored_bundle(bundle, mirrored, 2, {"B2"})
        _assert_same_numbers(rep_top, rep_bottom, PIPELINE)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 4 and 13: at seed 1234 open draw 0 fits slope -1.468, outside "
        "[-2.5, -1.5], while its x2 mirror fits -1.601; the verdict depends on which of "
        "two equally likely fields the seed picks"))
    def test_open_lemma_verdict_is_the_mirrors(self):
        cfg = _config()
        grid = cfg.weights["open"].grid
        for F in _draws(cfg, "open"):
            assert (_lemma(F, cfg, "open").passed
                    == _lemma(_mirrored(F, grid, 2), cfg, "open").passed)


def test_carleman_bump_mirrored_in_x1_with_the_anchor_negated(base):
    # The s = 32 row reads 0/0 on both sides (ROADMAP item 12), so only the
    # finite numbers are compared.
    left, right = _config(base, alpha=-0.3), _config(base, alpha=0.3)
    fields = _bump(left.grid())
    _assert_same_numbers(_carleman(*fields, left, "bounded"),
                         _carleman(*(_mirrored(f, right.grid(), 1) for f in fields), right,
                                   "bounded"), NO_SOLVE)


def test_bounded_lemma_draws_mirrored_in_x1_with_the_anchor_negated(base):
    left, right = _config(base, alpha=-0.3), _config(base, alpha=0.3)
    for F in _draws(left, "bounded"):
        _assert_same_numbers(_lemma(F, left, "bounded"),
                             _lemma(_mirrored(F, right.grid(), 1), right, "bounded"), NO_SOLVE)


def test_transform_bundle_and_pipeline_mirrored_in_x1_with_the_anchor_negated(base):
    # f and the data are even in x1: w is even, and z, B2 and b, each a
    # derivative in x1, are odd
    left, right = _config(base, alpha=-0.3), _config(base, alpha=0.3)
    q, dq = q_preset(left.grid(), left["forward"]["q_amplitude"]), dq_preset(left.grid())
    bundle, rep_left = _pipeline(left, q, dq)
    mirrored, rep_right = _pipeline(right, q, dq)
    _assert_mirrored_bundle(bundle, mirrored, 1, {"z", "B2", "b_coef"})
    _assert_same_numbers(rep_left, rep_right, PIPELINE)


@pytest.mark.parametrize("c", [1e-3, 1e3])
@pytest.mark.parametrize("check", ["lemma_bounded", "lemma_open", "carleman_bounded",
                                   "carleman_open"])
def test_scaling_a_field_scales_every_mass_by_c_squared(base, check, c):
    kind, regime = check.split("_")
    cfg = _config(base)
    grid = cfg.weights[regime].grid
    if kind == "lemma":
        F = _draws(cfg, regime)[0]
        rep, rep_c = (_lemma(ScalarField(grid, k * F.values), cfg, regime) for k in (1.0, c))
    else:
        fields = _bump(grid)
        rep, rep_c = (_carleman(*(ScalarField(grid, k * f.values) for f in fields), cfg, regime)
                      for k in (1.0, c))
    for row, row_c in zip(rep.sweep, rep_c.sweep, strict=True):
        assert row.keys() == row_c.keys()
        for key, value in row.items():
            scale = 1.0 if key in _CONSTANTS or key in ("s", "lambda") else c * c
            assert row_c[key] == pytest.approx(scale * value, rel=NO_SOLVE, abs=0.0), key
    for key, value in rep.verdict.items():
        if isinstance(value, bool):
            assert rep_c.verdict[key] is value, key
        elif key != "boundary_trace_max":  # |u| on the boundary scales by c
            assert rep_c.verdict[key] == pytest.approx(value, rel=NO_SOLVE, abs=0.0), key
