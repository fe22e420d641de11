"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test finishes by printing one [PASS] line; run with ``pytest -s``
to see them.  Grids stay at desk scale (at most 64x64x256 here) and each
criterion runs in well under two minutes.
"""

import numpy as np
import pytest

from waveguide_carleman.carleman import (
    carleman_check_bounded,
    conjugated_operator,
    lemma_bounded_check,
    lemma_open_check,
    r_monotonicity_audit,
)
from waveguide_carleman.cli import main as cli_main
from waveguide_carleman.forward import (PotentialSpec, SeparableOracle, manufacture_pair,
                                        positive_preset_data, solve_heat)
from waveguide_carleman.grid import (FULL, ScalarField, WaveguideDomain, build_grid,
                                     fit_convergence_order, gradient)
from waveguide_carleman.stability import perturbation_sweep
from waveguide_carleman.synth import SpaceTimeBump, axial_factor, dq_preset, q_preset, random_smooth_field
from waveguide_carleman.transform import (build_bundle, core_mask, ftc_representation_check,
                                          rhs_identity_check, z_residual)
from waveguide_carleman.weights import WeightParams, assemble_weight, check_assumption_bounded

from closed_forms import bump_gradient

DOMAIN = WaveguideDomain(L=1.0, h=1.0, T=2.0)
OPEN_DOMAIN = WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=True)


def test_criterion_01_forward_oracle():
    errs, hs = [], []
    for n, nt in ((16, 64), (32, 128), (64, 256)):
        g = build_grid(DOMAIN, n, n, nt)
        errs.append(SeparableOracle(g).relative_l2_error())
        hs.append(g.dx1)
    order = fit_convergence_order(hs, errs)
    assert errs[-1] <= 1e-3, f"relative error {errs[-1]} at 64x64x256 exceeds 1e-3"
    assert order >= 1.8, f"fitted order {order} below 1.8"
    print(f"[PASS] criterion 1: oracle error {errs[-1]:.3e} <= 1e-3, order {order:.2f} >= 1.8")


def test_criterion_02_weight_assumptions():
    g = build_grid(DOMAIN, 31, 31, 32)
    params = WeightParams(lam=1.0, s=4.0, delta=0.5, c1=0.5)
    ws = assemble_weight(params, g)
    rep = check_assumption_bounded(ws)
    by_name = {b.name: b for b in rep.bullets}
    assert rep.all_passed, rep.to_text()
    assert by_name["psi_positive"].margin >= 0.9 * params.c1 * params.delta
    assert by_name["gradient_lower_bound"].margin >= 0.9 * params.c1
    assert by_name["normal_nonpositive_off_obs"].margin <= 0.0
    print(
        "[PASS] criterion 2: all five bullets pass "
        f"(min psi {by_name['psi_positive'].margin:.3f}, "
        f"min |grad psi| {by_name['gradient_lower_bound'].margin:.3f}, "
        f"max normal slope {by_name['normal_nonpositive_off_obs'].margin:.1e})"
    )


def test_criterion_03_prefix_inequality_bounded():
    g = build_grid(DOMAIN, 31, 31, 32)
    ws = assemble_weight(WeightParams(lam=1.0, s=1.0), g)
    worst_ratio = 0.0
    for seed in range(10):
        F = random_smooth_field(g, np.random.default_rng(seed))
        rep = lemma_bounded_check(F, ws, g, s_values=[1, 2, 4, 8, 16])
        cs = [row["empirical_C"] for row in rep.sweep]
        assert max(cs) <= 2.0 * cs[0], f"seed {seed}: sweep {cs} not s-uniform"
        worst_ratio = max(worst_ratio, max(cs) / cs[0])
    r_max = max(
        r_monotonicity_audit(assemble_weight(WeightParams(lam=1.0, s=s), g))
        for s in (1.0, 4.0, 16.0)
    )
    assert r_max <= 1.0 + 1e-12, f"comparison kernel max {r_max}"
    print(
        f"[PASS] criterion 3: 10 draws s-uniform (worst C(s)/C(1) = {worst_ratio:.3f} <= 2), "
        f"kernel max {r_max:.15f} <= 1+1e-12"
    )


def test_criterion_04_prefix_inequality_open():
    g = build_grid(OPEN_DOMAIN, 127, 7, 32)
    ws = assemble_weight(WeightParams(lam=1.1, s=4.0, regime="open"), g)
    slopes = []
    for seed in range(3):
        F = random_smooth_field(g, np.random.default_rng(seed), anchored_right=True)
        rep = lemma_open_check(F, ws, g, s_values=[4, 8, 16, 32, 64])
        slope = rep.verdict["fitted_slope"]
        assert -2.5 <= slope <= -1.5, f"seed {seed}: slope {slope} outside [-2.5, -1.5]"
        slopes.append(slope)
    print(f"[PASS] criterion 4: decay slopes {[f'{s:.2f}' for s in slopes]} within [-2.5, -1.5]")


def test_criterion_05_transform_pipeline():
    theta = 0.1
    norms, ftc, pw, hs = [], [], [], []
    finest = None
    for n, nt in ((16, 32), (32, 64), (64, 128)):
        g = build_grid(DOMAIN, n, n, nt)
        q = q_preset(g)
        pair = manufacture_pair(g, q, q + theta * dq_preset(g), axial_factor(g))
        bundle = build_bundle(pair.u, pair.u_tilde, pair.pot)
        norms.append(z_residual(bundle)[1])
        ftc.append(ftc_representation_check(bundle)["w_error_l2"])
        pw.append(rhs_identity_check(bundle, pair.pot, pair.pot_tilde)["mismatch_vs_target_l2"])
        hs.append(g.dx1)
        finest = (g, bundle)
    o_res = fit_convergence_order(hs, norms)
    o_ftc = fit_convergence_order(hs, ftc)
    o_pw = fit_convergence_order(hs, pw)
    assert o_res >= 1.8, f"z-residual order {o_res}"
    assert o_ftc >= 1.8, f"reconstruction order {o_ftc}"
    assert o_pw >= 1.8, f"mismatch-identity order {o_pw}"

    g, bundle = finest
    z = bundle.z.values
    sigma_max = max(
        np.max(np.abs(z[:, 0, :])),
        np.max(np.abs(z[:, -1, :])),
        np.max(np.abs(z[:, :, 0])),
        np.max(np.abs(z[:, :, -1])),
    )
    assert sigma_max <= 10.0 * max(g.dx1, g.dx2) ** 2, f"z trace {sigma_max}"
    assert np.max(np.abs(z[0])) == 0.0, "initial level of z must vanish exactly"
    print(
        f"[PASS] criterion 5: orders (residual {o_res:.2f}, reconstruction {o_ftc:.2f}, "
        f"mismatch {o_pw:.2f}) >= 1.8; boundary trace {sigma_max:.2e} <= 10*dx^2; z(0)=0"
    )


def test_criterion_06_carleman_bounded():
    s_values = [2, 4, 8, 16, 32]

    g = build_grid(DOMAIN, 31, 31, 32)
    ws = assemble_weight(WeightParams(lam=1.0, s=4.0), g)
    bump = SpaceTimeBump(g, amplitude=1.0)
    rep_bump = carleman_check_bounded(bump.field(), bump.heat_residual(), ws, g,
                                      s_values=s_values)

    gz = build_grid(DOMAIN, 31, 31, 48)
    wsz = assemble_weight(WeightParams(lam=1.0, s=4.0), gz)
    q = q_preset(gz)
    pair = manufacture_pair(gz, q, q + 0.1 * dq_preset(gz), axial_factor(gz))
    bundle = build_bundle(pair.u, pair.u_tilde, pair.pot)
    Pz = ScalarField(
        gz,
        bundle.B2.values * gradient(bundle.w)[1].values
        + bundle.b_coef.values * bundle.w.values,
        FULL,
    )
    rep_z = carleman_check_bounded(bundle.z, Pz, wsz, gz, s_values=s_values)

    for label, rep in (("bump", rep_bump), ("pipeline", rep_z)):
        cs = [row["empirical_C"] for row in rep.sweep]
        assert np.all(np.isfinite(cs)), f"{label}: non-finite constants {cs}"
        s0 = rep.verdict["s0"]
        assert s0 is not None, f"{label}: no stabilization point found"
        k0 = [row["s"] for row in rep.sweep].index(s0)
        tail = cs[k0:]
        assert all(tail[i + 1] <= 1.1 * tail[i] for i in range(len(tail) - 1)), (
            f"{label}: constants increase beyond s0: {tail}"
        )
    print(
        f"[PASS] criterion 6: empirical constants finite and non-increasing within 10% "
        f"(bump s0={rep_bump.verdict['s0']}, pipeline s0={rep_z.verdict['s0']})"
    )


def test_criterion_07_conjugated_operator():
    g0 = build_grid(OPEN_DOMAIN, 15, 15, 16)
    ws0 = assemble_weight(WeightParams(lam=0.25, s=0.5, regime="open"), g0)
    w0 = SpaceTimeBump(g0, amplitude=0.1).field()
    dec0 = conjugated_operator(w0, ws0, s=0.0)
    exact_zero = float(np.max(np.abs(dec0.residual.values)))
    assert exact_zero == 0.0, f"s=0 residual {exact_zero} not exactly zero"

    s = 0.5
    worst = []
    for n, nt in ((16, 32), (32, 64), (64, 128)):
        g = build_grid(OPEN_DOMAIN, n, n, nt)
        ws = assemble_weight(WeightParams(lam=0.25, s=s, regime="open"), g)
        bump = SpaceTimeBump(g, amplitude=0.1)
        w = bump.field()
        dec = conjugated_operator(w, ws, s=s)
        phi_t = ws.weight_time_derivative()
        p1, p2 = ws.weight_gradient()
        plap = ws.weight_laplacian()
        dx1_bump, dx2_bump = bump_gradient(bump)
        oracle = 2.0 * s * (
            phi_t * w.values
            - 2.0 * (p1 * dx1_bump + p2 * dx2_bump)
            - plap * w.values
        )
        mask = core_mask(g)
        diff = float(np.max(np.abs(np.where(mask, dec.residual.values - oracle, 0.0))))
        tol = 10.0 * (g.dx1**2 + g.dt**2)
        assert diff <= tol, f"n={n}: oracle gap {diff} > {tol}"
        worst.append(diff / tol)
    print(
        f"[PASS] criterion 7: s=0 residual exactly 0; oracle gap within tolerance at "
        f"every level (worst fraction {max(worst):.2f} of 10*(dx^2+dt^2))"
    )


def test_criterion_08_stability_sweep():
    g = build_grid(DOMAIN, 32, 32, 64)
    thetas = [0.1, 0.05, 0.025]
    eps_list = [0.5, 0.25, 0.125]
    reports = perturbation_sweep(
        g, q_preset(g), dq_preset(g), axial_factor(g), thetas, eps_list
    )
    at_fixed_eps = [r for r in reports if r.eps == 0.25]
    lhss = [r.lhs for r in at_fixed_eps]
    order = fit_convergence_order(thetas, lhss)
    assert abs(order - 2.0) <= 0.3, f"mismatch-mass order {order} not 2 +/- 0.3"
    cs = [r.empirical_C_eps for r in at_fixed_eps]
    spread = max(cs) / min(cs)
    assert spread <= 4.0, f"constant spread {spread} exceeds 4"
    for theta in thetas:
        sub = sorted((r for r in reports if r.theta == theta), key=lambda r: r.eps)
        lh = [r.lhs for r in sub]  # ordered by growing eps
        assert all(a >= b for a, b in zip(lh, lh[1:])), f"window monotonicity broke: {lh}"
    print(
        f"[PASS] criterion 8: mismatch-mass order {order:.2f} in 2 +/- 0.3, "
        f"constant spread {spread:.2f} <= 4, window monotonicity exact"
    )


def test_criterion_09_positivity():
    g = build_grid(DOMAIN, 32, 32, 64)
    f = axial_factor(g)
    pot = PotentialSpec(g, q_preset(g, 0.4), f)
    data = positive_preset_data(pot)
    [u_tilde] = solve_heat(g, [pot], data)
    min_u = float(np.min(u_tilde.values))
    min_fu = float(np.min(f[None, :, None] * u_tilde.values))
    assert min_u > 0.0, f"solution minimum {min_u} not positive"
    assert min_fu > 0.0, f"denominator floor {min_fu} not positive"
    print(f"[PASS] criterion 9: min u~ {min_u:.4f} > 0 and min f*u~ {min_fu:.4f} > 0")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "[scenario]\nname: determinism\n\n[grid]\nn1: 12\nn2: 12\nnt: 24\n\n"
        "[open]\nn1: 63\nn2: 7\nnt: 16\n\n[lemmas]\nseed: 3\ndraws: 2\n"
    )
    outs, codes = [], []
    for run in ("a", "b"):
        out = tmp_path / run
        codes.append({
            "verify-lemmas": cli_main(["verify-lemmas", "--config", str(cfg), "--out", str(out)]),
            "stability": cli_main(["stability", "--config", str(cfg), "--out", str(out),
                                   "--eps", "0.25"]),
            "forward": cli_main(["forward", "--config", str(cfg), "--out", str(out)]),
        })
        outs.append(out)
    assert codes[0] == codes[1], f"exit codes differ between identical runs: {codes}"
    assert codes[0]["forward"] == 0 and codes[0]["stability"] == 0, codes[0]
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"output {name} differs between identical runs"
    print(f"[PASS] criterion 10: {len(names)} output files byte-identical across reruns, "
          f"exit codes {codes[0]} on both runs")
