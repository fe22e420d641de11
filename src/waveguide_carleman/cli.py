"""Command-line front end.

Subcommands::

    forward          run one forward solve (oracle or positive preset)
    check-weights    evaluate the weight assumptions in both regimes
    verify-lemmas    sweep the prefix-integral inequalities
    verify-carleman  sweep both full Carleman estimates
    stability        run the perturbation sweep and stability reports

Configuration is a flat key:value text file with section headers (see
``config_reference.txt``, regenerated into every output directory).  All
keys have documented defaults except ``scenario.name``.  Identical config
and seed produce byte-identical report files: no timestamps are written
and every random draw is seeded.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import carleman as carl
from . import forward as fwd
from . import stability as stab
from . import synth
from . import transform as trans
from . import weights as wts
from .grid import WaveguideDomain, build_grid, fit_convergence_order, report_text, save_field


class ConfigError(Exception):
    """Invalid or missing configuration; the message names the key."""


def _at_least(n: float, floor: int) -> None:
    if not n >= floor:
        raise ValueError(f"{n} is below {floor}")


def _s_sweep(values: list[float], least: int = 1) -> None:
    if len(values) < least:
        raise ValueError(f"needs at least {least} s values, got {values}")
    carl._require_s(values)


def _off_the_caps(grid) -> None:
    if grid.alpha_index in (0, grid.n1 + 1):
        raise ValueError(f"alpha={grid.domain.alpha} snaps to the cap x1={grid.alpha_snapped}")


def _one_of(value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"{value!r} is not one of {', '.join(choices)}")


def finite_float(text: str) -> float:
    """Parse one finite number; raises ValueError otherwise (``inf`` and
    ``nan`` included)."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not finite")
    return value


def float_list(text: str) -> list[float]:
    """Parse a non-empty comma-separated list of finite numbers (config
    values and command-line flags alike); raises ValueError otherwise."""
    values = [finite_float(p) for p in text.replace(";", ",").split(",") if p.strip()]
    if not values:
        raise ValueError(f"empty list: {text!r}")
    return values


# (section, key) -> (default value, parser, description).  A None default
# marks a required key.
_SPEC: dict[str, dict[str, tuple]] = {
    "scenario": {
        "name": (None, str, "label written into every report (required)"),
    },
    "domain": {
        "L": (1.0, finite_float, "axial half-length (truncation radius in open mode)"),
        "h": (1.0, finite_float, "cross-section height"),
        "T": (2.0, finite_float, "final time"),
        "alpha": (0.0, finite_float, "anchor abscissa in (-L, L)"),
        "obs_side": ("top", str, "observed lateral wall: top or bottom"),
    },
    "grid": {
        "n1": (32, int, "interior axial node count"),
        "n2": (32, int, "interior cross-section node count"),
        "nt": (64, int, "time step count"),
    },
    "weights": {
        "lambda": (1.0, finite_float, "weight sharpness"),
        "s": (4.0, finite_float, "headline large parameter"),
        "delta": (0.5, finite_float, "cross-section profile offset"),
        "c1": (0.5, finite_float, "axial profile floor"),
        "s_sweep": ([1.0, 2.0, 4.0, 8.0, 16.0, 32.0], float_list, "s values swept by checks"),
    },
    "open": {
        "n1": (127, int, "axial nodes for open-regime checks"),
        "n2": (7, int, "cross-section nodes for open-regime checks"),
        "nt": (32, int, "time steps for open-regime checks"),
        "lambda": (1.1, finite_float, "weight sharpness for open-regime checks"),
        "s_sweep": ([4.0, 8.0, 16.0, 32.0, 64.0], float_list, "s sweep for the open inequality"),
    },
    "lemmas": {
        "seed": (1234, int, "seed for the random smooth test fields"),
        "draws": (3, int, "number of random fields per inequality"),
    },
    "forward": {
        "preset": ("oracle", str, "oracle (closed-form yardstick) or positive"),
        "q_amplitude": (0.4, finite_float, "amplitude of the potential preset"),
    },
    "carleman": {
        "s_sweep": ([2.0, 4.0, 8.0, 16.0, 32.0], float_list, "s sweep for the bounded estimate"),
        "bump_amplitude": (1.0, finite_float, "amplitude of the boundary-vanishing test bump"),
        "theta": (0.1, finite_float, "perturbation size for the pipeline field"),
    },
    "stability": {
        "theta_list": ([0.1, 0.05, 0.025], float_list, "perturbation sizes"),
        "eps_list": ([0.25, 0.5], float_list, "time-window margins"),
        "q_amplitude": (0.4, finite_float, "amplitude of the potential preset"),
        "f_bump": (0.5, finite_float, "amplitude of the axial factor's cosine bump"),
    },
}


@dataclass
class ScenarioConfig:
    """Fully validated configuration with every default resolved."""

    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict[str, object]:
        return self.values[section]

    @classmethod
    def parse(cls, path: str | Path | None) -> "ScenarioConfig":
        raw = configparser.ConfigParser(interpolation=None)  # a "%" is literal
        raw.optionxform = str  # keys are case-sensitive
        if path is not None:
            try:
                read = raw.read(str(path))
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            if not read:
                raise ConfigError(f"config file not found: {path}")

        values: dict[str, dict[str, object]] = {}
        for section, keys in _SPEC.items():
            values[section] = {}
            for key, (default, parser, _desc) in keys.items():
                if raw.has_option(section, key):
                    text = raw.get(section, key)
                    try:
                        values[section][key] = parser(text)
                    except (TypeError, ValueError) as exc:
                        raise ConfigError(f"invalid value for [{section}] {key}: {text!r}") from exc
                elif default is None:
                    raise ConfigError(f"missing config key: {section}.{key}")
                else:
                    values[section][key] = default

        for section in raw.sections():
            if section not in _SPEC:
                raise ConfigError(f"unknown config section: {section}")
            for key, _ in raw.items(section):
                if key not in _SPEC[section]:
                    raise ConfigError(f"unknown config key: {section}.{key}")

        cfg = cls(values)
        st = cfg["stability"]
        for label, build in (
            ("[grid]/[domain] values", cfg.grid),
            ("[open] values", cfg.open_grid),
            ("[domain] alpha on [grid]", lambda: _off_the_caps(cfg.grid())),
            ("[domain] alpha on [open]", lambda: _off_the_caps(cfg.open_grid())),
            ("[weights] values", lambda: cfg.weight_params("bounded")),
            ("[open] lambda", lambda: cfg.weight_params("open")),
            ("bounded weight on [grid]/[domain]/[weights]",
             lambda: wts.assemble_weight(cfg.weight_params("bounded"), cfg.grid())),
            ("open weight on [open]/[domain]/[weights]",
             lambda: wts.assemble_weight(cfg.weight_params("open"), cfg.open_grid())),
            ("[stability] theta_list", lambda: stab.check_sweep(cfg.grid(), st["theta_list"], [])),
            ("[stability] eps_list", lambda: stab.check_sweep(cfg.grid(), [], st["eps_list"])),
            # theta 0 makes u and u~ coincide, so the pipeline field z vanishes
            ("[carleman] theta",
             lambda: stab.check_sweep(cfg.grid(), [cfg["carleman"]["theta"]], [])),
            ("[lemmas] draws", lambda: _at_least(cfg["lemmas"]["draws"], 1)),
            ("[lemmas] seed", lambda: _at_least(cfg["lemmas"]["seed"], 0)),
            ("[forward] preset", lambda: _one_of(cfg["forward"]["preset"], ("oracle", "positive"))),
            ("[forward] q_amplitude", lambda: _at_least(cfg["forward"]["q_amplitude"], 0)),
            ("[stability] q_amplitude", lambda: _at_least(st["q_amplitude"], 0)),
            ("[stability] f_bump", lambda: synth.axial_factor(cfg.grid(), st["f_bump"])),
            ("[weights] s_sweep", lambda: _s_sweep(cfg["weights"]["s_sweep"])),
            # verify-carleman sweeps all but the last entry; verify-lemmas fits a slope
            ("[open] s_sweep", lambda: _s_sweep(cfg["open"]["s_sweep"], least=2)),
            ("[carleman] s_sweep", lambda: _s_sweep(cfg["carleman"]["s_sweep"])),
        ):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"invalid {label}: {exc}") from exc
        return cfg

    def domain(self, truncated: bool) -> WaveguideDomain:
        d = self["domain"]
        return WaveguideDomain(
            L=d["L"], h=d["h"], T=d["T"], alpha=d["alpha"],
            obs_side=d["obs_side"], truncated=truncated,
        )

    def grid(self):
        g = self["grid"]
        return build_grid(self.domain(False), g["n1"], g["n2"], g["nt"])

    def open_grid(self):
        g = self["open"]
        return build_grid(self.domain(True), g["n1"], g["n2"], g["nt"])

    def weight_params(self, regime: str) -> wts.WeightParams:
        w = self["weights"]
        lam = w["lambda"] if regime == "bounded" else self["open"]["lambda"]
        return wts.WeightParams(
            lam=lam, s=w["s"], regime=regime, delta=w["delta"], c1=w["c1"]
        )


def write_reference(out_dir: Path) -> Path:
    """Document every config key and its default in the output directory."""
    lines = ["# configuration reference: every key with its default", ""]
    for section, keys in _SPEC.items():
        lines.append(f"[{section}]")
        for key, (default, _parser, desc) in keys.items():
            if default is None:
                shown = "<required>"
            elif isinstance(default, list):
                shown = ",".join(repr(v) for v in default)
            else:
                shown = repr(default)
            lines.append(f"{key}: {shown}")
            lines.append(f"# {desc}")
        lines.append("")
    path = out_dir / "config_reference.txt"
    path.write_text("\n".join(lines))
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _emit(path: Path, text: str, line: str | None = None) -> None:
    """Write one report file, then print the report or its summary line."""
    path.write_text(text)
    print(text if line is None else line + "\n", end="")


def cmd_forward(cfg: ScenarioConfig, out: Path) -> int:
    grid = cfg.grid()
    preset = cfg["forward"]["preset"]
    if preset == "oracle":
        oracle = fwd.SeparableOracle(grid)
        u = oracle.solve()
        err_fine = oracle.relative_l2_error(u)
        coarse = build_grid(grid.domain, max(grid.n1 // 2, 4), max(grid.n2 // 2, 4),
                            max(grid.nt // 2, 4))
        err_coarse = fwd.SeparableOracle(coarse).relative_l2_error()
        measured = {
            "relative_l2_error": err_fine,
            "relative_l2_error_coarse": err_coarse,
            "fitted_order": fit_convergence_order([coarse.dx1, grid.dx1], [err_coarse, err_fine]),
        }
    else:
        q = synth.q_preset(grid, cfg["forward"]["q_amplitude"])
        pot = fwd.PotentialSpec(grid, q, synth.axial_factor(grid))
        data = fwd.positive_preset_data(grid, pot)
        [u] = fwd.solve_heat(grid, [pot], data)
        measured = {"min_u": float(np.min(u.values)),
                    "compatibility_residual": fwd.compatibility_residual(data, pot)}
    save_field(u, out / "u")
    _emit(out / f"forward_{preset}.txt", report_text(
        {"report": f"forward_{preset}", "scenario": cfg["scenario"]["name"], **measured}))
    return 0


def cmd_check_weights(cfg: ScenarioConfig, out: Path) -> int:
    passed = []
    for regime, grid, check in (("bounded", cfg.grid(), wts.check_assumption_bounded),
                                ("open", cfg.open_grid(), wts.check_assumption_open)):
        rep = check(wts.assemble_weight(cfg.weight_params(regime), grid))
        _emit(out / f"assumptions_{regime}.txt", rep.to_text())
        passed.append(rep.all_passed)
    return 0 if all(passed) else 1


def cmd_verify_lemmas(cfg: ScenarioConfig, out: Path, seed: int | None = None,
                      s_sweep: list[float] | None = None) -> int:
    rng_seed = seed if seed is not None else cfg["lemmas"]["seed"]
    passed = []
    for regime, grid, sweep, check, summary in (
        ("bounded", cfg.grid(), s_sweep if s_sweep is not None else cfg["weights"]["s_sweep"],
         carl.lemma_bounded_check, "max C {max_over_sweep!r} s_uniform {s_uniform}"),
        ("open", cfg.open_grid(), cfg["open"]["s_sweep"],
         carl.lemma_open_check, "slope {fitted_slope!r} in_band {slope_in_band}"),
    ):
        ws = wts.assemble_weight(cfg.weight_params(regime), grid)
        rng = np.random.default_rng(rng_seed)
        for k in range(cfg["lemmas"]["draws"]):
            F = synth.random_smooth_field(grid, rng, anchored_right=regime == "open")
            rep = check(F, ws, grid, s_values=sweep)
            _emit(out / f"lemma_{regime}_{k:02d}.txt", rep.to_text(),
                  f"lemma_{regime} draw {k}: " + summary.format(**rep.verdict))
            passed.append(rep.passed)
    return 0 if all(passed) else 1


def cmd_verify_carleman(cfg: ScenarioConfig, out: Path) -> int:
    passed = []

    def report(rep: carl.InequalityReport, stem: str) -> None:
        name, case = stem.rsplit("_", 1)
        _emit(out / f"{stem}.txt", rep.to_text(),
              f"{name} {case}: s0 {rep.verdict['s0']!r} finite {rep.verdict['all_finite']}")
        passed.append(rep.passed)

    grid = cfg.grid()
    ws = wts.assemble_weight(cfg.weight_params("bounded"), grid)
    sweep = cfg["carleman"]["s_sweep"]

    bump = synth.SpaceTimeBump(grid, amplitude=cfg["carleman"]["bump_amplitude"])
    report(carl.carleman_check_bounded(bump.field(), bump.heat_residual(), ws, grid,
                                       s_values=sweep), "carleman_bounded_bump")

    theta = cfg["carleman"]["theta"]
    q = synth.q_preset(grid, cfg["forward"]["q_amplitude"])
    pair = fwd.manufacture_pair(grid, q, q + theta * synth.dq_preset(grid),
                                synth.axial_factor(grid))
    bundle = trans.build_bundle(pair.u, pair.u_tilde, pair.pot)
    report(carl.carleman_check_bounded(bundle.z, trans.z_source(bundle), ws, grid,
                                       s_values=sweep), "carleman_bounded_pipeline")

    ogrid = cfg.open_grid()
    wso = wts.assemble_weight(cfg.weight_params("open"), ogrid)
    obump = synth.SpaceTimeBump(ogrid, amplitude=cfg["carleman"]["bump_amplitude"])
    report(carl.carleman_check_open(obump.field(), obump.heat_residual(), wso, ogrid,
                                    s_values=cfg["open"]["s_sweep"][:-1]),
           "carleman_open_bump")

    return 0 if all(passed) else 1


def cmd_stability(cfg: ScenarioConfig, out: Path,
                  eps_list: list[float] | None = None) -> int:
    grid = cfg.grid()
    st = cfg["stability"]
    q = synth.q_preset(grid, st["q_amplitude"])
    dq = synth.dq_preset(grid)
    f = synth.axial_factor(grid, st["f_bump"])
    epss = eps_list if eps_list is not None else st["eps_list"]
    reports = stab.perturbation_sweep(grid, q, dq, f, st["theta_list"], epss)
    for i, rep in enumerate(reports):
        (out / f"stability_{i:02d}.txt").write_text(rep.to_text())
    _emit(out / "stability_sweep.csv", stab.sweep_table(reports))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveguide-carleman",
        description="forward solves and weighted-inequality checks for the "
                    "waveguide heat problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("forward", "check-weights", "verify-lemmas", "verify-carleman", "stability"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="path to the config file")
        p.add_argument("--out", type=str, default="out", help="output directory")
        if name == "verify-lemmas":
            p.add_argument("--seed", type=int, default=None, help="override lemmas.seed")
            p.add_argument("--sweep-s", type=float_list, default=None,
                           help="comma-separated s values overriding weights.s_sweep")
        if name == "stability":
            p.add_argument("--eps", type=float_list, default=None,
                           help="comma-separated window margins overriding stability.eps_list")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = ScenarioConfig.parse(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for flag, check in (("eps", lambda v: stab.check_sweep(cfg.grid(), [], v)),
                        ("sweep_s", _s_sweep), ("seed", lambda v: _at_least(v, 0))):
        if getattr(args, flag, None) is not None:
            try:
                check(getattr(args, flag))
            except ValueError as exc:
                parser.error(f"argument --{flag.replace('_', '-')}: {exc}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_reference(out)

    if args.command == "forward":
        return cmd_forward(cfg, out)
    if args.command == "check-weights":
        return cmd_check_weights(cfg, out)
    if args.command == "verify-lemmas":
        return cmd_verify_lemmas(cfg, out, seed=args.seed, s_sweep=args.sweep_s)
    if args.command == "verify-carleman":
        return cmd_verify_carleman(cfg, out)
    return cmd_stability(cfg, out, eps_list=args.eps)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
