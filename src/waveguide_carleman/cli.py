"""Command-line front end.

Subcommands::

    forward          run one forward solve (oracle or positive preset)
    check-weights    evaluate the weight assumptions in both regimes
    verify-lemmas    sweep the prefix-integral inequalities
    verify-carleman  sweep both full Carleman estimates
    stability        run the perturbation sweep and stability reports

Configuration is a flat key:value text file with section headers (see
``config_reference.txt``, regenerated into every output directory).  All
keys have documented defaults except ``scenario.name``.  Every key is
parsed, but a subcommand runs only the rules of the keys it reads, so a
value refused by a rule refuses only the subcommands that read it.
Identical config and seed produce byte-identical report files: no
timestamps are written and every random draw is seeded.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import carleman as carl
from . import forward as fwd
from . import stability as stab
from . import synth
from . import transform as trans
from . import weights as wts
from .grid import (SpaceTimeGrid, WaveguideDomain, build_grid, fit_convergence_order,
                   report_text, save_field)


class ConfigError(Exception):
    """Invalid or missing configuration; the message names the key.  When a
    rule fails, ``label`` names it and ``__cause__`` is its ``ValueError``."""

    def __init__(self, message: str, label: str | None = None):
        super().__init__(message)
        self.label = label


def _rule(label: str, build, *args, **kwargs):
    """Run one rule of :meth:`ScenarioConfig.parse` and return what it
    builds; its ``ValueError`` becomes a ``ConfigError`` naming ``label``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {label}: {exc}", label) from exc


def _at_least(n: float, floor: int) -> None:
    if not n >= floor:
        raise ValueError(f"{n} is below {floor}")


def _s_sweep(values: list[float], least: int = 1) -> None:
    if len(values) < least:
        raise ValueError(f"needs at least {least} s values, got {values}")
    carl._require_s(values)


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
        "name": (None, str, "label written into the forward report (required)"),
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
        "theta": (0.1, finite_float, "perturbation size for the pipeline field"),
    },
    "stability": {
        "theta_list": ([0.1, 0.05, 0.025], float_list, "perturbation sizes"),
        "eps_list": ([0.25, 0.5], float_list, "time-window margins"),
    },
}


@dataclass
class ScenarioConfig:
    """Fully validated configuration with every default resolved, the
    bounded-regime grid and the weight system of each regime (``"bounded"``,
    ``"open"``) that the subcommand uses, each of which holds its grid."""

    values: dict[str, dict[str, object]]
    _grid: SpaceTimeGrid
    weights: dict[str, wts.WeightSystem]

    def __getitem__(self, section: str) -> dict[str, object]:
        return self.values[section]

    @classmethod
    def parse(cls, path: str | Path | None, overrides: dict | None = None,
              command: str | None = None) -> "ScenarioConfig":
        """Read ``path``, let ``overrides`` (``{(section, key): value}``, from
        the command-line flags) replace their keys, then run in order the
        rules of the keys that the subcommand ``command`` reads (every rule
        when it is None), building once each grid and weight system that
        those keys give.  Every key is parsed and named in its errors,
        whichever keys the subcommand reads."""
        raw = configparser.ConfigParser(interpolation=None)  # a "%" is literal
        raw.optionxform = str  # keys are case-sensitive
        if path is not None:
            try:
                read = raw.read(str(path))
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            if not read:
                raise ConfigError(f"config file not found: {path}")
            if raw.defaults():  # configparser adds [DEFAULT]'s keys to every section
                raise ConfigError(f"unknown config section: {raw.default_section}")

        overrides = overrides or {}
        values: dict[str, dict[str, object]] = {}
        for section, keys in _SPEC.items():
            values[section] = {}
            for key, (default, parser, _desc) in keys.items():
                if (section, key) in overrides:
                    values[section][key] = overrides[section, key]
                elif raw.has_option(section, key):
                    text = raw.get(section, key)
                    try:
                        values[section][key] = parser(text)
                    except (TypeError, ValueError) as exc:
                        raise ConfigError(
                            f"invalid value for [{section}] {key}: {text!r}") from exc
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

        def rule(commands: tuple[str, ...], label: str, build, *args, **kwargs):
            """:func:`_rule` when ``command`` is None or one of ``commands``,
            the subcommands that read the rule's keys; else None."""
            return _rule(label, build, *args, **kwargs) if command in (None, *commands) else None

        g, o, w, st, fw = (values[k] for k in ("grid", "open", "weights", "stability", "forward"))
        weighted = ("check-weights", "verify-lemmas", "verify-carleman")  # build both weights
        grid = _rule("[grid]/[domain] values", lambda: build_grid(
            WaveguideDomain(**values["domain"]), g["n1"], g["n2"], g["nt"]))
        open_grid = rule(weighted, "[open] values", lambda: build_grid(
            replace(grid.domain, truncated=True), o["n1"], o["n2"], o["nt"]))
        params = rule(weighted, "[weights] values", wts.WeightParams,
                      lam=w["lambda"], delta=w["delta"], c1=w["c1"])
        open_params = rule(weighted, "[open] lambda", replace, params, lam=o["lambda"],
                           regime="open")
        weights = {
            "bounded": rule(weighted, "bounded weight on [grid]/[domain]/[weights]",
                            wts.assemble_weight, params, grid),
            "open": rule(weighted, "open weight on [open]/[domain]/[weights]",
                         wts.assemble_weight, open_params, open_grid),
        }
        rule(("stability",), "[stability] theta_list", stab.check_sweep, grid,
             st["theta_list"], [])
        rule(("stability",), "[stability] eps_list", stab.check_sweep, grid, [], st["eps_list"])
        # theta 0 makes u and u~ coincide, so the pipeline field z vanishes
        rule(("verify-carleman",), "[carleman] theta", stab.check_sweep, grid,
             [values["carleman"]["theta"]], [])
        rule(("verify-lemmas",), "[lemmas] draws", _at_least, values["lemmas"]["draws"], 1)
        rule(("verify-lemmas",), "[lemmas] seed", _at_least, values["lemmas"]["seed"], 0)
        rule(("forward",), "[forward] preset", _one_of, fw["preset"], ("oracle", "positive"))
        # the oracle fits its order against a coarse grid of max(n1 // 2, 4)
        # axial nodes, which at n1 = 4 is the grid itself
        if fw["preset"] == "oracle":
            rule(("forward",), "[grid] n1 under the oracle preset", _at_least, g["n1"], 5)
        rule(("forward", "verify-carleman", "stability"), "[forward] q_amplitude", _at_least,
             fw["q_amplitude"], 0)
        rule(("verify-lemmas",), "[weights] s_sweep", _s_sweep, w["s_sweep"])
        # verify-carleman sweeps all but the last entry; verify-lemmas fits a slope
        rule(("verify-lemmas", "verify-carleman"), "[open] s_sweep", _s_sweep, o["s_sweep"],
             least=2)
        rule(("verify-carleman",), "[carleman] s_sweep", _s_sweep, values["carleman"]["s_sweep"])
        return cls(values, grid, {k: ws for k, ws in weights.items() if ws is not None})

    def grid(self) -> SpaceTimeGrid:
        """The bounded-regime grid: [grid] on [domain]."""
        return self._grid


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
        # the oracle reads no anchor, and alpha may snap onto a cap of the coarse axis
        coarse = build_grid(replace(grid.domain, alpha=0.0), max(grid.n1 // 2, 4),
                            max(grid.n2 // 2, 4), max(grid.nt // 2, 4))
        err_coarse = fwd.SeparableOracle(coarse).relative_l2_error()
        measured = {
            "relative_l2_error": err_fine,
            "relative_l2_error_coarse": err_coarse,
            "fitted_order": fit_convergence_order([coarse.dx1, grid.dx1], [err_coarse, err_fine]),
        }
    else:
        q = synth.q_preset(grid, cfg["forward"]["q_amplitude"])
        pot = fwd.PotentialSpec(grid, q, synth.axial_factor(grid))
        data = fwd.positive_preset_data(pot)
        [u] = fwd.solve_heat(grid, [pot], data)
        measured = {"min_u": float(np.min(u.values)),
                    "compatibility_residual": fwd.compatibility_residual(data, pot)}
    save_field(u, out / "u")
    _emit(out / f"forward_{preset}.txt", report_text(
        {"report": f"forward_{preset}", "scenario": cfg["scenario"]["name"], **measured}))
    return 0


def cmd_check_weights(cfg: ScenarioConfig, out: Path) -> int:
    passed = []
    for regime, check in (("bounded", wts.check_assumption_bounded),
                          ("open", wts.check_assumption_open)):
        rep = check(cfg.weights[regime])
        _emit(out / f"assumptions_{regime}.txt", rep.to_text())
        passed.append(rep.all_passed)
    return 0 if all(passed) else 1


def cmd_verify_lemmas(cfg: ScenarioConfig, out: Path) -> int:
    passed = []
    for regime, sweep, check, summary in (
        ("bounded", cfg["weights"]["s_sweep"],
         carl.lemma_bounded_check, "max C {max_over_sweep!r} s_uniform {s_uniform}"),
        ("open", cfg["open"]["s_sweep"],
         carl.lemma_open_check, "slope {fitted_slope!r} in_band {slope_in_band}"),
    ):
        ws = cfg.weights[regime]
        rng = np.random.default_rng(cfg["lemmas"]["seed"])
        for k in range(cfg["lemmas"]["draws"]):
            F = synth.random_smooth_field(ws.grid, rng, anchored_right=regime == "open")
            rep = check(F, ws, ws.grid, s_values=sweep)
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

    ws = cfg.weights["bounded"]
    grid = ws.grid
    sweep = cfg["carleman"]["s_sweep"]

    bump = synth.SpaceTimeBump(grid)
    report(carl.carleman_check_bounded(bump.field(), bump.heat_residual(), ws, grid,
                                       s_values=sweep), "carleman_bounded_bump")

    theta = cfg["carleman"]["theta"]
    q = synth.q_preset(grid, cfg["forward"]["q_amplitude"])
    try:
        pair = fwd.manufacture_pair(grid, q, q + theta * synth.dq_preset(grid),
                                    synth.axial_factor(grid))
        bundle = trans.build_bundle(pair.u, pair.u_tilde, pair.pot)
        rep = carl.carleman_check_bounded(bundle.z, trans.z_source(bundle), ws, grid,
                                          s_values=sweep)
    # the solve broke down, or the pipeline broke a hypothesis of the transform or check
    except (ValueError, fwd.SolverBreakdownError) as exc:
        print(f"carleman_bounded pipeline: not checked: {exc}", file=sys.stderr)
        passed.append(False)
    else:
        report(rep, "carleman_bounded_pipeline")

    wso = cfg.weights["open"]
    obump = synth.SpaceTimeBump(wso.grid)
    report(carl.carleman_check_open(obump.field(), obump.heat_residual(), wso, wso.grid,
                                    s_values=cfg["open"]["s_sweep"][:-1]),
           "carleman_open_bump")

    return 0 if all(passed) else 1


def cmd_stability(cfg: ScenarioConfig, out: Path) -> int:
    grid = cfg.grid()
    st = cfg["stability"]
    q = synth.q_preset(grid, cfg["forward"]["q_amplitude"])
    reports = stab.perturbation_sweep(grid, q, synth.dq_preset(grid), synth.axial_factor(grid),
                                      st["theta_list"], st["eps_list"])
    for i, rep in enumerate(reports):
        (out / f"stability_{i:02d}.txt").write_text(rep.to_text())
    _emit(out / "stability_sweep.csv", stab.sweep_table(reports))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# subcommand -> its function (each rule of ScenarioConfig.parse names its readers)
_COMMANDS = {"forward": cmd_forward, "check-weights": cmd_check_weights,
             "verify-lemmas": cmd_verify_lemmas, "verify-carleman": cmd_verify_carleman,
             "stability": cmd_stability}

# flag (its argparse dest) -> the subcommand that takes it and the config key it replaces
_FLAGS = {"seed": ("verify-lemmas", ("lemmas", "seed")),
          "sweep_s": ("verify-lemmas", ("weights", "s_sweep")),
          "eps": ("stability", ("stability", "eps_list"))}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveguide-carleman",
        description="forward solves and weighted-inequality checks for the "
                    "waveguide heat problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="path to the config file")
        p.add_argument("--out", type=str, default="out", help="output directory")
        for dest, (command, (section, key)) in _FLAGS.items():
            if command == name:
                p.add_argument("--" + dest.replace("_", "-"), type=_SPEC[section][key][1],
                               help=f"override {section}.{key}")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    given = {dest: key for dest, (_, key) in _FLAGS.items() if vars(args).get(dest) is not None}
    try:
        cfg = ScenarioConfig.parse(args.config,
                                   {key: getattr(args, dest) for dest, key in given.items()},
                                   args.command)
    except ConfigError as exc:
        for dest, (section, key) in given.items():
            if exc.label == f"[{section}] {key}":
                parser.error(f"argument --{dest.replace('_', '-')}: {exc.__cause__}")
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file, or a path through one
        parser.error(f"argument --out: {exc}")
    write_reference(out)
    try:
        return _COMMANDS[args.command](cfg, out)
    except fwd.SolverBreakdownError as exc:  # from forward's or stability's solve
        print(f"{args.command}: not solved: {exc}", file=sys.stderr)
        return 1
