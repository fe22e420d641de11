"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and exposes one
iteration as a list of operations, each a public call into the package.
Package functions are always reached through their module, so the traced
run's wrappers are the ones called.

* ``desk_pipeline`` - the bounded pipeline at 64x64x128.  The large-grid
  forward solve is about 90% of it, so this is where solver work shows.
* ``open_sweep`` - the prefix-integral and Carleman checkers only, with
  no forward solve: weighted quadrature, decayed weights and stencils.  A
  solver change must read "no change" here.
* ``cli_default`` - all five subcommands in-process at the shipped
  default config (32x32x64).  Per-call overhead, config parsing and
  report/field writes run here and nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from waveguide_carleman import carleman, cli, forward, grid, stability, synth, transform, weights

from gate import OpResult, report_numbers, verdict_failed

DOMAIN = grid.WaveguideDomain(L=1.0, h=1.0, T=2.0)
OPEN_DOMAIN = grid.WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=True)
BOUNDED_PARAMS = weights.WeightParams(lam=1.0, s=4.0, regime="bounded", delta=0.5, c1=0.5)
OPEN_PARAMS = weights.WeightParams(lam=1.1, s=4.0, regime="open", delta=0.5, c1=0.5)
THETAS = [0.1, 0.05, 0.025]
EPSS = [0.25, 0.5]
CARLEMAN_S = [2.0, 4.0, 8.0, 16.0, 32.0]
DRAWS = 3


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    result: Callable[[object], OpResult]
    seed_dependent: bool = False


def _no_span(_name):
    return contextlib.nullcontext()


def _desk_grid():
    return grid.build_grid(DOMAIN, 64, 64, 128)


def _inequality(name: str, report) -> OpResult:
    return OpResult(name, report_numbers(report.to_text()), verdict_failed(report))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.span = _no_span

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def oracle_grid(self):
        raise NotImplementedError

    def oracle_rel_l2(self) -> float:
        return forward.SeparableOracle(self.oracle_grid()).relative_l2_error()


class DeskPipeline(Workload):
    """One perturbation sweep (3 thetas x 2 windows, four solves) and one
    pipeline chain: manufacture_pair at theta = 0.1, build_bundle and the
    bounded Carleman check of z against its differentiated equation."""

    name = "desk_pipeline"

    def setup(self) -> None:
        g = _desk_grid()
        self.grid = g
        self.q = synth.q_preset(g, 0.4)
        self.dq = synth.dq_preset(g)
        self.f = synth.axial_factor(g, 0.5)
        self.ws = weights.assemble_weight(BOUNDED_PARAMS, g)

    def _sweep(self):
        return stability.perturbation_sweep(self.grid, self.q, self.dq, self.f, THETAS, EPSS)

    def _chain(self):
        g = self.grid
        pair = forward.manufacture_pair(g, self.q, self.q + THETAS[0] * self.dq, self.f)
        bundle = transform.build_bundle(pair.u, pair.u_tilde, pair.pot)
        w2 = grid.gradient(bundle.w)[1].values
        Pz = grid.ScalarField(g, bundle.B2.values * w2 + bundle.b_coef.values * bundle.w.values,
                              grid.FULL)
        report = carleman.carleman_check_bounded(bundle.z, Pz, self.ws, g, s_values=CARLEMAN_S)
        return bundle.c1_floor, report

    @staticmethod
    def _sweep_result(reports) -> OpResult:
        numbers = {}
        for i, rep in enumerate(reports):
            numbers.update(report_numbers(rep.to_text(), prefix=f"{i}."))
        return OpResult("perturbation_sweep", numbers)

    @staticmethod
    def _chain_result(raw) -> OpResult:
        c1_floor, report = raw
        res = _inequality("pipeline", report)
        res.numbers["c1_floor"] = c1_floor
        return res

    def ops(self) -> list[Op]:
        return [Op("perturbation_sweep", self._sweep, self._sweep_result),
                Op("pipeline", self._chain, self._chain_result)]

    def oracle_grid(self):
        return self.grid


class OpenSweep(Workload):
    """Three seeded draws through each prefix-integral inequality (open
    grid 255x31x64, bounded grid 64x64x128) and both Carleman checkers on
    the closed-form space-time bump of those grids."""

    name = "open_sweep"

    def setup(self) -> None:
        g = _desk_grid()
        og = grid.build_grid(OPEN_DOMAIN, 255, 31, 64)
        self.grid, self.open_grid = g, og
        self.ws = weights.assemble_weight(BOUNDED_PARAMS, g)
        self.wso = weights.assemble_weight(OPEN_PARAMS, og)
        rng = np.random.default_rng(self.seed)
        self.bounded_draws = [synth.random_smooth_field(g, rng) for _ in range(DRAWS)]
        orng = np.random.default_rng(self.seed)
        self.open_draws = [synth.random_smooth_field(og, orng, anchored_right=True)
                           for _ in range(DRAWS)]
        bump, obump = synth.SpaceTimeBump(g), synth.SpaceTimeBump(og)
        self.bump = (bump.field(), bump.heat_residual())
        self.obump = (obump.field(), obump.heat_residual())

    def ops(self) -> list[Op]:
        g, og = self.grid, self.open_grid
        ops = []
        for k, F in enumerate(self.open_draws):
            name = f"lemma_open_{k}"
            ops.append(Op(name, lambda F=F: carleman.lemma_open_check(
                F, self.wso, og, s_values=[4.0, 8.0, 16.0, 32.0, 64.0]),
                lambda rep, name=name: _inequality(name, rep), seed_dependent=True))
        for k, F in enumerate(self.bounded_draws):
            name = f"lemma_bounded_{k}"
            ops.append(Op(name, lambda F=F: carleman.lemma_bounded_check(
                F, self.ws, g, s_values=[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
                lambda rep, name=name: _inequality(name, rep), seed_dependent=True))
        ops.append(Op("carleman_open", lambda: carleman.carleman_check_open(
            *self.obump, self.wso, og, s_values=[4.0, 8.0, 16.0, 32.0]),
            lambda rep: _inequality("carleman_open", rep)))
        ops.append(Op("carleman_bounded", lambda: carleman.carleman_check_bounded(
            *self.bump, self.ws, g, s_values=CARLEMAN_S),
            lambda rep: _inequality("carleman_bounded", rep)))
        return ops

    def oracle_grid(self):
        return self.grid


class CliDefault(Workload):
    """The five subcommands through ``cli.main`` with a config that sets
    only ``scenario.name``; each writes into a fresh ``--out`` directory."""

    name = "cli_default"

    def setup(self) -> None:
        self.config = self.workdir / "scenario.cfg"
        self.config.write_text("[scenario]\nname: bench\n")

    def _command(self, command: str):
        out = tempfile.mkdtemp(dir=self.workdir, prefix=f"{command}-")
        argv = [command, "--config", str(self.config), "--out", out]
        if command == "verify-lemmas":
            argv += ["--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()), self.span(f"cli.{command}"):
            code = cli.main(argv)
        return code, Path(out)

    @staticmethod
    def _command_result(command: str, raw) -> OpResult:
        code, out = raw
        try:
            numbers = {}
            for path in sorted(out.iterdir()):
                if path.name != "config_reference.txt" and path.suffix in (".txt", ".csv"):
                    numbers.update(report_numbers(path.read_text(), prefix=f"{path.name}:"))
        finally:
            shutil.rmtree(out)
        return OpResult(command, numbers, verdict_failed=code == 1, exit_code=code)

    def ops(self) -> list[Op]:
        return [Op(c, lambda c=c: self._command(c),
                   lambda raw, c=c: self._command_result(c, raw),
                   seed_dependent=c == "verify-lemmas")
                for c in ("forward", "check-weights", "verify-lemmas", "verify-carleman",
                          "stability")]

    def oracle_grid(self):
        return cli.ScenarioConfig.parse(self.config).grid()


WORKLOADS = {wl.name: wl for wl in (DeskPipeline, OpenSweep, CliDefault)}
