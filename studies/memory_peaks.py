"""Peak memory of each stage of the bounded chain and of the four checkers.

Prints one markdown table: for each call, the ``tracemalloc`` peak above
the data live when it starts, in MiB and in fields of its grid (8 bytes a
node), and what it keeps, in fields, once it returns.  The chain is the
bounded pipeline: ``manufacture_pair`` at theta = 0.1 on the amplitude-0.4
preset, ``build_bundle``, ``z_source`` and ``carleman_check_bounded`` of z
against that source, each stage's result live through the later stages.
The checkers run on one seeded draw (the prefix lemmas) or on the
closed-form bump (the Carleman estimates).

The full size is that of the benchmark (bounded 64x64x128, open
255x31x64); ``--quick`` runs the small grids of acceptance criterion 10
(12x12x24, open 63x7x16).  Run from the repository root::

    PYTHONPATH=src python studies/memory_peaks.py [--quick]
"""

from __future__ import annotations

import argparse
import tracemalloc

import numpy as np

from waveguide_carleman import carleman, forward, synth, transform
from waveguide_carleman.grid import WaveguideDomain, build_grid
from waveguide_carleman.weights import WeightParams, assemble_weight

SIZES = {"full": ((64, 64, 128), (255, 31, 64)), "quick": ((12, 12, 24), (63, 7, 16))}
HEADER = ("call", "input", "grid", "peak MiB", "peak fields", "kept fields")


def rows(quick: bool = False) -> list[tuple]:
    """One row per call: its name, input and grid, then its peak above the
    traced data live when it starts (MiB, fields) and what it keeps once it
    returns (fields)."""
    shape, open_shape = SIZES["quick" if quick else "full"]
    g = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0), *shape)
    og = build_grid(WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=True), *open_shape)
    ws = assemble_weight(WeightParams(lam=1.0, s=4.0, regime="bounded"), g)
    wso = assemble_weight(WeightParams(lam=1.1, s=4.0, regime="open"), og)
    q, dq, f = synth.q_preset(g, 0.4), synth.dq_preset(g), synth.axial_factor(g, 0.5)
    draw = synth.random_smooth_field(g, np.random.default_rng(1234))
    open_draw = synth.random_smooth_field(og, np.random.default_rng(1234), anchored_right=True)
    bump, open_bump = synth.SpaceTimeBump(g), synth.SpaceTimeBump(og)
    bump_fields = bump.field(), bump.heat_residual()
    open_bump_fields = open_bump.field(), open_bump.heat_residual()
    bounded_s, open_s = [2.0, 4.0, 8.0, 16.0, 32.0], [4.0, 8.0, 16.0, 32.0]
    out = []

    def measure(name, source, grid, call):
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
        field = 8 * int(np.prod(grid.shape))
        out.append((name, source, f"{grid.n1}x{grid.n2}x{grid.nt}",
                    (peak - live) / 2**20, (peak - live) / field, (held - live) / field))
        return result

    tracemalloc.start()
    try:
        pair = measure("forward.manufacture_pair", "pipeline", g,
                       lambda: forward.manufacture_pair(g, q, q + 0.1 * dq, f))
        bundle = measure("transform.build_bundle", "pipeline", g,
                         lambda: transform.build_bundle(pair.u, pair.u_tilde, pair.pot))
        Pz = measure("transform.z_source", "pipeline", g, lambda: transform.z_source(bundle))
        measure("carleman.carleman_check_bounded", "pipeline z", g,
                lambda: carleman.carleman_check_bounded(bundle.z, Pz, ws, g, bounded_s))
        measure("carleman.lemma_bounded_check", "draw", g, lambda: carleman.lemma_bounded_check(
            draw, ws, g, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]))
        measure("carleman.lemma_open_check", "draw", og, lambda: carleman.lemma_open_check(
            open_draw, wso, og, [4.0, 8.0, 16.0, 32.0, 64.0]))
        measure("carleman.carleman_check_bounded", "bump", g,
                lambda: carleman.carleman_check_bounded(*bump_fields, ws, g, bounded_s))
        measure("carleman.carleman_check_open", "bump", og,
                lambda: carleman.carleman_check_open(*open_bump_fields, wso, og, open_s))
    finally:
        tracemalloc.stop()
    return out


def table(quick: bool = False) -> str:
    """The markdown table of :func:`rows`, rounded so that a rerun prints
    the same cells: the few KiB of Python objects in a checker's report
    vary from run to run."""
    lines = ["| " + " | ".join(HEADER) + " |", "|" + " --- |" * len(HEADER)]
    for name, source, grid, mib, peak, kept in rows(quick):
        cells = [f"`{name}`", source, grid, f"{mib:.1f}", f"{peak:.2f}", f"{kept:.2f}"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="the criterion-10 grids instead of the benchmark's")
    print(table(parser.parse_args(argv).quick), end="")


if __name__ == "__main__":
    main()
