"""The package's layers as the traced run sees them.

``install`` wraps the public functions of each module; ``layer_metrics``
turns the recorded spans into the per-layer metrics named in
BENCHMARK.json.  Every count and time covers one set-up plus one
iteration (the median over the traced iterations): only
``weights.assemble_weight`` and ``synth.random_smooth_field`` run during
set-up, so for every other layer this is the per-iteration figure.
"""

from __future__ import annotations

import sys

from spans import children_of, covered_length, self_time
from stats import median

PACKAGE = "waveguide_carleman"
STENCILS = ("laplacian", "gradient", "time_derivative")
CLOSED_FORM_DERIVS = ("weight_time_derivative", "weight_gradient", "weight_laplacian")
CHECKERS = ("lemma_bounded_check", "lemma_open_check", "carleman_check_bounded",
            "carleman_check_open")
CLI_COMMANDS = ("forward", "check-weights", "verify-lemmas", "verify-carleman", "stability")


def unknown_block(grid) -> tuple[int, int]:
    """(P, Q) of the per-step linear system, oriented as the solver does it:
    Q, the band half-width, is the smaller side."""
    if grid.domain.truncated:
        p, q = grid.n1, grid.n2
    else:
        p, q = grid.n1 + 2, grid.n2
    return max(p, q), min(p, q)


def banded_lu_cost(p: int, q: int) -> tuple[int, int]:
    """Computed (flops, bytes) of one banded solve with kl = ku = q on
    n = p*q unknowns.  dgbtrf with partial pivoting updates a kl x (kl+ku)
    block per column, n*q*(4q+1) flops; dgbtrs with one right-hand side
    adds n*(6q+1).  Bytes are one pass over the LAPACK band array of
    3q+1 rows by n columns in float64.  Neither counts cache misses."""
    n = p * q
    return n * (4 * q * q + 7 * q + 1), (3 * q + 1) * n * 8


def _solve_attrs(args, kwargs, _result):
    grid = args[0] if args else kwargs["grid"]
    p, q = unknown_block(grid)
    flops, nbytes = banded_lu_cost(p, q)
    return {"steps": grid.nt, "flops_per_step": flops, "bytes_per_step": nbytes}


def _rows(_args, _kwargs, report):
    return {"rows": len(report.sweep)}


def _saved_bytes(args, _kwargs, _result):
    return {"bytes": int(args[0].values.nbytes)}


def install(tracer) -> None:
    """Wrap every traced layer; a name imported into several modules is
    replaced in each of them."""
    holders = [m for name, m in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    mod = {name.rsplit(".", 1)[-1]: sys.modules[f"{PACKAGE}.{name}"] for name in
           ("grid", "weights", "forward", "transform", "carleman", "stability", "synth")}

    def patch(module, attr, name, annotate=None):
        tracer.patch(mod[module], attr, name, holders, annotate)

    patch("grid", "integrate_values", "grid.integrate_values")
    for attr in STENCILS:
        patch("grid", attr, "grid.stencil")
    patch("grid", "save_field", "grid.save_field", _saved_bytes)
    patch("weights", "assemble_weight", "weights.assemble_weight")
    ws_class = mod["weights"].WeightSystem
    tracer.patch(ws_class, "decay", "weights.decay")
    for attr in CLOSED_FORM_DERIVS:
        tracer.patch(ws_class, attr, "weights.closed_form_derivs")
    patch("forward", "solve_heat", "forward.solve_heat", _solve_attrs)
    patch("forward", "manufacture_pair", "forward.manufacture_pair")
    patch("transform", "build_bundle", "transform.build_bundle")
    for attr in CHECKERS:
        patch("carleman", attr, f"carleman.{attr}", _rows)
    patch("carleman", "weighted_norm_I1", "carleman.weighted_norm_I1")
    patch("stability", "perturbation_sweep", "stability.perturbation_sweep")
    patch("stability", "assemble_stability", "stability.assemble_stability")
    patch("synth", "random_smooth_field", "synth.random_smooth_field")


def layer_metrics(spans, verdicts_failed, untraced_iter_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced set-up and the traced
    iterations.  ``verdicts_failed`` holds one count per traced iteration."""
    kids = children_of(spans)
    setup = [sp for sp in spans if sp.iteration == "setup"]
    roots = [sp for sp in spans if sp.name == "iteration"]
    by_iter = {root.iteration: [sp for sp in spans if sp.iteration == root.iteration]
               for root in roots}

    def per_run(fn) -> float:
        """fn over the set-up spans plus its median over the iterations."""
        return fn(setup) + median(fn(group) for group in by_iter.values())

    def named(group, name):
        return [sp for sp in group if sp.name == name]

    def calls(name):
        return per_run(lambda g: float(len(named(g, name))))

    def seconds(name):
        return per_run(lambda g: sum(sp.duration for sp in named(g, name)))

    def self_seconds(prefix):
        return per_run(lambda g: sum(self_time(sp, kids.get(sp.id, ()))
                                     for sp in g if sp.name.startswith(prefix)))

    def ratio(num, den):
        return num / den if den else 0.0

    solves = named(spans, "forward.solve_heat")
    steps = sum(sp.attrs["steps"] for sp in solves)
    solve_s = sum(sp.duration for sp in solves)
    flops = sum(sp.attrs["steps"] * sp.attrs["flops_per_step"] for sp in solves)
    band_bytes = sum(sp.attrs["steps"] * sp.attrs["bytes_per_step"] for sp in solves)

    out = {
        "forward.solve_heat.calls": calls("forward.solve_heat"),
        "forward.solve_heat.s": seconds("forward.solve_heat"),
        "forward.solve_heat.share": median(
            ratio(sum(sp.duration for sp in named(by_iter[r.iteration], "forward.solve_heat")),
                  r.duration) for r in roots),
        "forward.step_ms": 1e3 * ratio(solve_s, steps),
        "forward.manufacture_pair.s": seconds("forward.manufacture_pair"),
        "forward.lu_flops_per_step": ratio(flops, steps),
        "forward.band_bytes_per_step": ratio(band_bytes, steps),
        "forward.lu_gflop_per_s": 1e-9 * ratio(flops, solve_s),
        "transform.build_bundle.calls": calls("transform.build_bundle"),
        "transform.build_bundle.s": seconds("transform.build_bundle"),
        "weights.assemble_weight.s": seconds("weights.assemble_weight"),
        "weights.decay.calls": calls("weights.decay"),
        "weights.decay.s": seconds("weights.decay"),
        "weights.closed_form_derivs.calls": calls("weights.closed_form_derivs"),
        "grid.integrate_values.calls": calls("grid.integrate_values"),
        "grid.integrate_values.us_per_call": 1e6 * ratio(
            sum(sp.duration for sp in named(spans, "grid.integrate_values")),
            len(named(spans, "grid.integrate_values"))),
        "grid.stencil.calls": calls("grid.stencil"),
        "grid.stencil.s": seconds("grid.stencil"),
        "grid.save_field.calls": calls("grid.save_field"),
        "grid.save_field.bytes": per_run(
            lambda g: float(sum(sp.attrs["bytes"] for sp in named(g, "grid.save_field")))),
        "grid.save_field.s": seconds("grid.save_field"),
        "carleman.weighted_norm_I1.calls": calls("carleman.weighted_norm_I1"),
        "carleman.verdicts_failed": median(verdicts_failed),
        "stability.perturbation_sweep.self_s": self_seconds("stability.perturbation_sweep"),
        "stability.assemble_stability.calls": calls("stability.assemble_stability"),
        "stability.assemble_stability.s": seconds("stability.assemble_stability"),
        "synth.random_smooth_field.s": seconds("synth.random_smooth_field"),
        "cli.self_s": self_seconds("cli."),
        "trace.overhead_s": median(r.duration for r in roots) - untraced_iter_s,
        "trace.coverage": min(
            ratio(covered_length([(c.start, c.end) for c in kids.get(r.id, ())],
                                 r.start, r.end), r.duration) for r in roots),
    }
    for checker in CHECKERS:
        runs = named(spans, f"carleman.{checker}")
        out[f"carleman.{checker}.s_per_row"] = ratio(
            sum(sp.duration for sp in runs), sum(sp.attrs["rows"] for sp in runs))
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = seconds(f"cli.{command}")
    return out
