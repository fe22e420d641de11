"""Self-tests of the benchmark's statistics, span arithmetic and gate.

They need neither numpy nor the package, and run with the rest of the
suite (``python -m pytest bench``).
"""

import json
import math
import statistics
import types
from pathlib import Path

import pytest

from gate import OpResult, judge, report_numbers, verdict_failed
from layers import banded_lu_cost, layer_metrics, unknown_block
from spans import Span, Tracer, covered_length, self_time
from stats import median, paired_iteration, quartiles, relative_spread


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# -- statistics -------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, med, q3 = quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert med == median(values) == 3.5
    assert relative_spread(values) == pytest.approx((q3 - q1) / 3.5)


def test_quartiles_of_one_to_ten():
    assert quartiles(range(1, 11)) == (2.75, 5.5, 8.25)
    assert relative_spread(range(1, 11)) == pytest.approx(1.0)


def test_single_sample_has_zero_spread():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert relative_spread([2.5]) == 0.0


def test_median_of_nothing_raises():
    with pytest.raises(ValueError):
        median([])


def test_paired_iteration_counts_operations_in_bursts():
    # Against the mean of the bursts on either side, operation 0 takes 2, 4
    # and 9 bursts, operation 1 takes 1, 1 and 3: medians 4 and 1, so five
    # reference bursts.
    ops = [[2.0, 1.0], [8.0, 2.0], [9.0, 3.0]]
    bursts = [[1.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 1.0]]
    assert paired_iteration(ops, bursts, 0.5) == 2.5
    with pytest.raises(ValueError):
        paired_iteration([], [], 0.5)
    with pytest.raises(ValueError):
        paired_iteration([[1.0, 2.0]], [[1.0, 1.0]], 0.5)


# -- spans ------------------------------------------------------------------


def test_covered_length_merges_and_clips():
    # [1, 3] and [2, 5] overlap; [8, 12] is clipped to the parent's end.
    assert covered_length([(2, 5), (1, 3), (8, 12)], 0, 10) == 6
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_children_coverage():
    parent = Span(0, "p", 0.0, 10.0, None, "iter0")
    kids = [Span(1, "a", 1.0, 3.0, 0, "iter0"), Span(2, "b", 4.0, 7.0, 0, "iter0")]
    assert self_time(parent, kids) == pytest.approx(5.0)
    assert self_time(kids[0], []) == pytest.approx(2.0)


def test_tracer_records_parents_and_self_time():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 6.0, 10.0]))
    tracer.iteration = "iter0"
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
    root, child, grand = tracer.spans
    assert (root.parent, child.parent, grand.parent) == (None, 0, 1)
    assert [sp.duration for sp in tracer.spans] == [10.0, 5.0, 2.0]
    assert self_time(root, [child]) == 5.0
    assert self_time(child, [grand]) == 3.0
    assert {sp.iteration for sp in tracer.spans} == {"iter0"}


def test_patch_replaces_every_holder_and_unpatch_restores():
    def f(x):
        return 2 * x

    owner = types.ModuleType("owner")
    owner.f = f
    importer = types.ModuleType("importer")
    importer.g = f  # imported under another name
    tracer = Tracer(clock=FakeClock([0.0, 1.0]))
    tracer.patch(owner, "f", "layer.f", holders=[importer],
                 annotate=lambda args, kwargs, result: {"arg": args[0]})
    assert importer.g(3) == 6
    assert [(sp.name, sp.attrs) for sp in tracer.spans] == [("layer.f", {"arg": 3})]
    assert owner.f is not f
    tracer.unpatch()
    assert owner.f is f and importer.g is f


# -- gate -------------------------------------------------------------------


def test_report_numbers_reads_lines_margins_and_tables():
    text = ("report: x\nlhs: 0.5\nverdict.ok: True\nverdict.s0: None\n"
            "bullet.psi_positive: pass margin=0.25 (detail)\n"
            "sweep:\ns,ratio\n1.0,0.5\n2.0,nan\n")
    assert report_numbers(text, prefix="f:") == {
        "f:lhs": 0.5, "f:bullet.psi_positive": 0.25,
        "f:row0.s": 1.0, "f:row0.ratio": 0.5, "f:row1.s": 2.0,
        "f:row1.ratio": pytest.approx(math.nan, nan_ok=True),
    }


def test_gate_passes_matching_numbers():
    result = OpResult("op", {"a": 1.0 + 1e-9, "b": 1e-15})
    assert judge(result, {"a": 1.0, "b": 3e-15}) is None


def test_gate_fails_injected_nan():
    reason = judge(OpResult("op", {"a": 1.0, "b": math.nan}), None)
    assert reason is not None and "non-finite b" in reason


def test_gate_fails_exit_code_two_but_not_one():
    assert judge(OpResult("cmd", exit_code=2), None) == "exited with code 2"
    verdict_only = OpResult("cmd", {"a": 1.0}, verdict_failed=True, exit_code=1)
    assert judge(verdict_only, {"a": 1.0}) is None


def test_gate_fails_drifted_reference():
    reason = judge(OpResult("op", {"a": 1.001}), {"a": 1.0})
    assert reason is not None and "drifted" in reason
    assert judge(OpResult("op", {}), {"a": 1.0}) == "missing a"


def test_gate_fails_raised_operation():
    assert judge(OpResult("op", error="ValueError('x')"), None).startswith("raised")


def test_verdict_failed_reads_each_verdict_kind():
    rep = types.SimpleNamespace
    assert verdict_failed(rep(verdict={"s_uniform": False}))
    assert verdict_failed(rep(verdict={"slope_in_band": False}))
    assert verdict_failed(rep(verdict={"s0": None, "all_finite": True}))
    assert verdict_failed(rep(verdict={"s0": 4.0, "all_finite": False}))
    assert not verdict_failed(rep(verdict={"s0": 4.0, "all_finite": True}))


# -- computed kernel counts -------------------------------------------------


def test_unknown_block_orientation():
    dom = types.SimpleNamespace(truncated=False)
    grid = types.SimpleNamespace(domain=dom, n1=64, n2=64)
    assert unknown_block(grid) == (66, 64)
    grid = types.SimpleNamespace(domain=types.SimpleNamespace(truncated=True), n1=31, n2=255)
    assert unknown_block(grid) == (255, 31)


def test_banded_lu_cost_at_desk_scale():
    flops, nbytes = banded_lu_cost(66, 64)
    n = 66 * 64
    assert flops == n * 64 * (4 * 64 + 1) + n * (6 * 64 + 1)
    assert nbytes == (3 * 64 + 1) * n * 8 == 6521856


# -- metric names -----------------------------------------------------------


def test_layer_metrics_are_the_ones_benchmark_json_lists():
    spans = [Span(0, "weights.assemble_weight", 0.0, 1.0, None, "setup"),
             Span(1, "iteration", 2.0, 6.0, None, "iter0"),
             Span(2, "forward.solve_heat", 2.0, 5.0, 1, "iter0",
                  {"steps": 10, "flops_per_step": 100, "bytes_per_step": 8})]
    metrics = layer_metrics(spans, [1], untraced_iter_s=3.5)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["forward.solve_heat.share"] == pytest.approx(0.75)
    assert metrics["forward.step_ms"] == pytest.approx(300.0)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
