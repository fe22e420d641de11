"""Benchmark of the waveguide-carleman laboratory.

Usage, from the repository root::

    python3 bench/run.py --workload desk_pipeline --seed 1234 --seconds 20 --trace 0

One process runs one workload as a closed loop with one client: the next
iteration starts when the previous one has returned its verdicts.  The
package is imported from ``src/`` of this checkout; BLAS runs one thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the median of
several imports of the package, each in a fresh interpreter, plus the
median of several seeded input generations; both are repeated between
iterations, spread over the run, and the same seed gives the same inputs
each time), ``iter_s`` (the time of one iteration: the sum over its
operations of each one's median time), ``peak_rss_mb``, ``success_rate``
(one minus the error rate of the correctness gate in ``gate.py``) and
``oracle_rel_l2`` (the closed-form oracle's relative L2 error on the
workload's grid, computed once after the timed loop).  The timed loop runs
iterations for ``--seconds``, not counting the bursts and set-up samples
between them, and at least ``MIN_ITERATIONS`` of them, so that every
operation of a workload with long iterations is still timed several times.

Both times are in seconds at a reference speed of the host: every
operation, input generation and import is timed against a reference burst
run next to it in the same process (``speed.py``), because the host's own
speed drifts by up to half while a run lasts.  The unscaled wall times are
printed with every run as well.

Metric names and units are read from ``BENCHMARK.json``; a run that
computes a different set of metrics than it lists is an error.

``--trace 1`` first runs untraced for half the time, then wraps the
package's public functions (``layers.py``), sets up and runs traced for
the other half, and reports the per-layer metrics; each half has at least
half of ``MIN_ITERATIONS``, rounded down.  The spans are written
to ``.bench_build/bench/trace_<workload>_seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import gate
import layers
from spans import Tracer
from speed import REFERENCE_S, ReferenceBurst
from stats import median, paired_iteration, quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"

#: BLAS threads, fixed before numpy is imported.  One thread keeps the
#: per-step LAPACK work off the second core, which other processes share.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-ups and package imports per run; setup_s takes the median of each.
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
#: Fewest timed iterations per run, whatever ``--seconds`` is.
MIN_ITERATIONS = 3
LOAD_SHAPE = "one process per workload, closed loop, one client"
#: What setup_s imports: the workloads module pulls in numpy, scipy and
#: every package module the benchmark calls.
IMPORT_STATEMENT = "import waveguide_carleman, workloads"


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics listed in
    BENCHMARK.json, the one place they are defined."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "load": LOAD_SHAPE,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Closed loop over one workload's iterations, with the gate applied
    to every operation outside the timed region."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.verdicts_failed: list[int] = []
        #: A ``ReferenceBurst`` to time before each operation and after the
        #: last, if set, and its times, one row per iteration.
        self.burst = None
        self.burst_times: list[list[float]] = []

    def _judge(self, op, raw):
        if isinstance(raw, Exception):
            result = gate.OpResult(op.name, error=repr(raw))
        else:
            try:
                result = op.result(raw)
            except Exception as exc:  # a result that cannot be read is a failed operation
                traceback.print_exc()
                result = gate.OpResult(op.name, error=repr(exc))
        use_ref = self.workload.seed == gate.DEFAULT_SEED or not op.seed_dependent
        reason = gate.judge(result, self.reference.get(op.name) if use_ref else None)
        if reason is not None:
            print(f"FAILED {self.workload.name}/{op.name}: {reason}", file=sys.stderr)
        return result, reason

    def iteration(self, tracer=None) -> list[float]:
        """Run one iteration; return the wall time of each operation."""
        ops = self.workload.ops()
        raws, elapsed, bursts = [], [], []
        with tracer.span("iteration") if tracer else nullcontext():
            for op in ops:
                if self.burst:
                    bursts.append(self.burst())
                start = time.perf_counter()
                try:
                    raws.append(op.run())
                except Exception as exc:  # the loop goes on; the gate counts it
                    traceback.print_exc()
                    raws.append(exc)
                elapsed.append(time.perf_counter() - start)
            if self.burst:
                bursts.append(self.burst())
                self.burst_times.append(bursts)
        verdicts = 0
        for op, raw in zip(ops, raws):
            result, reason = self._judge(op, raw)
            self.attempted += 1
            self.failed += reason is not None
            verdicts += result.verdict_failed
        self.verdicts_failed.append(verdicts)
        return elapsed

    def run(self, budget: float, tracer=None, min_iterations: int = 1,
            between=None) -> list[list[float]]:
        """Start iterations until they have taken ``budget`` seconds and at
        least ``min_iterations`` have run; the last one may end up to one
        iteration later.  ``between(spent)``, if given, is called after each
        iteration with the seconds iterations have taken so far; its own
        time is not counted.  One row of operation times per iteration."""
        times: list[list[float]] = []
        spent = 0.0
        while len(times) < min_iterations or spent < budget:
            if tracer:
                tracer.iteration = f"iter{len(times)}"
            start = time.perf_counter()
            times.append(self.iteration(tracer))
            spent += time.perf_counter() - start
            if between:
                between(spent)
        return times


def use_checkout() -> None:
    """Fix the BLAS thread count (numpy reads it on import) and import the
    package from this checkout's ``src/``."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def import_seconds() -> tuple[float, float]:
    """Wall time of one package import in a fresh interpreter, measured
    inside it so that interpreter start-up is left out, and the time of a
    reference burst run there right after it."""
    code = ("import sys, time\n"
            f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]\n"
            "start = time.perf_counter()\n"
            f"{IMPORT_STATEMENT}\n"
            "elapsed = time.perf_counter() - start\n"
            "from speed import ReferenceBurst\n"
            "print(repr(elapsed), repr(ReferenceBurst()()))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    elapsed, burst = proc.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(burst)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "waveguide_carleman" / "__init__.py").is_file():
        print(f"no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    use_checkout()

    import waveguide_carleman
    import workloads
    if Path(waveguide_carleman.__file__).resolve().parent.parent != SRC.resolve():
        print(f"imported {waveguide_carleman.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{args.workload}-"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        reference = gate.load_reference().get(args.workload, {})
        loop = Loop(workload, reference)
        machine = machine_block()
        print("machine: " + json.dumps(machine))
        print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
              f"trace: {args.trace}")
        if args.trace:
            metrics, correct = traced_run(workload, loop, args, machine)
        else:
            metrics, correct = untraced_run(workload, loop, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"computed metrics {sorted(set(metrics) ^ set(units))} disagree with "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": bool(correct and loop.failed == 0),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def untraced_run(workload, loop, args):
    # (wall seconds, reference burst seconds) of each sample
    imports, setups = [], []
    burst = loop.burst = ReferenceBurst()

    def sample_setup(spent: float) -> None:
        """Take the set-up and import samples that are due: the k-th of n
        after k/n of the timed loop, so that their medians cover the run
        and not only its first seconds."""
        while len(setups) < SETUP_REPEATS and spent >= len(setups) * args.seconds / SETUP_REPEATS:
            before = burst()
            start = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - start
            setups.append((elapsed, (before + burst()) / 2.0))
        while (len(imports) < IMPORT_REPEATS
               and spent >= len(imports) * args.seconds / IMPORT_REPEATS):
            imports.append(import_seconds())

    sample_setup(0.0)
    op_times = loop.run(args.seconds, min_iterations=MIN_ITERATIONS, between=sample_setup)
    sample_setup(math.inf)
    times = [sum(row) for row in op_times]
    # The oracle's error is judged by its bound in BENCHMARK.json, not by
    # the reference: here it only has to be a finite number.
    oracle = workload.oracle_rel_l2()
    reason = gate.judge(gate.OpResult("oracle", {"oracle_rel_l2": oracle}), None)
    if reason is not None:
        print(f"FAILED {workload.name}/oracle: {reason}", file=sys.stderr)
    print(f"wall seconds: iteration quartiles {quartiles(times)}  set-up quartiles "
          f"{quartiles(t for t, _ in setups)}  import quartiles {quartiles(t for t, _ in imports)}"
          f"  reference burst quartiles {quartiles(b for row in loop.burst_times for b in row)}")
    print("median: " + json.dumps({"iter_s": median(times),
                                   "setup_s": median(t for t, _ in imports)
                                   + median(t for t, _ in setups)}))
    print("samples: " + json.dumps({"iter_s": len(times), "setup": len(setups),
                                    "import": len(imports)}))
    metrics = {
        "setup_s": REFERENCE_S * (median(t / b for t, b in imports)
                                  + median(t / b for t, b in setups)),
        "iter_s": paired_iteration(op_times, loop.burst_times, REFERENCE_S),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - loop.failed / loop.attempted,
        "oracle_rel_l2": oracle,
    }
    return metrics, reason is None


def traced_run(workload, loop, args, machine):
    half = args.seconds / 2.0
    workload.setup()
    untraced = [sum(row) for row in loop.run(half, min_iterations=MIN_ITERATIONS // 2)]
    untraced_verdicts = len(loop.verdicts_failed)

    tracer = Tracer()
    layers.install(tracer)
    untraced_span, workload.span = workload.span, tracer.span
    try:
        with tracer.span("setup"):
            workload.setup()
        traced = [sum(row) for row in loop.run(half, tracer,
                                               min_iterations=MIN_ITERATIONS // 2)]
    finally:
        tracer.unpatch()
        workload.span = untraced_span
    metrics = layers.layer_metrics(tracer.spans, loop.verdicts_failed[untraced_verdicts:],
                                   median(untraced))
    path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed, "machine": machine,
                       "untraced_iter_s": untraced, "traced_iter_s": traced})
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}  "
          f"untraced samples: {len(untraced)}  traced samples: {len(traced)}")
    return metrics, True


if __name__ == "__main__":
    sys.exit(main())
