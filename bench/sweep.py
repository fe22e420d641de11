"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py --workloads desk_pipeline,open_sweep --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out bench/results/<label>.json]

Each run is one process of ``bench/run.py``, started after the previous
one ends.  For every end-to-end metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, against the bound in BENCHMARK.json: a spread at or
under a third of the bound is steady.  The same summary of the runs'
unscaled wall times (printed by ``run.py``, see ``speed.py``) is given for
comparison.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import quartiles, relative_spread

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict, dict, dict]:
    """The run's result line, its machine block, its sample counts (with
    the run's wall seconds) and its unscaled times."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    def block(tag):
        return next((json.loads(ln.partition(": ")[2]) for ln in lines
                     if ln.startswith(tag + ": ")), None)

    samples = dict(block("samples") or {}, wall_s=wall_s)
    return json.loads(lines[-1]), block("machine"), samples, block("median")


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": relative_spread(values),
                         "bound": bounds.get(name), "values": values}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs, machines, samples, medians = zip(*(run_once(workload, seed, seconds, args.trace)
                                                 for seed in args.seeds))
        summary = summarize(runs, bounds)
        for name in () if args.trace else ("setup_s", "iter_s"):
            summary[f"wall {name}"] = summarize(
                [{"metrics": {name: {"value": m[name], "unit": "s"}}} for m in medians],
                bounds)[name]
        report[workload] = {"seeds": args.seeds, "seconds": seconds, "machine": machines[0],
                            "samples": list(samples),
                            "correct": all(r["correct"] for r in runs),
                            "failed": sum(r["failed"] for r in runs), "metrics": summary}
        print(f"{workload}: correct={report[workload]['correct']} "
              f"failed={report[workload]['failed']}")
        for name, s in summary.items():
            bound = s["bound"]
            flag = "" if bound is None else ("steady" if s["spread"] <= bound / 3 else
                                             "WITHIN BOUND" if s["spread"] <= bound else "WIDE")
            print(f"  {name:40s} median {s['median']:.6g} {s['unit']:8s} "
                  f"spread {s['spread']:.4f}  {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
