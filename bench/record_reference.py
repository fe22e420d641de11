"""Record the gate's reference numbers at the default seed.

    python3 bench/record_reference.py

Runs one iteration of every workload and writes every number each
operation reports to ``bench/reference.json``.  The oracle error is not
recorded: its bound in BENCHMARK.json is what judges it.
Re-record only in a change that means to alter the numbers (a new scheme
or verdict rule), and say so where the change is described; a change that
claims a speed-up leaves the reference alone.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gate
import run

run.use_checkout()
import workloads  # noqa: E402  (numpy must see the BLAS setting first)


def record() -> dict:
    reference = {}
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
            wl = cls(gate.DEFAULT_SEED, Path(workdir))
            wl.setup()
            ops = {op.name: op.result(op.run()).numbers for op in wl.ops()}
        reference[name] = ops
        print(f"{name}: {sum(len(v) for v in ops.values())} numbers", file=sys.stderr)
    return reference


if __name__ == "__main__":
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
