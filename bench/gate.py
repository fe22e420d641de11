"""Correctness gate behind ``success_rate`` (one minus the error rate).

An operation is one public call per iteration: one check, one pipeline
chain or one CLI subcommand.  It fails when it raises, when a subcommand
exits with code 2, when a number it reports is not finite, or when a key
number drifts from the reference recorded in ``reference.json``.  The
drift test applies to operations whose inputs do not depend on the seed,
and to every operation at the default seed; at other seeds the seeded
operations are held to the invariants only.

A failed verdict (``s_uniform``, ``slope_in_band``, ``s0``,
``all_finite``, or a subcommand's exit code 1) is a result about the
mathematics, not a broken operation: it is counted in
``carleman.verdicts_failed`` and does not fail the operation.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1234

#: Relative tolerance of the drift test.  Reruns are bit-identical, so
#: this only has to absorb round-off from a reordered summation or a
#: different BLAS kernel (about 1e-12 after the solution differences
#: u - u~ amplify it); a wrong answer moves these numbers by far more
#: than 1e-6.
RTOL = 1e-6
#: Absolute floor: quantities below it (traces that vanish up to
#: round-off, weighted masses deep in underflow) are not compared.
ATOL = 1e-12

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_MARGIN = re.compile(r"margin=(\S+)")


@dataclass
class OpResult:
    op: str
    numbers: dict[str, float] = field(default_factory=dict)
    verdict_failed: bool = False
    exit_code: int | None = None
    error: str | None = None


def _number(text: str) -> float | None:
    text = text.strip()
    match = _MARGIN.search(text)
    if match:
        text = match.group(1)
    try:
        return float(text)
    except ValueError:
        return None


def report_numbers(text: str, prefix: str = "") -> dict[str, float]:
    """Every number in a report: ``key: value`` lines (including the
    ``margin=`` of assumption bullets) and the rows of comma-separated
    tables, keyed ``row<i>.<column>``."""
    out: dict[str, float] = {}
    header = None
    row = 0
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            header = None
            num = _number(value)
            if num is not None:
                out[prefix + key] = num
        elif "," in line:
            if header is None:
                header, row = line.split(","), 0
                continue
            for col, cell in zip(header, line.split(",")):
                num = _number(cell)
                if num is not None:
                    out[f"{prefix}row{row}.{col}"] = num
            row += 1
    return out


def verdict_failed(report) -> bool:
    """True when an inequality report's verdict does not hold."""
    v = report.verdict
    return (v.get("s_uniform") is False or v.get("slope_in_band") is False
            or ("s0" in v and v["s0"] is None) or v.get("all_finite") is False)


def judge(result: OpResult, reference: dict[str, float] | None) -> str | None:
    """Why the operation failed, or None when it passed."""
    if result.error is not None:
        return f"raised {result.error}"
    if result.exit_code == 2:
        return "exited with code 2"
    for key, value in result.numbers.items():
        if not math.isfinite(value):
            return f"non-finite {key} = {value!r}"
    for key, ref in (reference or {}).items():
        if key not in result.numbers:
            return f"missing {key}"
        value = result.numbers[key]
        if not math.isclose(value, ref, rel_tol=RTOL, abs_tol=ATOL):
            return f"{key} = {value!r} drifted from reference {ref!r}"
    return None


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
