"""Order statistics shared by the benchmark and its spread tool.

Quartiles use ``statistics.quantiles(values, n=4)`` with its default
(exclusive) method, which is the definition the run-to-run spread of a
metric is judged by.
"""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile).  A single value is its own
    quartiles, since ``statistics.quantiles`` needs two points."""
    values = list(values)
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), median(values), float(q3)


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0.0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(med)


def paired_iteration(op_times, burst_times, reference_s: float) -> float:
    """``reference_s`` times the sum over an iteration's operations of the
    median ratio of an operation's time to the mean of the reference bursts
    timed just before and just after it.  Both arguments hold one row per
    iteration: the operation times, and the burst times, one more than
    operations."""
    ops = [list(row) for row in op_times]
    bursts = [list(row) for row in burst_times]
    if (not ops or len(ops) != len(bursts) or len({len(row) for row in ops}) != 1
            or any(len(b) != len(o) + 1 for o, b in zip(ops, bursts))):
        raise ValueError("need a burst before and after each operation of every iteration")
    ratios = zip(*([2.0 * t / (b[k] + b[k + 1]) for k, t in enumerate(o)]
                   for o, b in zip(ops, bursts)))
    return reference_s * sum(median(column) for column in ratios)
