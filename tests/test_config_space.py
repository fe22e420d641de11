"""The configuration space next to the defaults (ROADMAP item 22).

All five subcommands run in-process through ``cli.main`` on the small
grids of acceptance criterion 10 (12x12x24, open 63x7x16, seed 3, two
draws), with one config key changed at a time: the values of item 22's
table as fixed cases, then a derandomized search around each default.
Every run must end with exit 0, 1 or 2, and an exit 2 must say
``config error:`` on stderr.  That every checker row is finite and
positive on both sides waits for item 12's log-scaled rows."""

import contextlib
import functools
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveguide_carleman.cli import main

BASE = {
    "scenario": {"name": "criterion10"},
    "grid": {"n1": 12, "n2": 12, "nt": 24},
    "open": {"n1": 63, "n2": 7, "nt": 16},
    "lemmas": {"seed": 3, "draws": 2},
}
SUBCOMMANDS = ("forward", "check-weights", "verify-lemmas", "verify-carleman", "stability")
# item 22's table: each value set alone
TABLE = [("domain", "alpha", v) for v in (-0.5, 0.5, 0.9)] + [
    ("domain", "L", v) for v in (0.5, 2, 4)] + [
    ("domain", "h", v) for v in (0.5, 2)] + [
    ("domain", "T", v) for v in (0.5, 8)] + [
    ("weights", "lambda", v) for v in (0.25, 2, 4)] + [
    ("weights", "delta", v) for v in (0.1, 2)] + [
    ("weights", "c1", v) for v in (0.1, 2)] + [
    ("open", "lambda", v) for v in (0.5, 3)] + [
    ("forward", "q_amplitude", v) for v in (-5, 40)] + [
    ("forward", "preset", "positive")]
# one key at a time, drawn from a range around its default
AROUND_DEFAULTS = st.one_of(
    *(st.tuples(st.just(section), st.just(key), st.floats(lo, hi).map(lambda v: round(v, 3)))
      for section, key, lo, hi in (
          ("domain", "alpha", -0.9, 0.9), ("domain", "L", 0.25, 4.0),
          ("domain", "h", 0.25, 4.0), ("domain", "T", 0.25, 8.0),
          ("weights", "lambda", 0.1, 4.0), ("weights", "delta", 0.05, 2.0),
          ("weights", "c1", 0.05, 2.0), ("open", "lambda", 0.25, 3.0),
          ("forward", "q_amplitude", -10.0, 50.0))),
    st.tuples(st.just("domain"), st.just("obs_side"), st.sampled_from(["top", "bottom"])),
    st.tuples(st.just("forward"), st.just("preset"), st.sampled_from(["oracle", "positive"])),
)


@functools.lru_cache(maxsize=None)
def _runs(section: str, key: str, value) -> list[tuple[str, int, str, dict[str, str]]]:
    """(subcommand, exit code, stderr, report texts by file name) of the
    five subcommands with ``[section] key`` set to ``value``."""
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections.setdefault(section, {})[key] = value
    text = "".join(f"[{name}]\n" + "".join(f"{k}: {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.cfg"
        cfg.write_text(text)
        for command in SUBCOMMANDS:
            out, err = Path(tmp) / command, io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg), "--out", str(out)])
            reports = {p.name: p.read_text() for p in sorted(out.glob("*.txt"))
                       if p.name != "config_reference.txt"} if out.exists() else {}
            runs.append((command, code, err.getvalue(), reports))
    return runs


def _assert_clean_exits(runs) -> None:
    for command, code, err, _ in runs:
        assert code in (0, 1, 2), (command, code, err)
        if code == 2:
            lines = err.splitlines()
            assert any(line.startswith("config error:") for line in lines), (command, err)


def _bad_rows(reports: dict[str, str]) -> list[tuple[str, dict]]:
    """The sweep rows of the checker reports whose lhs or summed rhs is not
    finite and positive."""
    bad = []
    for name, text in reports.items():
        if "\nsweep:\n" not in text:
            continue
        header, *lines = text.split("\nsweep:\n")[1].splitlines()
        for line in lines:
            row = dict(zip(header.split(","), map(float, line.split(","))))
            rhs = sum(v for col, v in row.items() if col.startswith("rhs"))
            if not all(0.0 < side < math.inf for side in (row["lhs"], rhs)):
                bad.append((name, row))
    return bad


@pytest.mark.parametrize("section, key, value", TABLE,
                         ids=[f"{s}.{k}={v}" for s, k, v in TABLE])
def test_table_value_exits_cleanly(section, key, value):
    _assert_clean_exits(_runs(section, key, value))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(change=AROUND_DEFAULTS)
def test_one_key_around_its_default_exits_cleanly(change):
    _assert_clean_exits(_runs(*change))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: rows whose masses underflow to 0 "
                   "on both sides read 0/0 at 11 of the table's values")
def test_every_checker_row_is_finite_and_positive_on_both_sides():
    bad = {change: rows for change in TABLE
           if (rows := [r for *_, reports in _runs(*change) for r in _bad_rows(reports)])}
    assert not bad, bad
