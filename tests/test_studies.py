"""The committed studies (ROADMAP item 26) at their quick sizes: each runs,
every cell of its table is finite and positive, and the table has its
shape.  No cell is pinned here; the ROADMAP quotes the full-size tables."""

import contextlib
import importlib.util
import io
import math
from pathlib import Path

STUDIES = Path(__file__).resolve().parents[1] / "studies"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, STUDIES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_memory_peaks_quick_table():
    study = _load("memory_peaks")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        study.main(["--quick"])
    header, rule, *body = out.getvalue().splitlines()
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in (header, *body)]
    assert tuple(cells[0]) == study.HEADER
    assert rule == "|" + " --- |" * len(study.HEADER)
    # the four stages of the bounded chain, then the four checkers
    assert [row[:2] for row in cells[1:]] == [
        ["`forward.manufacture_pair`", "pipeline"], ["`transform.build_bundle`", "pipeline"],
        ["`transform.z_source`", "pipeline"], ["`carleman.carleman_check_bounded`", "pipeline z"],
        ["`carleman.lemma_bounded_check`", "draw"], ["`carleman.lemma_open_check`", "draw"],
        ["`carleman.carleman_check_bounded`", "bump"], ["`carleman.carleman_check_open`", "bump"],
    ]
    for row in cells[1:]:
        assert len(row) == len(study.HEADER), row
        assert row[2] in ("12x12x24", "63x7x16"), row
        assert all(0.0 < float(x) < math.inf for x in row[3:]), row
