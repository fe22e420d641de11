import os
from pathlib import Path

import numpy as np
import pytest

from waveguide_carleman import WaveguideDomain, build_grid

# The CLI and thread-count tests start child interpreters; they import the
# package from this checkout as the test process does.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def domain():
    return WaveguideDomain(L=1.0, h=1.0, T=2.0)


@pytest.fixture
def grid(domain):
    # odd n1 puts a node exactly at alpha = 0
    return build_grid(domain, 15, 15, 16)


@pytest.fixture
def open_domain():
    return WaveguideDomain(L=1.0, h=1.0, T=2.0, truncated=True)


@pytest.fixture
def open_grid(open_domain):
    return build_grid(open_domain, 15, 15, 16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
