"""Make the benchmark modules and the checkout's uavmec importable."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


@pytest.fixture(scope="session")
def uavmec():
    return run.load_uavmec()
