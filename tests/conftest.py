import sys
import time

import pytest

import zigzag as zz

_CACHE = {}


@pytest.fixture(scope="session")
def ladder5():
    """Independent k = 2 solves of genus 0 to 5, shared across tests."""
    if "ladder" not in _CACHE:
        t0 = time.perf_counter()
        _CACHE["ladder"] = {p: zz.continuation_solve(p, 2) for p in range(6)}
        _CACHE["ladder_elapsed"] = time.perf_counter() - t0
    return _CACHE["ladder"]


@pytest.fixture(scope="session")
def ladder5_elapsed(ladder5):
    return _CACHE["ladder_elapsed"]


@pytest.fixture(scope="session")
def genus2(ladder5):
    return ladder5[2]


@pytest.fixture(scope="session")
def genus3(ladder5):
    return ladder5[3]


@pytest.fixture(scope="session")
def karcher_k3():
    """Karcher-Thayer records for k = 3, genus 1 and 2."""
    if "k3" not in _CACHE:
        t0 = time.perf_counter()
        _CACHE["k3"] = {
            1: zz.continuation_solve(1, 3),
            2: zz.continuation_solve(2, 3),
        }
        _CACHE["k3_elapsed"] = time.perf_counter() - t0
    return _CACHE["k3"]


@pytest.fixture(scope="session")
def karcher_k3_elapsed(karcher_k3):
    return _CACHE["k3_elapsed"]


@pytest.fixture
def kernel_plans(monkeypatch):
    """Kernel plans (quadrature.IntervalPlan constructions) built during the
    test, one per side vector or Newton point."""
    quad = sys.modules["zigzag.quadrature"]
    plans = []

    class Counting(quad.IntervalPlan):
        def __init__(self, *args, **kwargs):
            plans.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(quad, "IntervalPlan", Counting)
    return plans
