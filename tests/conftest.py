import sys
import time
import weakref

import numpy as np
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
    """Kernel plans built during the test, one per side vector or Newton
    point: fills of a quadrature.IntervalLayout, each one-shot
    IntervalPlan among them."""
    quad = sys.modules["zigzag.quadrature"]
    plans = []
    fill = quad.IntervalLayout._fill
    monkeypatch.setattr(quad.IntervalLayout, "_fill",
                        lambda self, plan, gaps: plans.append(1) or fill(self, plan, gaps))
    return plans


@pytest.fixture
def interval_layouts(monkeypatch):
    """The quadrature.IntervalLayouts built during the test, in order, as
    (weak reference, gap shape, exponent shape, derivatives): a layout
    that outlives its solve shows as a live reference."""
    quad = sys.modules["zigzag.quadrature"]
    layouts = []
    init = quad.IntervalLayout.__init__

    def recording(self, shape, exps, j, derivatives=False):
        layouts.append((weakref.ref(self), tuple(shape), np.shape(exps), derivatives))
        init(self, shape, exps, j, derivatives)

    monkeypatch.setattr(quad.IntervalLayout, "__init__", recording)
    return layouts
