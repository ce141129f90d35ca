import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import zigzag as zz
from zigzag.errors import DomainError
from zigzag.quadrature import (IntervalPlan, arc_integral, interval_abs_integral,
                                segment_integral)

# int_0^1 (t+1)^(1/2) t^(-1/2) (1-t)^(1/2) dt, mpmath tanh-sinh at 30 digits
L_STAR = 1.7480383695280798595


def mp_side(prevs, exps, i):
    """Independent oracle: scaled tanh-sinh quadrature of one interval."""
    mp.mp.dps = 30
    a, b = prevs[i], prevs[i + 1]
    ea, eb = exps[i], exps[i + 1]
    L = mp.mpf(b) - a

    def g(s):
        t = a + L * s
        r = mp.mpf(1)
        for k, (sm, e) in enumerate(zip(prevs, exps)):
            if k in (i, i + 1):
                continue
            r *= mp.power(abs(t - sm), e)
        return mp.power(s, ea) * mp.power(1 - s, eb) * r

    return float(mp.power(L, 1 + ea + eb) * mp.quad(g, [0, mp.mpf(1) / 2, 1]))


class TestSideLength:
    def test_frozen_oracle_value(self):
        prev = zz.Prevertices((-1.0, 0.0, 1.0))
        val = zz.side_length(prev, zz.ne_pattern(1), 0)
        assert math.isclose(val, L_STAR, rel_tol=1e-13)

    def test_scaling_law(self):
        # doubling all prevertex gaps scales the genus-1 NE side by 2^(3/2)
        exps = zz.ne_pattern(1).exponents
        v1, _ = interval_abs_integral([-1.0, 0.0, 1.0], exps, 1)
        v2, _ = interval_abs_integral([-2.0, 0.0, 2.0], exps, 1)
        assert math.isclose(v2 / v1, 2.0 ** 1.5, rel_tol=1e-12)

    def test_index_out_of_range(self):
        prev = zz.Prevertices((-1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            zz.side_length(prev, zz.ne_pattern(1), 1)

    @pytest.mark.parametrize("j", [0, 1])
    def test_against_mpmath_oracle(self, j):
        prev = zz.Prevertices((-2.3, -1.0, 0.0, 1.0, 2.3))
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            val = zz.side_length(prev, pat, j)
            ora = mp_side(list(prev.values), list(pat.exponents), j + 2)
            assert math.isclose(val, ora, rel_tol=1e-11)

    def test_node_doubling_stability(self):
        # doubling the accepted node count moves the result by < 1e-12
        prev = (-1.7, -1.0, 0.0, 1.0, 1.7)
        exps = zz.ne_pattern(2).exponents
        plan = IntervalPlan(np.asarray(prev), exps, 2)
        accepted = plan.integrate_abs(48)
        doubled = plan.integrate_abs(96)
        assert abs(doubled - accepted) < 1e-12 * abs(doubled)

    def test_tiny_gap_interval(self):
        # collapsing interval keeps full relative accuracy
        exps = zz.ne_pattern(2).exponents
        for gap in (1e-4, 1e-6):
            prevs = [-1.0 - gap, -1.0, 0.0, 1.0, 1.0 + gap]
            val, err = interval_abs_integral(prevs, exps, 3)
            ora = mp_side(prevs, list(exps), 3)
            assert math.isclose(val, ora, rel_tol=1e-10)


class TestSegmentIntegral:
    def test_matches_interval_on_axis(self):
        prev = np.array([-1.0, 0.0, 1.0])
        exps = zz.ne_pattern(1).exponents
        mod, _ = interval_abs_integral(prev, exps, 1)
        seg = segment_integral(prev, exps, 0.0, 1.0, sing0=1, sing1=2)
        assert math.isclose(abs(seg), mod, rel_tol=1e-10)
        # phase on (0, 1) is i for the NE genus-1 pattern
        assert abs(seg / abs(seg) - 1j) < 1e-10

    def test_path_independence(self):
        prev = np.array([-1.0, 0.0, 1.0])
        exps = zz.sw_pattern(1).exponents
        target = 0.4 + 0.9j
        direct = segment_integral(prev, exps, 2j, target)
        via = (segment_integral(prev, exps, 2j, 1.5 + 1.5j)
               + segment_integral(prev, exps, 1.5 + 1.5j, target))
        assert abs(direct - via) < 1e-10

    @pytest.mark.parametrize("end", [complex(math.nan, 1.0), complex(math.inf, 0.0),
                                     complex(0.5, math.inf)])
    def test_rejects_non_finite_endpoint(self, end):
        prev = np.array([-1.0, 0.0, 1.0])
        exps = zz.sw_pattern(1).exponents
        with pytest.raises(DomainError):
            segment_integral(prev, exps, 0.5j, end)
        with pytest.raises(DomainError):
            segment_integral(prev, exps, end, 0.5j)


class TestArcIntegral:
    def test_arc_equals_chord(self):
        # Cauchy: no prevertex lies between the arc around s_0 and its
        # chord, so both paths give the same integral
        prev = np.array([-2.3, -1.0, 0.0, 1.0, 2.3])
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            exps = pat.exponents
            r, th0, th1 = 0.5, 0.3, 2.5
            arc = arc_integral(prev, exps, 2, r, th0, th1)
            chord = segment_integral(prev, exps, r * cmath.exp(1j * th0),
                                     r * cmath.exp(1j * th1))
            assert abs(arc - chord) < 1e-13
            assert abs(arc) > 0.1
