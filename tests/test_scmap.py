import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zigzag as zz
from zigzag.errors import DomainError
from zigzag.quadrature import interval_abs_integral
from zigzag.scmap import _chain_normalization, positive_sides


class TestExponentPattern:
    def test_ne_structure(self):
        for p in range(0, 6):
            e = zz.ne_pattern(p).exponents
            assert e[0] == e[-1] == 0.5
            assert np.count_nonzero(e > 0) == p + 1
            assert np.allclose(e[:-1] + e[1:], 0.0)

    def test_sw_is_negation(self):
        for p, k in [(3, 2), (2, 3), (4, 5)]:
            assert np.allclose(
                zz.ne_pattern(p, k).exponents + zz.sw_pattern(p, k).exponents, 0.0
            )

    def test_k3_magnitude(self):
        e = zz.ne_pattern(1, 3).exponents
        assert np.allclose(np.abs(e), 2.0 / 3.0)

    def test_integrand_product_is_one(self):
        # NE and SW integrands are pointwise reciprocal
        prev = zz.Prevertices((-1.9, -1.0, 0.0, 1.0, 1.9))
        from zigzag.quadrature import product_value

        zs = np.array([0.3 + 0.7j, -1.2 + 0.1j, 2.5 + 2.5j, 0.5 + 1e-3j])
        ne = product_value(prev.values, zz.ne_pattern(2).exponents, zs)
        sw = product_value(prev.values, zz.sw_pattern(2).exponents, zs)
        assert np.max(np.abs(ne * sw - 1.0)) < 1e-12


class TestParameterProblem:
    def test_genus1_trivial(self):
        prev = zz.solve_parameter_problem(
            zz.ZigzagParams(1, 2, (1.0,)), zz.ne_pattern(1)
        )
        assert prev.values == (-1.0, 0.0, 1.0)

    def test_genus2_symmetric_against_bisection_oracle(self):
        # independent bisection on s_2 for ratio 1
        pat = zz.ne_pattern(2)

        def ratio(s2):
            prevs = [-s2, -1.0, 0.0, 1.0, s2]
            l0, _ = interval_abs_integral(prevs, pat.exponents, 2)
            l1, _ = interval_abs_integral(prevs, pat.exponents, 3)
            return l1 / l0 - 1.0

        lo, hi = 1.0 + 1e-9, 100.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ratio(lo) * ratio(mid) <= 0:
                hi = mid
            else:
                lo = mid
        s2_oracle = 0.5 * (lo + hi)

        prev = zz.solve_parameter_problem(zz.ZigzagParams(2, 2, (0.5, 0.5)), pat)
        assert math.isclose(prev.value(2), s2_oracle, rel_tol=1e-9)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_roundtrip(self, p):
        rng = np.random.default_rng(11 + p)
        for _ in range(5):
            lengths = rng.dirichlet(np.full(p, 2.0))
            while lengths.min() < 0.03:
                lengths = rng.dirichlet(np.full(p, 2.0))
            z = zz.ZigzagParams(p, 2, tuple(lengths))
            for pat in (zz.ne_pattern(p), zz.sw_pattern(p)):
                prev = zz.solve_parameter_problem(z, pat)
                sides = np.array([zz.side_length(prev, pat, j) for j in range(p)])
                got = sides / sides.sum()
                assert np.max(np.abs(got - lengths)) < 1e-8

    def test_solve_solve_roundtrip_is_stable(self):
        z = zz.ZigzagParams(3, 2, (0.2, 0.5, 0.3))
        pat = zz.sw_pattern(3)
        prev = zz.solve_parameter_problem(z, pat)
        sides = np.array([zz.side_length(prev, pat, j) for j in range(3)])
        z2 = zz.ZigzagParams(3, 2, tuple(sides / sides.sum()))
        prev2 = zz.solve_parameter_problem(z2, pat)
        assert np.max(np.abs(np.array(prev.values) - prev2.values)) < 1e-8

    def test_symmetric_side_lengths(self):
        # mirror intervals develop the same length
        z = zz.ZigzagParams(3, 2, (0.25, 0.45, 0.3))
        pat = zz.ne_pattern(3)
        prev = zz.solve_parameter_problem(z, pat)
        p = prev.genus
        for j in range(p):
            pos, _ = interval_abs_integral(prev.values, pat.exponents, j + p)
            neg, _ = interval_abs_integral(prev.values, pat.exponents, p - j - 1)
            assert math.isclose(pos, neg, rel_tol=1e-10)

    def test_k3_parameter_problem(self):
        z = zz.ZigzagParams(2, 3, (0.4, 0.6))
        prev = zz.solve_parameter_problem(z, zz.sw_pattern(2, 3))
        pat = zz.sw_pattern(2, 3)
        sides = [zz.side_length(prev, pat, j) for j in range(2)]
        assert math.isclose(sides[1] / sides[0], 1.5, rel_tol=1e-8)


@st.composite
def sc_problems(draw):
    """An exponent pattern and the p-1 log-gaps of a prevertex tuple."""
    p = draw(st.sampled_from((2, 3, 4)))
    k = draw(st.sampled_from((2, 3)))
    orientation = draw(st.sampled_from(("NE", "SW")))
    u = draw(st.lists(st.floats(-1.5, 1.5), min_size=p - 1, max_size=p - 1))
    return zz.ExponentPattern(orientation, p, k), np.array(u)


class TestParameterProblemProperty:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(sc_problems())
    def test_solve_recovers_the_tuple(self, problem):
        # the zigzag a tuple induces must be solved back to that tuple
        pat, u = problem
        prev = zz.Prevertices.from_positive_gaps(np.exp(u))
        sides = positive_sides(prev.values, pat.exponents)
        z = zz.ZigzagParams(pat.genus, pat.turn_order, tuple(sides))
        got = zz.solve_parameter_problem(z, pat)
        assert np.max(np.abs(np.subtract(got.values, prev.values))) < 1e-8


class TestForwardMap:
    def test_genus1_vertex_images(self):
        prev = zz.Prevertices((-1.0, 0.0, 1.0))
        chain = zz.build_vertices(zz.ZigzagParams(1, 2, (1.0,)))
        # SW pattern develops the chain in vertex order, NE reversed
        for j in (-1, 0, 1):
            got_sw = zz.forward_map(prev, zz.sw_pattern(1), prev.value(j))
            assert abs(got_sw - chain.vertex(j)) < 1e-8
            got_ne = zz.forward_map(prev, zz.ne_pattern(1), prev.value(j))
            assert abs(got_ne - chain.vertex(-j)) < 1e-8

    def test_chain_matches_build_vertices(self, genus2):
        prev = genus2.prev_ne
        A, B, V, targets, chain = _chain_normalization(prev, zz.sw_pattern(2))
        assert np.max(np.abs(A * np.asarray(V) + B - targets)) < 1e-8

    def test_interior_points_against_mpmath_oracle(self):
        prev = zz.Prevertices((-2.3, -1.0, 0.0, 1.0, 2.3))
        # the last two paths from 0 end 1e-12 above s_1 or graze it that close
        points = (0.7 + 0.4j, 1 + 1e-3j, 1.6 + 1e-6j, -2.3 + 1e-4j, 3 + 0.01j,
                  0.3j, -5 + 2j, 1 + 1e-12j, 1.6 + 1e-12j)
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            A, B, V, _, _ = _chain_normalization(prev, pat)
            for t in points:
                raw = V[2] + mp_segment_from_zero(prev.values, pat.exponents, t)
                assert abs(zz.forward_map(prev, pat, t) - (A * raw + B)) < 1e-10, t

    def test_rejects_point_below_axis(self):
        prev = zz.Prevertices((-1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            zz.forward_map(prev, zz.sw_pattern(1), 0.5 - 1e-9j)


def mp_segment_from_zero(prevs, exps, t):
    """Independent oracle: tanh-sinh quadrature of the SC integrand along
    [0, t], split at the closest approach to each prevertex."""
    mp.mp.dps = 30
    t = mp.mpc(t)
    cuts = {mp.mpf(0), mp.mpf(1)}
    for s in prevs:
        u = mp.re(s * mp.conj(t)) / abs(t) ** 2  # closest approach, u in [0, 1]
        if 0 < u < 1:
            cuts.add(u)

    def f(u):
        z = t * u
        r = mp.mpf(1)
        for s, e in zip(prevs, exps):
            r *= mp.power(z - s, e)
        return r * t

    return complex(mp.quad(f, sorted(cuts)))


class TestPeriods:
    def test_moduli_match_chain_side_lengths(self, genus2):
        prev = genus2.prev_ne
        chain = zz.build_vertices(genus2.zigzag)
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            per = zz.periods(prev, pat)
            for j, a in enumerate(per.values):
                side = abs(chain.vertex(j + 1) - chain.vertex(j))
                assert math.isclose(abs(a), side, rel_tol=1e-9)

    def test_right_angle_turns_k2(self):
        prev = zz.Prevertices((-1.8, -1.0, 0.0, 1.0, 1.8))
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            per = zz.periods(prev, pat)
            ratio = per.values[1] / per.values[0]
            assert abs(abs(ratio.real)) < 1e-12
            assert math.isclose(abs(np.angle(ratio)), math.pi / 2, rel_tol=1e-12)

    def test_genus1_unit_period(self):
        prev = zz.Prevertices((-1.0, 0.0, 1.0))
        per = zz.periods(prev, zz.ne_pattern(1))
        assert math.isclose(abs(per.values[0]), 1.0, rel_tol=1e-12)


class TestCoalescenceFit:
    def setup_method(self):
        self.base = zz.Prevertices((-2.6, -1.6, -1.0, 0.0, 1.0, 1.6, 2.6))
        self.deltas = np.geomspace(1e-6, 1e-4, 9)

    def test_sign_contrast(self):
        j = 1
        members = zz.make_coalescing_family(self.base, j, self.deltas)
        _, c1_ne, res_ne = zz.coalescence_log_fit(
            self.deltas, members, zz.ne_pattern(3), j
        )
        _, c1_sw, res_sw = zz.coalescence_log_fit(
            self.deltas, members, zz.sw_pattern(3), j
        )
        assert res_ne < 1e-3 and res_sw < 1e-3
        assert abs(abs(c1_ne) - 1.0) < 0.02 and abs(abs(c1_sw) - 1.0) < 0.02
        assert c1_ne.real * c1_sw.real < 0

    def test_slope_nonzero_when_neighbour_period_nonzero(self):
        j = 1
        members = zz.make_coalescing_family(self.base, j, self.deltas)
        _, c1, _ = zz.coalescence_log_fit(self.deltas, members, zz.ne_pattern(3), j)
        assert abs(c1) > 0.5

    def test_no_coalescence_gives_zero_slope(self):
        j = 1
        pos = np.array([self.base.value(m) for m in range(4)])
        gaps0 = np.diff(pos)
        members = []
        for d in self.deltas:
            g = gaps0.copy()
            g[j + 1] = 0.5 + d
            members.append(zz.Prevertices.from_positive_gaps(g[1:]))
        _, c1, res = zz.coalescence_log_fit(self.deltas, members, zz.ne_pattern(3), j)
        assert res < 1e-3
        assert abs(c1) < 1e-4

    def test_needs_two_decades(self):
        with pytest.raises(ValueError):
            zz.coalescence_log_fit(
                np.geomspace(1e-5, 5e-5, 8),
                zz.make_coalescing_family(self.base, 1, np.geomspace(1e-5, 5e-5, 8)),
                zz.ne_pattern(3),
                1,
            )

    def test_needs_six_samples(self):
        d = np.geomspace(1e-6, 1e-4, 4)
        with pytest.raises(ValueError):
            zz.coalescence_log_fit(
                d, zz.make_coalescing_family(self.base, 1, d), zz.ne_pattern(3), 1
            )
