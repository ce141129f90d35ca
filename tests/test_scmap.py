import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import zigzag as zz
from zigzag.errors import DomainError, NoConvergence, QuadratureFailure
from zigzag.quadrature import interval_abs_integral
from zigzag.scmap import _development, _newton_solve, _side_jacobian, positive_sides


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


class TestPrevertices:
    def test_near_symmetric_tuple_is_stored_symmetric(self):
        prev = zz.Prevertices((-1.9, -1.0, 0.0, 1.0, 1.9 + 1e-13))
        v = np.array(prev.values)
        assert np.array_equal(v, -v[::-1])
        assert v[-1] == 1.9 + 5e-14
        assert prev.gaps == tuple(np.diff(v))

    def test_given_gaps_are_stored_symmetric(self):
        values = (-1.9, -1.0, 0.0, 1.0, 1.9 + 1e-13)
        prev = zz.Prevertices(values, tuple(np.diff(values)))
        g = np.array(prev.gaps)
        assert np.array_equal(g, g[::-1])
        assert np.max(np.abs(g - np.diff(prev.values))) < 1e-15

    def test_symmetrized_tuple_is_checked_against_s1(self):
        # s_1 becomes 1 + 5e-14 once symmetrized, off the normalization
        with pytest.raises(ValueError, match="s_1"):
            zz.Prevertices((-1.9, -1.0 - 1e-13, 0.0, 1.0, 1.9))

    def test_asymmetric_tuple_raises(self):
        with pytest.raises(ValueError):
            zz.Prevertices((-1.9, -1.0, 0.0, 1.0, 1.9 + 1e-3))


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
            l0, l1 = interval_abs_integral(np.diff(prevs), pat.exponents, [2, 3])
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
            pos = interval_abs_integral(prev.gaps, pat.exponents, j + p)
            neg = interval_abs_integral(prev.gaps, pat.exponents, p - j - 1)
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
        sides = positive_sides(prev.gaps, pat.exponents)
        z = zz.ZigzagParams(pat.genus, pat.turn_order, tuple(sides))
        got = zz.solve_parameter_problem(z, pat)
        assert np.max(np.abs(np.subtract(got.values, prev.values))) < 1e-8


@st.composite
def roundtrip_problems(draw):
    """Genus, turn order, orientation and p sides log-uniform in [1e-4, 1],
    as the roundtrip benchmark draws them."""
    p = draw(st.integers(2, 6))
    k = draw(st.sampled_from((2, 3)))
    orientation = draw(st.sampled_from(("NE", "SW")))
    logs = draw(st.lists(st.floats(math.log(1e-4), 0.0), min_size=p, max_size=p))
    return p, k, orientation, tuple(np.exp(logs))


class TestRoundTripProperty:
    @settings(max_examples=30, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(roundtrip_problems())
    # thin SW zigzags on which Newton once stalled at the rounding floor of
    # absolute prevertices (gaps near 1e-8 of s_m) and needed a rescue
    @example((5, 2, "SW", (0.0001829710324967196, 0.15957477285088748, 0.8385852567045686,
                           0.0010644370942349446, 0.0005925623178122302)))
    @example((5, 2, "SW", (0.007894788333827259, 0.012422950638328267, 0.9784753070938964,
                           0.00037870005830786916, 0.0008282538756402956)))
    @example((5, 3, "SW", (0.46279620454221515, 0.0019207332671975135, 0.532670526071807,
                           0.0019155686755075666, 0.0006969674432730067)))
    @example((6, 3, "SW", (0.005821903417449208, 0.9034947169331459, 0.05798343749453176,
                           0.03219333257619907, 0.0002685936769337849, 0.000238015901740487)))
    def test_solve_reproduces_the_sides(self, kernel_plans, problem):
        # plain Newton converges, and the tuple re-integrates to the sides
        p, k, orientation, sides = problem
        kernel_plans.clear()
        z = zz.ZigzagParams(p, k, sides)
        pat = zz.ExponentPattern(orientation, p, k)
        prev = zz.solve_parameter_problem(z, pat)
        assert len(kernel_plans) <= 61
        got = np.array([zz.side_length(prev, pat, j) for j in range(p)])
        target = np.asarray(zz.canonicalize(z).side_lengths)
        assert np.max(np.abs(got / math.fsum(got) - target) / target) <= 1e-8


@st.composite
def jacobian_problems(draw):
    """Genus, turn order and p-1 log-gaps, log-uniform in [1e-6, 10]."""
    p = draw(st.integers(2, 8))
    k = draw(st.integers(2, 5))
    u = draw(st.lists(st.floats(math.log(1e-6), math.log(10.0)), min_size=p - 1,
                      max_size=p - 1))
    return p, k, np.array(u)


class TestExactJacobian:
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(jacobian_problems())
    # Newton trial points of two cold solves (p = 5, k = 3) whose derivative
    # rows stalled when a prevertex just beyond an interval's far end was
    # measured from the near end
    @example((5, 3, np.log([1.2202073651557404, 1.6391528497470569,
                            1.021609503926918e-09, 8.621898871390182e-10])))
    @example((5, 3, np.log([10.211878668305674, 25.282076647072344,
                            4.2640006576183904e-08, 1.0107448802573465e-07])))
    def test_matches_central_differences(self, problem):
        # d(sides)/du of both patterns at once against central differences
        # at h = 1e-5, the sides taken through the same gaps.  Differences
        # of a side carry its rounding, about 1e-16 |side| / h, and a side
        # next to tiny gaps moves 1e-5 as fast as it is long, so each row is
        # held to 1e-9 of its own side: d(log side)/du to 1e-9
        p, k, u = problem
        rows = np.stack((zz.ne_pattern(p, k).exponents, zz.sw_pattern(p, k).exponents))

        def sides_at(v):
            return positive_sides(zz.Prevertices.from_positive_gaps(np.exp(v)).gaps, rows)

        sides, jac = _side_jacobian(u, rows)
        assert np.array_equal(sides, sides_at(u))
        h = 1e-5
        fd = np.stack([(sides_at(u + h * e) - sides_at(u - h * e)) / (2.0 * h)
                       for e in np.eye(p - 1)], axis=-1)
        assert np.all(np.abs(jac - fd) <= 1e-9 * sides[..., None])


class TestNewtonFallback:
    """What Newton does when it cannot converge: NoConvergence, carrying
    max|F| of every iteration, is its only failure exit.  The samples are
    thin SW zigzags whose gaps are near 1e-8 of s_m."""

    STALLED = [
        (5, 2, (0.007894788333827259, 0.012422950638328267, 0.9784753070938964,
                0.00037870005830786916, 0.0008282538756402956)),
        (5, 3, (0.46279620454221515, 0.0019207332671975135, 0.532670526071807,
                0.0019155686755075666, 0.0006969674432730067)),
    ]

    @pytest.mark.parametrize("p,k,sides", STALLED)
    def test_stall_gives_up_promptly(self, monkeypatch, kernel_plans, p, k, sides):
        # gaps rounded through absolute prevertices, as integrals once took
        # them, put a floor under max|F| above the tolerance: Newton stops
        # at the first step that does not reduce it and raises
        def rounded(gaps):
            pos = np.concatenate(([0.0, 1.0], 1.0 + np.cumsum(gaps)))
            return np.diff(np.concatenate((-pos[:0:-1], pos)))

        monkeypatch.setattr(sys.modules["zigzag.scmap"], "_symmetric_gaps", rounded)
        with pytest.raises(NoConvergence) as err:
            zz.solve_parameter_problem(zz.ZigzagParams(p, k, sides), zz.sw_pattern(p, k))
        assert err.value.trace and err.value.trace[-1] > 1e-11
        assert len(kernel_plans) <= 61

    def test_kernel_failure_at_a_trial_point_ends_newton(self):
        # the kernel fails to certify the point, or rejects its gaps
        for error in (QuadratureFailure, DomainError):
            calls = []

            def system(u):
                calls.append(u.copy())
                if len(calls) == 2:
                    raise error("injected at the first trial point")
                return u - 1.0, np.eye(u.size)

            with pytest.raises(NoConvergence) as err:
                _newton_solve(system, np.zeros(2), "linear test system")
            assert len(calls) == 2
            assert err.value.trace == [1.0]  # max|F| at the seed
            assert isinstance(err.value.__cause__, error)

    def test_singular_jacobian_ends_newton(self):
        # F(u) = u^2 + 1 has no real zero, and J = 2u is singular at the seed
        def system(u):
            return u ** 2 + 1.0, np.diag(2.0 * u)

        with pytest.raises(NoConvergence) as err:
            _newton_solve(system, np.zeros(1), "rootless test system")
        assert err.value.trace == [1.0]


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
        # the raw chain V from the steps, V at s_0 = 0, normalized by A
        # and the translation that puts V at s_0 on its target
        prev = genus2.prev_ne
        A, steps, targets = _development(prev, zz.sw_pattern(2))
        V = np.concatenate((-np.cumsum(steps[:2][::-1])[::-1], [0.0], np.cumsum(steps[2:])))
        assert np.max(np.abs(A * V + targets[2] - targets)) < 1e-8

    def test_interior_points_against_mpmath_oracle(self):
        prev = zz.Prevertices((-2.3, -1.0, 0.0, 1.0, 2.3))
        # 1 + 1e-12j and 1.6 + 1e-12j end 1e-12 above the axis near s_1;
        # 5 + 1e-300j lies 1e-300 above the axis beyond s_2, and the real
        # point 1.000000001 ends 1e-9 past s_1
        points = (0.7 + 0.4j, 1 + 1e-3j, 1.6 + 1e-6j, -2.3 + 1e-4j, 3 + 0.01j,
                  0.3j, -5 + 2j, 1 + 1e-12j, 1.6 + 1e-12j, 5 + 1e-300j,
                  1.000000001)
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            A, _, targets = _development(prev, pat)
            for t in points:
                raw = mp_segment_from_zero(prev.values, pat.exponents, t)
                assert abs(zz.forward_map(prev, pat, t) - (A * raw + targets[2])) < 1e-10, t

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
            for j, a in enumerate(per):
                side = abs(chain.vertex(j + 1) - chain.vertex(j))
                assert math.isclose(abs(a), side, rel_tol=1e-9)

    def test_right_angle_turns_k2(self):
        prev = zz.Prevertices((-1.8, -1.0, 0.0, 1.0, 1.8))
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            per = zz.periods(prev, pat)
            ratio = per[1] / per[0]
            assert abs(abs(ratio.real)) < 1e-12
            assert math.isclose(abs(np.angle(ratio)), math.pi / 2, rel_tol=1e-12)

    def test_genus1_unit_period(self):
        prev = zz.Prevertices((-1.0, 0.0, 1.0))
        per = zz.periods(prev, zz.ne_pattern(1))
        assert math.isclose(abs(per[0]), 1.0, rel_tol=1e-12)


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

    def test_one_kernel_call_per_fit(self, monkeypatch, kernel_plans):
        # |a_j| and |a_(j+1)| of all members come from one stacked call
        quad = sys.modules["zigzag.quadrature"]
        calls = []
        inner = quad.interval_abs_integral

        def spy(gaps, exps, j):
            calls.append(np.shape(gaps))
            return inner(gaps, exps, j)

        monkeypatch.setattr(quad, "interval_abs_integral", spy)
        members = zz.make_coalescing_family(self.base, 1, self.deltas)
        zz.coalescence_log_fit(self.deltas, members, zz.ne_pattern(3), 1)
        assert calls == [(len(members), 6)]
        assert len(kernel_plans) == 1

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

    @pytest.mark.parametrize("j", [-1, 2])
    def test_period_index_out_of_range(self, j):
        # a_j and a_(j+1) must both be positive-side periods of genus 3
        members = zz.make_coalescing_family(self.base, 1, self.deltas)
        with pytest.raises(ValueError):
            zz.coalescence_log_fit(self.deltas, members, zz.ne_pattern(3), j)

    def test_needs_six_samples(self):
        d = np.geomspace(1e-6, 1e-4, 4)
        with pytest.raises(ValueError):
            zz.coalescence_log_fit(
                d, zz.make_coalescing_family(self.base, 1, d), zz.ne_pattern(3), 1
            )
