import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import zigzag as zz
from zigzag.errors import DomainError, NoConvergence, QuadratureFailure
from zigzag.quadrature import IntervalLayout, interval_abs_integral
from zigzag.scmap import (_development, _log_ratios, _newton_batch, _side_system,
                          _symmetric_gaps, positive_sides)


def rounded_gaps(gaps):
    """_symmetric_gaps of one tuple or a stack, along the last axis, with
    every gap rounded through the absolute prevertices s_m."""
    one = np.ones(np.shape(gaps)[:-1] + (1,))
    pos = np.concatenate((0.0 * one, one, 1.0 + np.cumsum(gaps, axis=-1)), axis=-1)
    return np.diff(np.concatenate((-pos[..., :0:-1], pos), axis=-1), axis=-1)


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
        prev = zz.Prevertices(2, (0.9,))
        from zigzag.quadrature import product_value

        zs = np.array([0.3 + 0.7j, -1.2 + 0.1j, 2.5 + 2.5j, 0.5 + 1e-3j])
        ne = product_value(prev.values, zz.ne_pattern(2).exponents, zs)
        sw = product_value(prev.values, zz.sw_pattern(2).exponents, zs)
        assert np.max(np.abs(ne * sw - 1.0)) < 1e-12


class TestPrevertices:
    """A tuple is its genus and its p-1 free gaps above s_1; its values and
    gaps are derived from them, symmetric with s_0 = 0 and s_1 = 1."""

    @pytest.mark.parametrize("p", range(2, 41))
    def test_values_and_gaps_bit_equal_the_cumsum_construction(self, p):
        rng = np.random.default_rng(p)
        for free in (np.exp(rng.uniform(math.log(1e-9), math.log(10.0), p - 1)),
                     np.full(p - 1, 1e-9), np.full(p - 1, 10.0)):
            prev = zz.Prevertices(p, free)
            pos = np.concatenate(([0.0, 1.0], 1.0 + np.cumsum(free)))
            assert prev.values == tuple(np.concatenate((-pos[:0:-1], pos)))
            assert prev.gaps == tuple(_symmetric_gaps(free))
            assert prev.free == tuple(free) and prev.genus == p
            assert prev.value(0) == 0.0 and prev.value(1) == 1.0

    @pytest.mark.parametrize("p", [0, 1])
    def test_genus0_and_1_have_no_free_gap(self, p):
        prev = zz.Prevertices(p, ())
        assert prev.values == tuple(np.arange(-p, p + 1.0)) and prev.gaps == (1.0,) * (2 * p)

    @pytest.mark.parametrize("p, free", [
        (3, (0.5, 0.0)), (3, (0.5, -1.0)), (3, (math.nan, 1.0)), (3, (math.inf, 1.0)),
        (2, (1e308,)), (3, (1e308, 1e308)),  # a span s_p - s_-p that overflows
        (3, (0.5,)), (3, (0.5, 1.0, 2.0)), (1, (0.5,)), (0, (1.0,)),
    ])
    def test_refuses_bad_free_gaps(self, p, free):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive free gaps"):
                zz.Prevertices(p, free)

    def test_coalescing_family_refuses_a_zero_delta(self):
        with pytest.raises(ValueError):
            zz.make_coalescing_family(zz.Prevertices(3, (0.6, 1.0)), 1, [1e-3, 0.0])


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
        prev = zz.Prevertices(pat.genus, np.exp(u))
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
        # the Jacobian of the log ratios of both patterns at once against
        # central differences at h = 1e-5, the sides taken through the same
        # gaps.  Differences of a side carry its rounding, about 1e-16
        # |side| / h, and a side next to tiny gaps moves 1e-5 as fast as it
        # is long, so d(log side)/du is held to 1e-9, and so is each log
        # ratio's derivative
        p, k, u = problem
        rows = np.stack((zz.ne_pattern(p, k).exponents, zz.sw_pattern(p, k).exponents))

        def sides_at(v):
            return positive_sides(zz.Prevertices(p, np.exp(v)).gaps, rows)

        def central(f):
            h = 1e-5
            return np.stack([(f(u + h * e) - f(u - h * e)) / (2.0 * h) for e in np.eye(p - 1)],
                            axis=-1)

        # the 12-node values of a Newton iterate and the certified values of
        # the same point, whose sides are the certified sides
        system = _side_system(rows, 1, lambda sides, ratios, J: (sides[0], J[0]))
        (rough, rough_jac), certify = system(u[None])
        sides, jac = certify()
        assert np.array_equal(sides, sides_at(u))
        assert np.all(np.abs(rough - sides) <= 1e-12 * sides)
        fd = central(lambda v: _log_ratios(sides_at(v)))
        for d in (rough_jac, jac):
            assert np.all(np.abs(d - fd) <= 1e-9)
        # each side's own derivative, which the log ratios do not see if
        # every side's d(log side)/du is off by the same amount: u_i is the
        # log of the gap above s_(i+1) and of its mirror below s_(-i-1)
        layout = IntervalLayout((2 * p,), rows, np.arange(p, 2 * p), derivatives=True)
        (_, rough_dlog), certify = layout.point(_symmetric_gaps(np.exp(u)))
        fd = central(sides_at)
        for dlog in (rough_dlog, certify()[1]):
            d = (dlog[:, p + 1:] + dlog[:, p - 2::-1]).swapaxes(1, 2)
            assert np.all(np.abs(d - fd) <= 1e-9 * sides[..., None])


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
        monkeypatch.setattr(sys.modules["zigzag.scmap"], "_symmetric_gaps", rounded_gaps)
        with pytest.raises(NoConvergence) as err:
            zz.solve_parameter_problem(zz.ZigzagParams(p, k, sides), zz.sw_pattern(p, k))
        assert err.value.trace and err.value.trace[-1] > 1e-11
        assert len(kernel_plans) <= 61

    @staticmethod
    def exact(r, J):
        """A Newton point (values, certify) of an exact test system, stacked
        over one member, whose certified values are its values."""
        return (r, J), lambda: (r, J)

    def test_kernel_failure_at_a_trial_point_ends_newton(self):
        # the kernel fails to certify the point, or rejects its gaps
        for error in (QuadratureFailure, DomainError):
            calls = []

            def system(u):
                calls.append(u.copy())
                if len(calls) == 2:
                    raise error("injected at the first trial point")
                return self.exact(u - 1.0, np.eye(u.shape[1])[None])

            with pytest.raises(NoConvergence) as err:
                _newton_batch(system, np.zeros((1, 2)), "linear test system")
            assert len(calls) == 2
            assert err.value.trace == [1.0]  # max|F| at the seed
            assert isinstance(err.value.__cause__, error)

    def test_step_to_a_subnormal_gap_ends_newton(self):
        # the seed steps to the log-gaps (0, -745), whose second gap
        # exp(-745) = 5e-324 the kernel refuses at once (DomainError)
        log_ratios = _side_system(zz.ne_pattern(3, 2).exponents[None, :], 1,
                                  lambda sides, r, J: (r[:, 0], J[:, 0]))

        def system(u):
            if u[0, 1] == 0.0:  # the seed
                return self.exact(np.array([[0.0, 745.0]]), np.eye(2)[None])
            return log_ratios(u)

        with pytest.raises(NoConvergence) as err:
            _newton_batch(system, np.zeros((1, 2)), "subnormal step test system")
        assert err.value.trace == [745.0]
        assert isinstance(err.value.__cause__, DomainError)
        assert str(err.value.__cause__).endswith("tuple 0, gap 0 is 5e-324")  # and its mirror 5

    @pytest.mark.parametrize("count", [1, 2], ids=["tuple", "stack"])
    def test_step_to_overflowing_partial_sums_ends_newton(self, count):
        # the seed steps the last member to the log-gaps (709, 709): both
        # gaps are finite, 8.2e307, but the partial sums over them overflow.
        # The kernel refuses that tuple at once (DomainError), with no
        # overflow warning first (an error under the suite's filterwarnings);
        # in a stack the first member is converged at the seed and rides along
        log_ratios = _side_system(zz.ne_pattern(3, 2).exponents[None, :], count,
                                  lambda sides, r, J: (r[:, 0], J[:, 0]))
        seed = np.zeros((count, 2))
        seed[-1] = -709.0
        visited = []

        def system(u):
            visited.append(u.copy())
            if not u.any():  # the seed
                return self.exact(seed, np.tile(np.eye(2), (count, 1, 1)))
            return log_ratios(u)

        with pytest.raises(NoConvergence) as err:
            _newton_batch(system, np.zeros((count, 2)), "overflow step test system")
        assert err.value.trace == [709.0]
        assert np.array_equal(visited[-1], -seed)
        assert isinstance(err.value.__cause__, DomainError)
        assert str(err.value.__cause__) == (
            "interval gaps must be positive normal floats with finite partial sums: "
            f"tuple {count - 1}, partial sum s_5 - s_0 is inf")

    def test_certification_failure_at_a_converged_point_ends_newton(self):
        # F(u) = u - 1 is solved by the first step; the 12-node sums there
        # read max|F| = 0, and certifying them fails
        certified = []

        def system(u):
            def certify():
                certified.append(u[0].copy())
                raise QuadratureFailure("injected at certification")

            return (u - 1.0, np.eye(u.shape[1])[None]), certify

        with pytest.raises(NoConvergence) as err:
            _newton_batch(system, np.zeros((1, 2)), "linear test system")
        assert len(certified) == 1 and np.array_equal(certified[0], np.ones(2))
        assert err.value.trace == [1.0]  # the seed's; the uncertified 0 is not kept
        assert isinstance(err.value.__cause__, QuadratureFailure)

    def test_certified_residual_above_tolerance_continues_newton(self):
        # the 12-node F is u - 1 left of u = 1, off by 1e-9 from the
        # certified F, u - (1 + 1e-9): its zero u = 1 looks converged, the
        # certificate reads max|F| = 1e-9 there, and Newton goes on from the
        # certified values to the certified zero
        root = 1.0 + 1e-9
        certified = []

        def system(u):
            def certify():
                certified.append(float(u[0, 0]))
                return u - root, np.eye(1)[None]

            return (u - (1.0 if u[0, 0] <= 1.0 else root), np.eye(1)[None]), certify

        [(u, residuals, (r, _))] = _newton_batch(system, np.zeros((1, 1)), "offset test system")
        assert certified == [1.0, root] and u[0] == root and r[0] == 0.0
        assert residuals == [1.0, pytest.approx(1e-9, rel=1e-6), 0.0]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_singular_jacobian_ends_newton(self):
        # F(u) = u^2 + 1 has no real zero, and J = 2u is singular at the seed
        def system(u):
            return self.exact(u ** 2 + 1.0, 2.0 * u[:, None] * np.eye(1))

        with pytest.raises(NoConvergence) as err:
            _newton_batch(system, np.zeros((1, 1)), "rootless test system")
        assert err.value.trace == [1.0]

    @pytest.mark.parametrize("bad", ["F", "J"])
    def test_non_finite_values_end_newton(self, bad):
        # a NaN in F, or an inf in J, at the seed ends the solve before its
        # max|F| is recorded, with DomainError as the cause
        def system(u):
            r, J = u - 1.0, np.eye(2)[None].copy()
            if bad == "F":
                r[0, 1] = np.nan
            else:
                J[0, 0, 1] = np.inf
            return self.exact(r, J)

        with pytest.raises(NoConvergence) as err:
            _newton_batch(system, np.zeros((1, 2)), "non-finite test system")
        assert err.value.trace == []
        assert isinstance(err.value.__cause__, DomainError)
        assert str(err.value.__cause__) == "F or its Jacobian is not finite"

    def test_sixtieth_point_ends_newton(self):
        # F(u) = u - 1 with J = 10: each step cuts max|F| by 0.9 alone, so
        # the 60th point is still far from converged and ends the solve
        def system(u):
            return self.exact(u - 1.0, 10.0 * np.eye(2)[None])

        with pytest.raises(NoConvergence) as err:
            _newton_batch(system, np.zeros((1, 2)), "slow test system")
        assert len(err.value.trace) == 60 and err.value.__cause__ is None
        assert err.value.trace[-1] == pytest.approx(0.9 ** 59)
        assert all(b < a for a, b in zip(err.value.trace, err.value.trace[1:]))


def stacked_problems(z, patterns):
    """(system, seeds) of the parameter problems of z under ``patterns`` as
    one stack for _newton_batch, each member on its own exponent row."""
    target = _log_ratios(np.asarray(zz.canonicalize(z).side_lengths))
    system = _side_system(np.stack([pat.exponents for pat in patterns])[:, None, :],
                          len(patterns), lambda sides, r, J: (r[:, 0] - target, J[:, 0]))
    return system, np.tile(target, (len(patterns), 1))


def solo_problem(z, pat):
    """(u, residuals, values) of one parameter problem solved alone, a
    stack of one member on the shared-row path of one tuple."""
    target = _log_ratios(np.asarray(zz.canonicalize(z).side_lengths))
    system = _side_system(pat.exponents[None], 1, lambda sides, r, J: (r[:, 0] - target, J[:, 0]))
    [result] = _newton_batch(system, target[None], "solo")
    return result


class TestStackedNewton:
    """_newton_batch iterates a stack of systems on one layout, one kernel
    plan per Newton point: a converged member rides along at its point,
    one certificate compares the whole plan once no member steps, and the
    first failure ends the stack; each member's u and history are bit for
    bit those of its solve alone."""

    CASES = [
        (5, 2, (1.0, 0.8, 1.2, 0.9, 1.1)),
        (6, 3, (0.3, 1.0, 0.6, 0.9, 0.2, 0.5)),
        (9, 4, (1.0,) * 9),
        (4, 2, (0.007894788333827259, 0.012422950638328267, 0.9784753070938964,
                0.00037870005830786916)),
    ]

    @pytest.mark.parametrize("p,k,sides", CASES)
    def test_members_equal_their_solo_solves(self, interval_layouts, kernel_plans, p, k, sides):
        # at (9, 4) and (4, 2) the members converge one Newton point apart,
        # and the first to converge rides along to the other's point
        z = zz.ZigzagParams(p, k, sides)
        patterns = (zz.ne_pattern(p, k), zz.sw_pattern(p, k))
        system, seeds = stacked_problems(z, patterns)
        results = _newton_batch(system, seeds, "NE and SW")
        stacked_plans = len(kernel_plans)
        assert [layout[1:] for layout in interval_layouts] == [((2, 2 * p), (2, 1, 2 * p + 1),
                                                                True)]
        for pat, (u, history, values) in zip(patterns, results):
            solo_u, solo_history, solo_values = solo_problem(z, pat)
            assert np.array_equal(u, solo_u) and history == solo_history
            assert all(np.array_equal(a, b) for a, b in zip(values, solo_values))
        # one plan per Newton point of the stack, not one per member
        assert stacked_plans == max(len(h) for _, h, _ in results)
        if (p, k) in ((9, 4), (4, 2)):
            assert [len(h) for _, h, _ in results] == [4, 5]
        prevs = zz.solve_parameter_problems(z, patterns)
        for pat, prev in zip(patterns, prevs):
            assert prev.gaps == zz.solve_parameter_problem(z, pat).gaps

    def test_refused_trial_point_ends_the_stack(self, interval_layouts, kernel_plans):
        # member 0's seed steps to the log-gaps (0, -745), whose gap
        # exp(-745) = 5e-324 the kernel refuses: the stacked trial point
        # ends the stack with member 0's NoConvergence, on one layout
        z = zz.ZigzagParams(3, 2, (1.0, 0.7, 1.3))
        patterns = (zz.ne_pattern(3), zz.sw_pattern(3))
        system, seeds = stacked_problems(z, patterns)

        def rigged(u):
            (F, J), certify = system(u)
            if (u[0] == seeds[0]).all():
                F[0], J[0] = [0.0, 745.0], np.eye(2)
            return (F, J), certify

        with pytest.raises(NoConvergence) as failed:
            _newton_batch(rigged, seeds, "NE and SW")
        assert failed.value.trace == [745.0]
        assert str(failed.value).startswith("NE and SW stalled")
        assert str(failed.value.__cause__).endswith("tuple 0, gap 0 is 5e-324")
        assert [layout[1:] for layout in interval_layouts] == [((2, 6), (2, 1, 7), True)]
        assert len(kernel_plans) == 2  # the seed and the refused trial point

    def test_certificate_failure_ends_the_stack(self):
        # F(u) = u - 1 for both members, solved by the first step; the one
        # certificate of the stack fails there and ends the solve, with the
        # history of the first member waiting for it
        calls = []

        def system(u):
            F, J = u - 1.0, np.stack([np.eye(2)] * len(u))

            def certify():
                calls.append(u.copy())
                raise QuadratureFailure("injected at the certificate")

            return (F, J), certify

        with pytest.raises(NoConvergence) as failed:
            _newton_batch(system, np.zeros((2, 2)), "a and b")
        assert len(calls) == 1 and np.array_equal(calls[0], np.ones((2, 2)))
        assert failed.value.trace == [1.0]
        assert isinstance(failed.value.__cause__, QuadratureFailure)

    @pytest.mark.parametrize("p,k,sides", TestNewtonFallback.STALLED)
    def test_failing_member_is_raised_as_alone(self, monkeypatch, p, k, sides):
        # with gaps rounded through absolute prevertices (TestNewtonFallback)
        # the SW solve of these zigzags stalls and the NE solve converges:
        # the stack raises the SW failure, history and message as alone
        monkeypatch.setattr(sys.modules["zigzag.scmap"], "_symmetric_gaps", rounded_gaps)
        z = zz.ZigzagParams(p, k, sides)
        ne, sw = zz.ne_pattern(p, k), zz.sw_pattern(p, k)
        with pytest.raises(NoConvergence) as alone:
            zz.solve_parameter_problem(z, sw)
        for patterns in ((ne, sw), (sw, ne)):
            with pytest.raises(NoConvergence) as stacked:
                zz.solve_parameter_problems(z, patterns)
            assert stacked.value.trace == alone.value.trace
            assert str(stacked.value) == str(alone.value)
        assert zz.solve_parameter_problems(z, (ne,))[0].gaps == zz.solve_parameter_problem(z, ne).gaps


class TestForwardMap:
    def test_genus1_vertex_images(self):
        prev = zz.Prevertices(1, ())
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
        prev = zz.Prevertices(2, (1.3,))
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
        prev = zz.Prevertices(1, ())
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
        prev = zz.Prevertices(2, (0.8,))
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            per = zz.periods(prev, pat)
            ratio = per[1] / per[0]
            assert abs(abs(ratio.real)) < 1e-12
            assert math.isclose(abs(np.angle(ratio)), math.pi / 2, rel_tol=1e-12)

    def test_genus1_unit_period(self):
        prev = zz.Prevertices(1, ())
        per = zz.periods(prev, zz.ne_pattern(1))
        assert math.isclose(abs(per[0]), 1.0, rel_tol=1e-12)


class TestCoalescenceFit:
    def setup_method(self):
        self.base = zz.Prevertices(3, (0.6, 1.0))
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
            members.append(zz.Prevertices(3, g[1:]))
        _, c1, res = zz.coalescence_log_fit(self.deltas, members, zz.ne_pattern(3), j)
        assert res < 1e-3
        assert abs(c1) < 1e-4

    def test_misfit_family_is_rejected(self):
        # the members against the gaps in reverse order: |a_j| no longer
        # follows the log model, and the fit is refused
        members = zz.make_coalescing_family(self.base, 1, self.deltas)
        with pytest.raises(zz.FitFailure, match=r"^log model rejected: relative residual"):
            zz.coalescence_log_fit(self.deltas, members[::-1], zz.ne_pattern(3), 1)

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
