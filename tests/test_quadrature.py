import cmath
import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import zigzag as zz
from zigzag.errors import DomainError, QuadratureFailure
from zigzag.quadrature import (_BASE_NODES, IntervalLayout, IntervalPlan, _ends, _graded_panels,
                                _rule, _segment_reach, _SegmentPanels, arc_integral,
                                interval_abs_integral, segment_integral)
from zigzag.scmap import _directions


def jacobian_point(gaps, exps, j):
    """(values, certify) of a Newton point at ``gaps``: IntervalLayout.point
    of a fresh layout with derivative rows, the integrals (I, g dI/dg) from
    the 12-node sum and their certificate."""
    return IntervalLayout(np.shape(gaps), exps, j, derivatives=True).point(gaps)


def certified_jacobian(gaps, exps, j):
    """The certified (I, g dI/dg) of jacobian_point."""
    return jacobian_point(gaps, exps, j)[1]()


# int_0^1 (t+1)^(1/2) t^(-1/2) (1-t)^(1/2) dt, mpmath tanh-sinh at 30 digits
L_STAR = 1.7480383695280798595


def mp_side(prevs, exps, i, dps=30):
    """Independent oracle: scaled tanh-sinh quadrature of one interval.

    Its nodes resolve 1 - s only to about 10^-dps, which truncates an end
    singularity (1 - s)^e by about 10^(-dps (1 + e)): 2.7e-9 relative at
    e = -3/4 with 30 digits."""
    mp.mp.dps = dps
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
        prev = zz.Prevertices(1, ())
        val = zz.side_length(prev, zz.ne_pattern(1), 0)
        assert math.isclose(val, L_STAR, rel_tol=1e-13)

    def test_scaling_law(self):
        # doubling all prevertex gaps scales the genus-1 NE side by 2^(3/2)
        exps = zz.ne_pattern(1).exponents
        v1 = interval_abs_integral([1.0, 1.0], exps, 1)
        v2 = interval_abs_integral([2.0, 2.0], exps, 1)
        assert math.isclose(v2 / v1, 2.0 ** 1.5, rel_tol=1e-12)

    def test_index_out_of_range(self):
        prev = zz.Prevertices(1, ())
        with pytest.raises(ValueError):
            zz.side_length(prev, zz.ne_pattern(1), 1)

    @pytest.mark.parametrize("j", [0, 1])
    def test_against_mpmath_oracle(self, j):
        prev = zz.Prevertices(2, (1.3,))
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            val = zz.side_length(prev, pat, j)
            ora = mp_side(list(prev.values), list(pat.exponents), j + 2)
            assert math.isclose(val, ora, rel_tol=1e-11)

    def test_node_doubling_stability(self):
        # doubling the accepted node count moves every interval of both
        # patterns by < 1e-12
        prev = (-1.7, -1.0, 0.0, 1.0, 1.7)
        rows = np.stack((zz.ne_pattern(2).exponents, zz.sw_pattern(2).exponents))
        plan = IntervalPlan(np.diff(prev), rows, np.arange(4))
        accepted = np.abs(plan.integrate_abs(2 * _BASE_NODES))
        doubled = np.abs(plan.integrate_abs(4 * _BASE_NODES))
        assert accepted.shape == (2, 4)
        assert np.all(np.abs(doubled - accepted) < 1e-12 * doubled)

    @pytest.mark.parametrize("k, dps", [(2, 30), (3, 30), (4, 50)])
    def test_batch_matches_scalar_calls_and_oracle(self, k, dps):
        # every interval of a tuple with a 1e-9 gap, NE and SW rows stacked;
        # the oracle needs 50 digits for the exponent -3/4 of k = 4, and
        # the mirror intervals j >= 3 repeat the moduli of j < 3
        prevs = [-2.3 - 1e-9, -2.3, -1.0, 0.0, 1.0, 2.3, 2.3 + 1e-9]
        rows = np.stack((zz.ne_pattern(3, k).exponents, zz.sw_pattern(3, k).exponents))
        j = np.arange(len(prevs) - 1)
        batch = interval_abs_integral(np.diff(prevs), rows, j)
        assert batch.shape == (2, j.size)
        for r, exps in enumerate(rows):
            for i in j:
                one = interval_abs_integral(np.diff(prevs), exps, i)
                assert np.ndim(one) == 0
                assert abs(batch[r, i] - one) <= 1e-14 * one
            for i in range(3):
                ora = mp_side(prevs, list(exps), i, dps=dps)
                assert math.isclose(batch[r, i], ora, rel_tol=1e-10)
                assert math.isclose(batch[r, 5 - i], ora, rel_tol=1e-10)

    def test_tiny_gap_interval(self):
        # collapsing interval keeps full relative accuracy
        exps = zz.ne_pattern(2).exponents
        for gap in (1e-4, 1e-6):
            prevs = [-1.0 - gap, -1.0, 0.0, 1.0, 1.0 + gap]
            val = interval_abs_integral(np.diff(prevs), exps, 3)
            ora = mp_side(prevs, list(exps), 3)
            assert math.isclose(val, ora, rel_tol=1e-10)


class TestGaussJacobiRule:
    @pytest.mark.parametrize("beta", [0.0] + [s * (k - 1) / k for k in range(2, 9) for s in (1, -1)])
    @pytest.mark.parametrize("n", [12, 24, 48])
    def test_against_mpmath(self, n, beta):
        # every rule the kernel builds for turn orders k <= 8 (12 and 24
        # nodes) and 48 nodes, exponents 0 and +-(k-1)/k.  The 40-digit
        # reference takes Newton steps from each node on mp.jacobi
        # (hypergeometric, not the recurrence), with
        # P_n' = (n + beta + 1)/2 P_{n-1}^(1, beta+1)
        x, w = _rule(n, beta)
        with mp.workdps(40):
            b = mp.mpf(beta)

            def slope(t):
                return (n + b + 1) / 2 * mp.jacobi(n - 1, 1, b + 1, t)

            ref_x, ref_w = [], []
            for t in map(mp.mpf, x):
                for _ in range(2):
                    t -= mp.jacobi(n, 0, b, t) / slope(t)
                ref_x.append(float(t))
                ref_w.append(float(2 ** (b + 1) / ((1 - t) * (1 + t) * slope(t) ** 2)))
        assert np.all(np.diff(ref_x) > 0)  # n distinct roots: every root of P_n
        assert np.max(np.abs(x - ref_x)) <= 1e-15
        assert np.max(np.abs(w / ref_w - 1)) <= 1e-12
        # the rule is polished in long double; where that is plain double, the
        # weight of the node nearest -1 keeps its rounding (1.6e-13 of the sum)
        moment_tol = 1e-14 if np.finfo(np.longdouble).eps < 1e-18 else 3e-13
        assert abs(w.sum() / (2 ** (beta + 1) / (beta + 1)) - 1) <= moment_tol


class TestValidityMask:
    def test_masked_pairs_are_never_built_and_read_zero(self, monkeypatch):
        # the derivative rows e - delta_m on every interval of a tuple with a
        # 1e-6 gap: a row is masked on the two intervals ending at s_m, where
        # its Jacobi exponent e_m - 1 would be below -1
        quad = sys.modules["zigzag.quadrature"]
        p, k = 3, 3
        pos = np.array([0.0, 1.0, 1.0 + 1e-6, 2.7])
        prev = np.concatenate((-pos[:0:-1], pos))
        base = np.stack((zz.ne_pattern(p, k).exponents, zz.sw_pattern(p, k).exponents))
        m_count = base.shape[1]
        rows = (base[:, None, :] - np.vstack((np.zeros(m_count), np.eye(m_count)))).reshape(-1, m_count)
        j = np.arange(2 * p)
        built = []
        rule = quad._rule

        def spy(n, beta):  # every Jacobi panel starts at its own end: no alpha
            built.append(beta)
            return rule(n, beta)

        monkeypatch.setattr(quad, "_rule", spy)
        plan = IntervalPlan(np.diff(prev), base, j, derivatives=True)
        masked = np.array([[r % (m_count + 1) - 1 in (i, i + 1) for i in j] for r in range(len(rows))])
        for n in (quad._BASE_NODES, 2 * quad._BASE_NODES):  # no entry feeds a masked pair
            assert np.all(plan.integrate_abs(n)[masked] == 0.0)
        value = quad._doubled(plan.integrate_abs, quad._REL_TOL, 0.0, str)
        assert min(built) > -1.0 and plan.rules.min() > -1.0
        assert np.all(value[masked] == 0.0)
        for r, i in zip(*np.nonzero(~masked)):
            ref = interval_abs_integral(np.diff(prev), rows[r], j[i])
            assert abs(abs(value[r, i]) - ref) <= 1e-14 * ref


def mp_segment(prev, exps, z0, z1, dps=20):
    """Independent oracle: Gauss-Legendre quadrature of the product along
    the segment [z0, z1], principal branches, with mpmath choosing the
    degree."""
    with mp.workdps(dps):
        a, step = mp.mpc(z0), mp.mpc(z1) - mp.mpc(z0)
        factors = list(zip(map(float, prev), map(float, exps)))

        def f(u):
            z = a + u * step
            return mp.fprod(mp.power(z - s, e) for s, e in factors)

        return complex(step * mp.quad(f, [0, 1], method="gauss-legendre"))


THIN = [-2.3 - 1e-9, -2.3, -1.0, 0.0, 1.0, 2.3, 2.3 + 1e-9]


def complex_sums(plan, n):
    """The complex path of _SegmentPanels on an interval plan without
    derivative rows: its sums with n nodes per panel, each Jacobi entry's
    factor given back the phase ray^e of its absorbed factor (u ray)^e,
    as segment panels hold it and the plan's real factor h^(1 + e) does
    not."""
    ref = copy.copy(plan)
    row = np.argmax(plan.mask, axis=1)  # the one row of a Jacobi entry
    e = plan.rows[plan.group[plan.seg], plan.absorbed, row]
    ray = np.exp(e * np.log(plan.ray[plan.origin] + 0j))
    ref.factor = plan.factor * np.where(plan.absorbed >= 0, ray, 1.0)
    return _SegmentPanels.sums(ref, n)


class TestRealIntervalPath:
    @pytest.mark.parametrize("n", [_BASE_NODES, 2 * _BASE_NODES, 4 * _BASE_NODES])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_real_sums_match_complex_path(self, k, n):
        # every interval of a tuple with a 1e-9 gap, NE and SW rows stacked
        # (exponents of both signs): the real sums times the directions of
        # scmap against the complex path of _SegmentPanels on the same panels
        gaps, j = np.diff(THIN), np.arange(len(THIN) - 1)
        base = np.stack((zz.ne_pattern(3, k).exponents, zz.sw_pattern(3, k).exponents))
        assert (base > 0).any() and (base < 0).any()
        direction = _directions(base)[:, j]
        plan = IntervalPlan(gaps, base, j)
        real, ref = plan.integrate_abs(n), complex_sums(plan, n)
        assert real.dtype == np.float64
        assert np.all(np.abs(real * direction - ref) <= 1e-13 * np.abs(ref))
        # the derivative row e - delta_m against a plan of that row on the
        # intervals without an end at s_m: identical panels and end rules,
        # the sign of 1/(t - s_m) turning the direction of e into its own
        m_count = base.shape[1]
        plan = IntervalPlan(gaps, base, j, derivatives=True)
        value = plan.integrate_abs(n).reshape(2, m_count + 1, j.size) * direction[:, None]
        assert np.all(np.abs(value[:, 0] - ref) <= 1e-13 * np.abs(ref))
        for m in range(m_count):
            off = j[(j != m) & (j + 1 != m)]
            ref = complex_sums(IntervalPlan(gaps, base - np.eye(m_count)[m], off), n)
            assert np.all(np.abs(value[:, 1 + m, off] - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("routine", [interval_abs_integral, certified_jacobian])
    def test_certificate_can_fail(self, monkeypatch, routine):
        # with 4 base nodes the 1e-9 gap (s_0, s_1) next to its far
        # neighbours fails the 4-against-8-node comparison
        monkeypatch.setattr(sys.modules["zigzag.quadrature"], "_BASE_NODES", 4)
        rows = np.stack((zz.ne_pattern(3, 2).exponents, zz.sw_pattern(3, 2).exponents))
        with pytest.raises(QuadratureFailure, match=r"^interval \(0, 1\) of tuple 0, gap "):
            routine(np.diff(THIN), rows, np.arange(len(THIN) - 1))


class TestKernelInput:
    """IntervalPlan refuses what neither interval routine can integrate:
    gaps below the least normal float, which takes in every gap that is
    not positive, or whose partial sums are not finite (DomainError), and
    interval indices outside the tuple (ValueError).
    interval_abs_integral and certified_jacobian are each checked on one
    tuple and on a stack, and an overflowing partial sum in process too."""

    EXPS = [0.5, -0.5, 0.5, -0.5, 0.5]

    # Without the check an infinite, zero or negative gap can grade panels
    # until memory runs out, and a subnormal one can round the first break
    # to 0, so the bad gaps run in a child process capped at 1 GiB of
    # address space, where such a regression fails fast.  A gap of 5e-324
    # is what a Newton step to a log-gap of about -745 asks for.
    CHILD = """
import json, resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from zigzag.quadrature import IntervalLayout, interval_abs_integral
def certified_jacobian(gaps, exps, j):
    return IntervalLayout(np.shape(gaps), exps, j, derivatives=True).point(gaps)[1]()
outcomes = {}
for name, bad in [("inf", [np.inf]), ("nan", [np.nan]), ("zero", [0.0]),
                  ("negative", [-0.5]), ("overflowing sum", [1e308, 1e308]),
                  ("subnormal 5e-324", [5e-324]), ("subnormal 1e-310", [1e-310])]:
    gaps = np.ones(4)
    gaps[1:1 + len(bad)] = bad
    one = gaps, np.arange(4)
    stack = np.stack((np.ones(4), gaps)), np.tile(np.arange(4), (2, 1))  # row 1 is bad
    for routine, form, (g, j) in [(interval_abs_integral, "tuple", one),
                                  (interval_abs_integral, "stack", stack),
                                  (certified_jacobian, "tuple", one),
                                  (certified_jacobian, "stack", stack)]:
        start = time.perf_counter()
        try:
            routine(g, [0.5, -0.5, 0.5, -0.5, 0.5], j)
            outcome = "returned"
        except Exception as exc:
            outcome = type(exc).__name__
        outcomes[f"{name} {routine.__name__} {form}"] = [outcome, time.perf_counter() - start]
print(json.dumps(outcomes))
"""

    def test_bad_gaps_raise_domain_error_at_once(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(zz.__file__).parents[1]),
                                                           env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", self.CHILD], env=env,
                             capture_output=True, text=True, timeout=30)
        assert run.returncode == 0, run.stderr
        outcomes = json.loads(run.stdout)
        assert len(outcomes) == 28
        assert {case: o for case, (o, _) in outcomes.items() if o != "DomainError"} == {}
        assert max(seconds for _, seconds in outcomes.values()) < 1.0

    @pytest.mark.parametrize("j", [-1, 4])
    @pytest.mark.parametrize("routine, stacked", [(interval_abs_integral, False),
                                                  (interval_abs_integral, True),
                                                  (certified_jacobian, False),
                                                  (certified_jacobian, True)],
                             ids=["abs-tuple", "abs-stack", "jacobian-tuple", "jacobian-stack"])
    def test_interval_index_outside_the_tuple(self, routine, stacked, j):
        gaps, idx = np.ones(4), np.array([0, j])
        if stacked:
            gaps, idx = np.stack((gaps, gaps)), np.stack((idx, idx))
        with pytest.raises(ValueError, match=rf"^interval index {j} outside 0\.\.3$"):
            routine(gaps, self.EXPS, idx)

    @pytest.mark.parametrize("bad, what", [(-0.5, r"gap 2 is -0\.5"), (0.0, r"gap 2 is 0\.0"),
                                           (math.nan, r"gap 2 is nan"),
                                           (1e-310, r"gap 2 is 1e-310"),
                                           (math.inf, r"partial sum s_0 - s_3 is -inf")],
                             ids=["negative", "zero", "nan", "subnormal", "inf"])
    @pytest.mark.parametrize("routine", [interval_abs_integral, certified_jacobian])
    def test_message_names_the_bad_tuple_of_a_stack(self, routine, bad, what):
        # one bad row in a stack of 8: the message names that row and its
        # first bad gap or partial sum, on one line, not the whole stack
        gaps = np.ones((8, 4))
        gaps[5, 2] = bad
        with pytest.raises(DomainError) as info:
            routine(gaps, self.EXPS, np.tile(np.arange(4), (8, 1)))
        assert re.fullmatch(r"interval gaps must be positive normal floats with finite "
                            rf"partial sums: tuple 5, {what}", str(info.value))

    @pytest.mark.parametrize("stacked", [False, True], ids=["tuple", "stack"])
    @pytest.mark.parametrize("routine", [interval_abs_integral, certified_jacobian])
    def test_overflowing_partial_sum_raises_without_a_warning(self, routine, stacked):
        # finite gaps whose partial sums overflow: the DomainError alone,
        # with no overflow warning first (an error under the suite's
        # filterwarnings), in process
        gaps, idx = np.array([1.0, 1e308, 1e308, 1.0]), np.arange(4)
        if stacked:  # row 1 is bad
            gaps, idx = np.stack((np.ones(4), gaps)), np.stack((idx, idx))
        with pytest.raises(DomainError, match=r"^interval gaps must be positive normal floats "
                                              rf"with finite partial sums: tuple {int(stacked)}, "
                                              r"partial sum s_0 - s_3 is -inf$"):
            routine(gaps, self.EXPS, idx)

    def test_no_intervals_give_empty_arrays(self):
        # no interval index, for one tuple and for a stack of one: the
        # routines return empty arrays of the documented shapes
        rows = np.stack((self.EXPS, self.EXPS))
        assert interval_abs_integral(np.ones(4), self.EXPS, []).shape == (0,)
        none = np.zeros((1, 0), int)
        assert interval_abs_integral(np.ones((1, 4)), rows, none).shape == (2, 1, 0)
        total, dlog = certified_jacobian(np.ones(4), self.EXPS, [])
        assert (total.shape, dlog.shape) == ((0,), (4, 0))
        total, dlog = certified_jacobian(np.ones((1, 4)), rows, none)
        assert (total.shape, dlog.shape) == ((2, 1, 0), (2, 4, 1, 0))


class TestStackedTuples:
    def test_stack_equals_per_tuple_calls(self):
        # a coalescing family with gaps 1e-10 .. 1e-2, NE and SW rows
        # stacked: each interval is built from its own tuple's gaps, so the
        # stacked call reproduces every per-tuple call bit for bit
        base = zz.Prevertices(3, (0.6, 1.0))
        members = zz.make_coalescing_family(base, 1, np.geomspace(1e-10, 1e-2, 12))
        gaps = np.array([m.gaps for m in members])
        rows = np.stack((zz.ne_pattern(3).exponents, zz.sw_pattern(3).exponents))
        j = np.tile(np.arange(6), (len(members), 1))
        stacked = interval_abs_integral(gaps, rows, j)
        single = np.stack([interval_abs_integral(m.gaps, rows, np.arange(6)) for m in members],
                          axis=1)
        assert stacked.shape == single.shape == (2, len(members), 6)
        assert np.all(stacked == single)
        # one interval per tuple, one row
        one = interval_abs_integral(gaps, rows[0], np.full(len(members), 5))
        assert np.all(one == [interval_abs_integral(m.gaps, rows[0], 5) for m in members])
        # certified_jacobian: every value and every log-gap derivative is
        # taken on its own tuple, the gap axis before the tuple axis
        total, dlog = certified_jacobian(gaps, rows, j)
        single = [certified_jacobian(m.gaps, rows, np.arange(6)) for m in members]
        assert total.shape == (2, len(members), 6) and dlog.shape == (2, 6, len(members), 6)
        assert np.all(total == np.stack([t for t, _ in single], axis=1))
        assert np.all(dlog == np.stack([d for _, d in single], axis=2))

    def test_intervals_must_have_a_row_per_tuple(self):
        for routine in (interval_abs_integral, certified_jacobian):
            with pytest.raises(ValueError, match="stack of 2 gap tuples"):
                routine(np.ones((2, 2)), [0.5, 0.0, 0.0], [1, 1, 1])

    def test_failure_names_the_member(self, monkeypatch):
        # at 2 against 4 nodes only the tuple with the wide interval (1, 2),
        # at distance 1 from the singular factor at s_0, fails
        monkeypatch.setattr(sys.modules["zigzag.quadrature"], "_BASE_NODES", 2)
        gaps, exps = np.array([[1.0, 1e-6], [1.0, 1e-3], [1.0, 1.0]]), [0.5, 0.0, 0.0]
        failing = []
        for t, row in enumerate(gaps):
            try:
                interval_abs_integral(row, exps, 1)
            except QuadratureFailure:
                failing.append(t)
        assert failing == [2]
        with pytest.raises(QuadratureFailure, match=r"^interval \(1, 2\) of tuple 2, gap 1\.0 "):
            interval_abs_integral(gaps, exps, [1, 1, 1])


class TestRowsPerTuple:
    """A (T, R, M) stack gives tuple t its own rows: each tuple's values
    equal, bit for bit, those of its call alone with rows[t], and those of
    a shared (R, M) stack, however the blocks fall."""

    @staticmethod
    def stack():
        # three tuples with gaps down to 1e-9, a row of each sign pattern per
        # tuple and a third of different exponents
        rng = np.random.default_rng(11)
        gaps = np.exp(rng.uniform(-3.0, 1.0, (3, 6)))
        gaps[1, 2] = 1e-9
        ne, sw = zz.ne_pattern(3, 3).exponents, zz.sw_pattern(3, 3).exponents
        rows = np.stack([(ne, sw), (sw, ne), (0.5 * ne, 0.25 * sw)])
        j = np.stack([[0, 3, 5], [2, 2, 4], [5, 1, 0]])
        return gaps, rows, j

    @pytest.mark.parametrize("block", [None, 64, 2000], ids=["default", "64", "2000"])
    def test_per_tuple_rows_equal_solo_calls(self, monkeypatch, block):
        # _BLOCK 64 makes blocks of one entry, and 2000 blocks of 23 entries
        # at 12 nodes and 11 at 24, which end inside tuples; no block
        # straddles two
        quad = sys.modules["zigzag.quadrature"]
        if block is not None:
            monkeypatch.setattr(quad, "_BLOCK", block)
        gaps, rows, j = self.stack()
        total = interval_abs_integral(gaps, rows, j)
        (rough, rough_dlog), certify = jacobian_point(gaps, rows, j)
        fine, fine_dlog = certify()
        assert total.shape == (2, 3, 3) and rough_dlog.shape == (2, 6, 3, 3)
        for t in range(3):
            assert np.array_equal(total[:, t], interval_abs_integral(gaps[t], rows[t], j[t]))
            assert np.array_equal(total[:, t], interval_abs_integral(gaps, rows[t], j)[:, t])
            (solo, solo_dlog), solo_certify = jacobian_point(gaps[t], rows[t], j[t])
            assert np.array_equal(rough[:, t], solo) and np.array_equal(rough_dlog[:, :, t], solo_dlog)
            solo, solo_dlog = solo_certify()
            assert np.array_equal(fine[:, t], solo) and np.array_equal(fine_dlog[:, :, t], solo_dlog)
        # one row per tuple, as a stacked Newton solve takes them
        one = interval_abs_integral(gaps, rows[:, :1], j)
        assert one.shape == (1, 3, 3)
        for t in range(3):
            assert np.array_equal(one[0, t], interval_abs_integral(gaps[t], rows[t, 0], j[t]))

    def test_pieces_never_straddle_tuples(self):
        # each tuple's entries are cut into pieces of 7 from its first, as a
        # call on that tuple alone cuts them; a block of at most that many
        # entries takes consecutive pieces, one matmul each
        gaps, rows, j = self.stack()
        plan = IntervalPlan(gaps, rows, j)
        assert np.all(np.diff(plan.tup[plan.seg]) >= 0)  # entries gathered by tuple
        blocks = plan._blocks(7)
        pieces = [piece for block in blocks for piece in block]
        for t in range(3):
            alone = IntervalPlan(gaps[t], rows[t], j[t])
            start = np.flatnonzero(plan.tup[plan.seg] == t)[0]
            mine = [(b - start, stop - start) for b, stop, g in pieces if g == t]
            assert mine == [(b, stop) for [(b, stop, _)] in alone._blocks(7)]
            assert all(np.all(plan.tup[plan.seg[b:stop]] == t) for b, stop, g in pieces if g == t)
        assert all(block[-1][1] - block[0][0] <= 7 for block in blocks)
        # tuples of 22, 18 and 20 entries: whole tuples share a block of 40
        assert [[g for _, _, g in block] for block in plan._blocks(40)] == [[0, 1], [2]]

    def test_rows_must_have_a_stack_per_tuple(self):
        gaps, rows, j = self.stack()
        with pytest.raises(ValueError, match=r"exponent rows of shape \(3, R, M\)"):
            interval_abs_integral(gaps, rows[:2], j)


class TestJacobianPoint:
    """IntervalLayout.point, what a Newton iterate takes: one 12-node sum,
    uncompared, and a certificate of the same point on the same plan."""

    def test_certify_reuses_the_plan_and_equals_certified_jacobian(self, kernel_plans):
        # a stacked coalescing family down to a 1e-9 gap, NE and SW rows
        base = zz.Prevertices(3, (0.6, 1.0))
        gaps = np.array([m.gaps for m in zz.make_coalescing_family(base, 1, [1e-9, 1e-4, 0.1])])
        rows = np.stack((zz.ne_pattern(3).exponents, zz.sw_pattern(3).exponents))
        j = np.tile(np.arange(6), (3, 1))
        (total, dlog), certify = jacobian_point(gaps, rows, j)
        fine_total, fine_dlog = certify()
        assert len(kernel_plans) == 1
        ref_total, ref_dlog = certified_jacobian(gaps, rows, j)
        assert np.array_equal(fine_total, ref_total) and np.array_equal(fine_dlog, ref_dlog)
        # the 12-node values are the coarse half of that certificate
        assert np.all(np.abs(total - fine_total) <= 1e-12 * np.abs(fine_total))
        scale = np.max(np.abs(fine_dlog), axis=-2, keepdims=True)
        assert np.all(np.abs(dlog - fine_dlog) <= 1e-12 * scale)

    def test_values_are_uncompared_and_certify_can_fail(self, monkeypatch):
        # at 2 against 4 nodes the interval (1, 2), at distance 1 from the
        # singular factor at s_0, fails its certificate; the values do not
        monkeypatch.setattr(sys.modules["zigzag.quadrature"], "_BASE_NODES", 2)
        (total, dlog), certify = jacobian_point([1.0, 1.0], [0.5, 0.0, 0.0], 1)
        assert np.isfinite(total) and np.isfinite(dlog).all()
        with pytest.raises(QuadratureFailure, match=r"^interval \(1, 2\) of tuple 0, gap 1\.0 "):
            certify()


class TestCertifiedAgainstFineSums:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_kernel_values_match_96_node_sums(self, monkeypatch, k):
        # every kernel routine on the tuple with 1e-9 end gaps, NE and SW rows
        # stacked, against the same routine on the same plan summed at 96
        # nodes (48 against 96): intervals, the interval Jacobian and
        # segments from 1.5i to random points of the upper half-plane, to
        # points 1e-6 above each prevertex and to each prevertex
        quad = sys.modules["zigzag.quadrature"]
        gaps, j, prev = np.diff(THIN), np.arange(len(THIN) - 1), np.array(THIN)
        rows = np.stack((zz.ne_pattern(3, k).exponents, zz.sw_pattern(3, k).exponents))
        rng = np.random.default_rng(k)
        ends = np.concatenate((rng.uniform(-3.0, 3.0, 12) + 1j * rng.uniform(0.0, 2.0, 12),
                               prev + 1e-6j, prev + 0j))
        value = interval_abs_integral(gaps, rows, j)
        total, dlog = certified_jacobian(gaps, rows, j)
        seg = segment_integral(prev, rows, 1.5j, ends)
        plan = IntervalPlan(gaps, rows, j, derivatives=True)
        certified = quad._doubled(plan.integrate_abs, quad._REL_TOL, 0.0, str)
        monkeypatch.setattr(quad, "_BASE_NODES", 48)
        fine_value = interval_abs_integral(gaps, rows, j)
        fine_total, fine_dlog = certified_jacobian(gaps, rows, j)
        fine_seg = segment_integral(prev, rows, 1.5j, ends)
        fine = plan.integrate_abs(96)
        assert np.all(np.abs(value - fine_value) <= 1e-14 * fine_value)
        assert np.all(np.abs(total - fine_total) <= 1e-14 * np.abs(fine_total))
        # every row certified_jacobian certifies; a row masked on an interval
        # is exactly 0 at both counts
        assert np.all(np.abs(certified - fine) <= 1e-14 * np.abs(fine))
        # log-gap derivatives against the largest of their interval: those
        # summed from rows that nearly cancel are small, and their own
        # relative error measures that cancellation
        scale = np.max(np.abs(fine_dlog), axis=-2, keepdims=True)
        assert np.all(np.abs(dlog - fine_dlog) <= 1e-14 * scale)
        assert np.all(np.abs(seg - fine_seg) <= 1e-14 * np.abs(fine_seg))


def scalar_panels(z0, z1, prev, sing0, sing1):
    """Reference loop for the panel grading of one segment.  A segment
    with no prevertex at either end that is no longer than its clearance
    at the midpoint (in offset coordinates from z0) is one panel [0, L]
    from z0.  Any other segment is graded each half from its own end:
    dyadic breaks from a singular end, then recursive halving of free
    panels longer than their midpoint clearance (in offset coordinates
    from that end, (z - s_m) + u * ray), at most 40 levels deep.  Returns
    (end, lo, hi) with offsets from z0 for end 0 and from z1 for end 1."""
    length = abs(z1 - z0)
    unit = (z1 - z0) / length

    def clearance(zc, own=None):
        d = [abs(s - zc) for m, s in enumerate(prev) if m != own]
        return min(d) if d else length

    if sing0 is None and sing1 is None and length <= min(abs((z0 - s) + 0.5 * length * unit)
                                                         for s in prev):
        return [(0, 0.0, length)]

    def graded(own, z):
        if own is None:
            return [0.0, length / 2.0]
        first = min(length / 2.0, clearance(z, own)) / 2.0
        breaks = [0.0, first]
        while breaks[-1] < length / 2.0:
            breaks.append(min(length / 2.0, 2.0 * breaks[-1]))
        return breaks

    panels = []
    for end, (z, own, ray) in enumerate(((z0, sing0, unit), (z1, sing1, -unit))):
        offs = sorted(set(graded(own, z)))

        def refine(lo, hi, depth):
            mid = 0.5 * (lo + hi)
            if depth >= 40 or hi - lo <= min(abs((z - s) + mid * ray) for s in prev):
                panels.append((end, lo, hi))
            else:
                refine(lo, 0.5 * (lo + hi), depth + 1)
                refine(0.5 * (lo + hi), hi, depth + 1)

        for lo, hi in zip(offs[:-1], offs[1:]):
            if own is not None and lo == 0.0:
                panels.append((end, lo, hi))
            else:
                refine(lo, hi, 0)
    return panels


class TestPanelGrading:
    def test_array_grading_matches_scalar_loop(self):
        # one batch of intervals, segments leaving or reaching a prevertex
        # (some grazing the axis), free segments, short free chords off the
        # axis as a mesh has them, and two free segments ending 1e-6 above
        # a prevertex, on tuples with gaps down to 1e-10; the per-end reach
        # of segment_integral and the array grading must give the breaks of
        # the scalar loop exactly
        rng = np.random.default_rng(5)
        prev = [-5.0, -4.1, -4.1 + 1e-10, -2.0, -1.0, 0.0, 1.0, 2.0, 4.1 - 1e-10, 4.1, 5.0]
        cases = []
        for j in range(len(prev) - 1):
            cases.append((complex(prev[j]), complex(prev[j + 1]), j, j + 1))
        for _ in range(60):
            m = int(rng.integers(len(prev)))
            far = complex(rng.uniform(-7, 7), 10.0 ** rng.uniform(-12, 1))
            cases.append((complex(prev[m]), far, m, None))
            cases.append((far, complex(prev[m]), None, m))
            cases.append((far, complex(rng.uniform(-7, 7), rng.uniform(0, 3)), None, None))
            near = complex(rng.uniform(-7, 7), rng.uniform(0.2, 3))
            cases.append((near, near + 0.4 * cmath.exp(2j * math.pi * rng.uniform()), None, None))
        cases.append((1.5j, prev[5] + 1e-6j, None, None))
        cases.append((prev[3] + 1e-6j, -2.5 + 0.5j, None, None))
        z0, z1 = (np.array([c[i] for c in cases]) for i in (0, 1))
        i0, i1 = (np.array([-1 if c[i] is None else c[i] for c in cases]) for i in (2, 3))
        length = np.array([abs(b - a) for a, b, _, _ in cases])
        unit = np.array([(b - a) / abs(b - a) for a, b, _, _ in cases])
        point, own = _ends(z0, z1), _ends(i0, i1)
        re_, im_ = point.real[:, None] - np.array(prev), point.imag
        seg, end, lo, hi = _graded_panels(re_, im_, _ends(unit, -unit),
                                          _segment_reach(re_, im_, unit, length, own), own)
        whole = 0
        for i, case in enumerate(cases):
            got = list(zip(end[seg == i].tolist(), lo[seg == i].tolist(), hi[seg == i].tolist()))
            assert got == scalar_panels(case[0], case[1], prev, case[2], case[3])
            whole += got == [(0, 0.0, length[i])]
        assert whole >= 50  # most short chords fit the one-half rule whole
        for i in (len(cases) - 2, len(cases) - 1):  # 1e-6 above a prevertex: both halves
            assert set(end[seg == i].tolist()) == {0, 1}
        # one path leaves s_{-3} = -4.1 + 1e-10 and passes 2e-22 above s_{-4};
        # with the clearance in absolute coordinates it took 4,194,372 panels
        assert np.bincount(seg).max() < 1000

    def test_interval_plan_matches_scalar_loop(self):
        # the closed-form breaks of IntervalPlan on every interval of the
        # same tuple: its entries of one row, as (end, lo, hi), are the
        # panels of the scalar loop on that interval
        prev = [-5.0, -4.1, -4.1 + 1e-10, -2.0, -1.0, 0.0, 1.0, 2.0, 4.1 - 1e-10, 4.1, 5.0]
        j = np.arange(len(prev) - 1)
        plan = IntervalPlan(np.diff(prev), np.full(len(prev), 0.5), j)
        end, lo, hi = plan.origin % 2, plan.lo, plan.lo + 2.0 * plan.h
        for i in j:
            got = zip(end[plan.seg == i].tolist(), lo[plan.seg == i].tolist(),
                      hi[plan.seg == i].tolist())
            assert sorted(got) == sorted(scalar_panels(complex(prev[i]), complex(prev[i + 1]),
                                                       prev, i, i + 1))


def _gap_offsets(gaps, ends):
    """(len(ends), M) offsets s_a - s_m of each end a from every prevertex
    of its tuple, whose gaps s_{m+1} - s_m are the matching row of the
    (len(ends), M-1) ``gaps``: partial sums of gaps taken outward from a,
    nearest gap first, one masked row per end."""
    i, a = np.arange(gaps.shape[-1]), ends[:, None]
    up = np.cumsum(np.where(i >= a, gaps, 0.0), axis=1)  # s_{i+1} - s_a for i >= a
    down = np.cumsum(np.where(i < a, gaps, 0.0)[:, ::-1], axis=1)[:, ::-1]  # s_a - s_i for i < a
    zero = np.zeros((ends.size, 1))
    return np.hstack((down, zero)) - np.hstack((zero, up))


def graded_plan(gaps, rows, j, derivatives):
    """Reference construction of an interval plan: _SegmentPanels grading
    each interval of a (T, M-1) stack from both ends, each up to half its
    gap, over the offsets _gap_offsets takes from the tuple's gaps, with
    the derivative rows' mask formed apart: a row e - delta_m is dropped
    from every entry of an interval ending at s_m.  Its factor is the real
    h^(1 + e) and its ray the real +-1.  Its ``phase``, (R, S), holds per
    base row and interval exp(i pi sum e_m) over the factors t - s_m
    negative at the midpoint of its entries, the absorbed one (u ray)^e
    included, which must be the same set on every entry of the interval."""
    tup, flat = np.indices(j.shape)[0].ravel(), j.ravel()
    ends, owner = _ends(flat, flat + 1), _ends(tup, tup)
    half = gaps[tup, flat] / 2.0
    plan = IntervalPlan.__new__(IntervalPlan)  # for integrate_abs on the graded entries
    _SegmentPanels.__init__(plan, _gap_offsets(gaps[owner], ends), np.zeros(ends.size),
                            np.ones(flat.size, complex), _ends(half, half), ends, rows)
    plan.ray, jac = plan.ray.real, plan.absorbed >= 0
    power = np.where(jac, 1.0 + rows[np.argmax(plan.mask, axis=1), plan.absorbed], 1.0)
    plan.factor = plan.h ** power
    neg = plan.re[plan.origin] + ((plan.lo + plan.h) * plan.ray[plan.origin])[:, None] < 0.0
    first = np.searchsorted(plan.seg, np.arange(flat.size))  # entries are ordered by seg
    assert np.array_equal(neg, neg[first][plan.seg])
    tail = np.cumsum(np.where(neg[first][:, None, ::-1], rows[:, ::-1], 0.0), axis=-1)[..., -1]
    plan.phase = np.exp(1j * np.pi * tail.T)
    plan.derivatives = derivatives
    if derivatives:
        col = np.arange(rows.shape[1] + 1) - 1 - flat[plan.seg][:, None]  # from 1 + j
        keep = (col != 0) & (col != 1)
        plan.mask = (plan.mask[:, :, None] & keep[:, None, :]).reshape(plan.seg.size, -1)
    return plan


def random_gaps(rng, kind, shape):
    """Seeded random gaps of one of three kinds: log-uniform from e^-30 to
    e^5 (kind 0), exact powers of two (1), or moderate gaps among 1e-10,
    e^-23 and gaps down to the least normal float (2)."""
    if kind == 0:
        return np.exp(rng.uniform(-30.0, 5.0, shape))
    if kind == 1:
        return 2.0 ** rng.integers(-60, 10, shape).astype(float)
    gaps = rng.uniform(0.1, 3.0, shape)
    pick = rng.random(shape) < 0.3
    small = [1e-10, math.exp(-23), 1e-300, 2.0 ** -1000, 3e-308, np.finfo(float).tiny]
    gaps[pick] = rng.choice(small, pick.sum())
    return gaps


class TestClosedFormIntervalPlan:
    FIELDS = ("seg", "origin", "lo", "h", "absorbed", "factor", "mask", "rules", "rule",
              "re", "im", "ray", "rows")

    def test_plan_arrays_equal_the_graded_construction(self):
        # seeded random stacks: T = 1..3 tuples of 1..11 gaps, log-uniform
        # gaps from e^-30 to e^5, exact powers of two, and moderate gaps
        # among 1e-10, e^-23 and gaps down to the least normal float; k =
        # 2..8 exponent rows; any subset of interval indices, repeated or
        # none; one tuple given as a stack or alone; with and without
        # derivative rows.  Every plan array equals the graded one, the
        # directions of scmap the phases of the factors' signs, and so
        # do its 12- and 24-node sums on every tenth plan (overflowing
        # where tiny gaps meet negative exponents, alike on both)
        rng = np.random.default_rng(26)
        for case in range(500):
            k, t, m = (int(v) for v in rng.integers((2, 1, 1), (9, 4, 12)))
            gaps = random_gaps(rng, case % 3, (t, m))
            rows = rng.choice([-(k - 1) / k, -1 / k, 0.0, 1 / k, 0.5, (k - 1) / k],
                              (int(rng.integers(1, 4)), m + 1))
            j = rng.integers(0, m, (t, int(rng.integers(0, 2 * m + 1))))
            derivatives = bool(case % 2) and j.size > 0
            ref = graded_plan(gaps, rows, j, derivatives)
            assert np.array_equal(ref.phase, _directions(rows)[:, j.ravel()]), case
            if t == 1 and case % 4 < 2:  # one tuple alone
                gaps, j = gaps[0], j[0]
            plan = IntervalPlan(gaps, rows, j, derivatives)
            assert plan.s_count == ref.s_count
            for field in self.FIELDS:
                got, want = getattr(plan, field), getattr(ref, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), (case, field)
            if case % 10 == 0 and j.size:
                with np.errstate(over="ignore", invalid="ignore"):  # 1e-300 gaps overflow
                    for n in (_BASE_NODES, 2 * _BASE_NODES):
                        assert np.array_equal(plan.integrate_abs(n), ref.integrate_abs(n),
                                              equal_nan=True)


class TestStructuralPhase:
    """On (s_j, s_{j+1}) every factor t - s_m is negative exactly for m > j,
    at every node of every entry, free or Gauss-Jacobi, so one direction
    per interval and row (scmap._directions) carries the integrand's
    argument and every interval sum is real."""

    def test_factor_signs_are_fixed_by_the_interval(self):
        # seeded random stacks as in TestClosedFormIntervalPlan: T = 1..3
        # tuples of 1..11 gaps, log-uniform from e^-30 to e^5, exact powers
        # of two, and moderate gaps among gaps down to the least normal
        # float; k = 2..8 exponent rows, shared or one stack per tuple.  The
        # absorbed factor (u ray)^e of a Jacobi entry is in its rule, and its
        # sign is that of its ray
        rng = np.random.default_rng(31)
        for case in range(300):
            k, t, m = (int(v) for v in rng.integers((2, 1, 1), (9, 4, 12)))
            gaps = random_gaps(rng, case % 3, (t, m))
            shape = (int(rng.integers(1, 4)), m + 1)  # shared rows, or rows per tuple
            rows = rng.choice([-(k - 1) / k, -1 / k, 0.0, 1 / k, 0.5, (k - 1) / k],
                              shape if case % 2 else (t,) + shape)
            j = rng.integers(0, m, (t, int(rng.integers(1, 2 * m + 1))))
            plan = IntervalPlan(gaps, rows, j, derivatives=bool(case % 4 < 2))
            above = np.arange(m + 1) > plan.j[plan.seg][:, None]  # (K, M): m > j
            for n in (_BASE_NODES, 2 * _BASE_NODES):
                nodes = np.array([_rule(n, beta)[0] for beta in plan.rules.tolist()])
                u = plan.lo[:, None] + plan.h[:, None] * (nodes[plan.rule] + 1.0)
                d = plan.re[plan.origin, None, :] + (u * plan.ray[plan.origin, None])[..., None]
                signs = np.where(above, -1.0, 1.0)[:, None, :].repeat(n, axis=1)
                assert np.array_equal(np.sign(d), signs), case
                with np.errstate(over="ignore", invalid="ignore"):  # 1e-300 gaps overflow
                    assert plan.integrate_abs(n).dtype == np.float64

    @pytest.mark.parametrize("form", ["tuple", "shared", "per tuple"])
    def test_newton_points_are_real(self, form):
        # IntervalLayout.point and its certificate return float64 arrays
        rng = np.random.default_rng(31)
        for _ in range(3):
            shape, exps, j = TestIntervalLayout.problem(form, rng)
            gaps = np.exp(rng.uniform(-12.0, 2.0, shape))
            (total, dlog), certify = IntervalLayout(shape, exps, j, derivatives=True).point(gaps)
            assert total.dtype == dlog.dtype == np.float64
            assert all(value.dtype == np.float64 for value in certify())


class TestUnsignedSums:
    """A base-row sum of an interval plan adds positive Gauss weights times
    positive factors h^(1+e) times an exp, so it never carries a sign: the
    lengths interval_abs_integral returns are the certified sums
    themselves, and scmap divides by them with no sign or modulus."""

    def test_base_rows_never_carry_a_sign(self):
        # seeded random stacks as in TestClosedFormIntervalPlan: T = 1..3
        # tuples of 1..11 gaps, log-uniform, exact powers of two, and
        # moderate gaps among gaps down to the least normal float; k = 2..8
        # exponent rows, shared or one stack per tuple; with and without
        # derivative rows.  A sum that overflows reads +inf, and fails its
        # certificate in both routines alike.  Where a Jacobi factor h^(1+e)
        # of a panel a few subnormals long underflows to 0 and its integrand
        # overflows, the entry reads 0 * inf, a NaN whose sign bit x86 sets;
        # a NaN fails the certificate, so no routine returns it
        quad = sys.modules["zigzag.quadrature"]
        rng = np.random.default_rng(32)
        certified = 0
        for case in range(240):
            k, t, m = (int(v) for v in rng.integers((2, 1, 1), (9, 4, 12)))
            gaps = random_gaps(rng, case % 3, (t, m))
            shape = (int(rng.integers(1, 4)), m + 1)  # shared rows, or rows per tuple
            rows = rng.choice([-(k - 1) / k, -1 / k, 0.0, 1 / k, 0.5, (k - 1) / k],
                              shape if case % 2 else (t,) + shape)
            j = rng.integers(0, m, (t, int(rng.integers(1, 2 * m + 1))))
            derivatives = case % 4 < 2
            plan = IntervalPlan(gaps, rows, j, derivatives)
            with np.errstate(over="ignore", invalid="ignore"):  # 1e-300 gaps overflow
                for n in (_BASE_NODES, 2 * _BASE_NODES):
                    base = plan.integrate_abs(n)[::m + 2 if derivatives else 1]
                    assert base.shape == (shape[0], j.size), case
                    assert not (np.signbit(base) & ~np.isnan(base)).any(), case
                if derivatives:
                    continue
                try:
                    sums = quad._doubled(plan.integrate_abs, quad._REL_TOL, 0.0, plan.name)
                except QuadratureFailure:
                    with pytest.raises(QuadratureFailure):
                        interval_abs_integral(gaps, rows, j)
                    continue
                value = interval_abs_integral(gaps, rows, j)
            assert np.array_equal(value, sums.reshape(value.shape)), case
            certified += 1
        assert certified >= 100


class TestIntervalLayout:
    """A Newton solve builds one IntervalLayout and fills it at each point:
    every fill equals a fresh IntervalPlan of the same gaps, bit for bit,
    whether its panel counts are new to the layout or met before."""

    FIELDS = ("re", "lo", "h", "factor", "origin", "seg", "absorbed", "mask", "rules", "rule",
              "gaps", "tup", "j", "rows", "group", "im", "ray")

    @staticmethod
    def problem(form, rng):
        """(shape, exps, j) of a random stack of 1-3 tuples of 4-9 gaps, on
        one tuple alone, a stack with shared rows or rows per tuple."""
        t = 1 if form == "tuple" else int(rng.integers(2, 4))
        m, k = int(rng.integers(4, 10)), int(rng.integers(2, 6))
        ne = np.where(np.arange(m + 1) % 2 == 0, (k - 1) / k, -(k - 1) / k)
        j = rng.integers(0, m, (t, int(rng.integers(1, 2 * m))))
        if form == "per tuple":
            exps = np.stack([rng.permutation(np.stack((ne, -ne, 0.5 * ne)))[:2] for _ in range(t)])
        else:
            exps = np.stack((ne, -ne))
        return ((m,), exps, j[0]) if form == "tuple" else ((t, m), exps, j)

    @pytest.mark.parametrize("block", [None, 64], ids=["default", "64"])
    @pytest.mark.parametrize("derivatives", [False, True], ids=["values", "derivatives"])
    @pytest.mark.parametrize("form", ["tuple", "shared", "per tuple"])
    def test_fills_equal_fresh_plans(self, monkeypatch, form, derivatives, block):
        # four random gap stacks, log-uniform from e^-12 to e^2, filled in
        # turn twice, the second time moved by 1e-6 relative: the panel
        # counts change between fills, and a count met before reuses the
        # layout's entries and blocks; at _BLOCK 64 every block is one entry
        if block is not None:
            monkeypatch.setattr(sys.modules["zigzag.quadrature"], "_BLOCK", block)
        rng = np.random.default_rng(29)
        for _ in range(3):
            shape, exps, j = self.problem(form, rng)
            layout = IntervalLayout(shape, exps, j, derivatives)
            stacks = [np.exp(rng.uniform(-12.0, 2.0, shape)) for _ in range(4)]
            fills = 0
            for turn in range(2):
                for base in stacks:
                    gaps = base * (1.0 + 1e-6 * turn * rng.random(shape))
                    plan, fresh = layout.fill(gaps), IntervalPlan(gaps, exps, j, derivatives)
                    fills += 1
                    for field in self.FIELDS:
                        got, want = getattr(plan, field), getattr(fresh, field)
                        assert got.dtype == want.dtype and np.array_equal(got, want), field
                    assert plan.s_count == fresh.s_count and plan.derivatives == derivatives
                    for n in (_BASE_NODES, 2 * _BASE_NODES):
                        assert np.array_equal(plan.integrate_abs(n), fresh.integrate_abs(n))
                    if derivatives:
                        (total, dlog), certify = layout.point(gaps)
                        (ref_total, ref_dlog), ref_certify = jacobian_point(gaps, exps, j)
                        assert np.array_equal(total, ref_total) and np.array_equal(dlog, ref_dlog)
                        assert all(np.array_equal(a, b) for a, b in zip(certify(), ref_certify()))
            assert 1 < len(layout._by_count) < fills

    BAD = [(-0.5, r"gap 2 is -0\.5"), (0.0, r"gap 2 is 0\.0"), (math.nan, r"gap 2 is nan"),
           (1e-310, r"gap 2 is 1e-310"), (5e-324, r"gap 2 is 5e-324"),
           (math.inf, r"partial sum s_0 - s_3 is -inf"),
           ([1.0, 1e308, 1e308, 1.0], r"partial sum s_0 - s_3 is -inf")]

    @pytest.mark.parametrize("derivatives", [False, True], ids=["values", "derivatives"])
    def test_fill_refuses_what_a_fresh_plan_refuses(self, derivatives):
        # one bad row in a stack of 8: the fill raises the DomainError of a
        # fresh plan, with no warning, and the layout fills on after it
        exps, j = TestKernelInput.EXPS, np.tile(np.arange(4), (8, 1))
        layout, good = IntervalLayout((8, 4), exps, j, derivatives), np.ones((8, 4))
        layout.fill(good)
        for bad, what in self.BAD:
            gaps = good.copy()
            if np.ndim(bad):
                gaps[5] = bad
            else:
                gaps[5, 2] = bad
            with pytest.raises(DomainError) as fill:
                layout.fill(gaps)
            with pytest.raises(DomainError) as fresh:
                IntervalPlan(gaps, exps, j, derivatives)
            assert str(fill.value) == str(fresh.value)
            assert re.fullmatch(r"interval gaps must be positive normal floats with finite "
                                rf"partial sums: tuple 5, {what}", str(fill.value))
        assert np.array_equal(layout.fill(good).integrate_abs(_BASE_NODES),
                              IntervalPlan(good, exps, j, derivatives).integrate_abs(_BASE_NODES))
        # a layout takes the gaps of its own shape alone, and refuses the
        # intervals a fresh plan refuses, with its message
        with pytest.raises(ValueError, match=r"^the layout takes gaps of shape \(8, 4\), got "):
            layout.fill(np.ones((7, 4)))
        for idx, outside in (([0, 4], 4), ([-1, 0], -1)):
            with pytest.raises(ValueError) as built:
                IntervalLayout((4,), exps, idx, derivatives)
            with pytest.raises(ValueError) as fresh:
                IntervalPlan(np.ones(4), exps, idx, derivatives)
            assert str(built.value) == str(fresh.value)
            assert str(built.value) == f"interval index {outside} outside 0..3"


class TestWholePanels:
    @pytest.mark.parametrize("solve", ["genus 2, k = 3", "genus 5, k = 2"])
    def test_whole_panels_at_the_edge_of_the_rule_against_mpmath(self, monkeypatch, solve,
                                                                 karcher_k3, ladder5):
        # the 8 mesh segments (resolution 24) that are one whole panel and
        # nearest the one-half rule's edge, length/clearance -> 1, both
        # rows against mpmath along each segment
        record = karcher_k3[2] if solve == "genus 2, k = 3" else ladder5[5]
        wd = zz.build_weierstrass(record)
        quad = sys.modules["zigzag.quadrature"]
        calls, segment = [], quad.segment_integral

        def spy(prev, exps, z0, z1):
            calls.append((np.asarray(prev), exps, *np.broadcast_arrays(z0, z1)))
            return segment(prev, exps, z0, z1)

        monkeypatch.setattr(quad, "segment_integral", spy)
        zz.generate_mesh(wd, 1.5 * max(wd.prevertices.values), 24)
        monkeypatch.setattr(quad, "segment_integral", segment)
        [(prev, rows, z0, z1)] = calls
        clearance = np.abs((z0 + z1)[:, None] / 2 - prev).min(axis=1)
        free = np.abs(np.stack((z0, z1))[..., None] - prev).min(axis=(0, 2)) > 1e-15
        ratio = np.where(free, np.abs(z1 - z0) / clearance, np.inf)
        pick = np.argsort(np.where(ratio <= 1.0, -ratio, np.inf))[:8]
        assert ratio[pick].max() > 0.8
        built, init = [], quad._SegmentPanels.__init__

        def counting_init(self, *args):
            init(self, *args)
            built.append(self.seg.size)

        monkeypatch.setattr(quad._SegmentPanels, "__init__", counting_init)
        value = segment_integral(prev, rows, z0[pick], z1[pick])
        assert built == [8]  # one panel, one entry, per segment
        for i, (a, b) in enumerate(zip(z0[pick], z1[pick])):
            for r, exps in enumerate(rows):
                ref = mp_segment(prev, exps, a, b)
                assert abs(value[r, i] - ref) <= 1e-13 * abs(ref)


class TestSegmentIntegral:
    def test_matches_interval_on_axis(self):
        prev = np.array([-1.0, 0.0, 1.0])
        exps = zz.ne_pattern(1).exponents
        mod = interval_abs_integral(np.diff(prev), exps, 1)
        seg = segment_integral(prev, exps, 0.0, 1.0)
        assert math.isclose(abs(seg), mod, rel_tol=1e-10)
        # phase on (0, 1) is i for the NE genus-1 pattern
        assert abs(seg / abs(seg) - 1j) < 1e-10

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_interval_front_end_matches_segments(self, k):
        # whole intervals of a tuple with a 1e-9 gap, NE and SW rows: the
        # lengths times the directions of scmap are the contour integrals
        prev, j = np.array(THIN), np.arange(len(THIN) - 1)
        rows = np.stack((zz.ne_pattern(3, k).exponents, zz.sw_pattern(3, k).exponents))
        value = interval_abs_integral(np.diff(prev), rows, j)
        seg = segment_integral(prev, rows, prev[j], prev[j + 1])
        assert np.all(np.abs(value * _directions(rows)[:, j] - seg) <= 1e-13 * np.abs(seg))
        # the lengths are the certified real sums of the plan themselves
        quad = sys.modules["zigzag.quadrature"]
        plan = IntervalPlan(np.diff(prev), rows, j)
        sums = quad._doubled(plan.integrate_abs, quad._REL_TOL, 0.0, plan.name)
        assert sums.dtype == np.float64
        assert np.array_equal(value, sums)

    def test_path_independence(self):
        prev = np.array([-1.0, 0.0, 1.0])
        exps = zz.sw_pattern(1).exponents
        target = 0.4 + 0.9j
        direct = segment_integral(prev, exps, 2j, target)
        via = (segment_integral(prev, exps, 2j, 1.5 + 1.5j)
               + segment_integral(prev, exps, 1.5 + 1.5j, target))
        assert abs(direct - via) < 1e-10

    def test_batch_matches_scalar_calls(self):
        # segments with and without Jacobi ends, one of zero length, and a
        # stack of three exponent rows, the last with exponent 0 at the
        # Jacobi ends s_2 and s_3, where its end rule is the Legendre one
        prev = np.array([-2.3, -1.0, 0.0, 1.0, 2.3])
        flat = np.array(zz.ne_pattern(2).exponents, float)
        flat[[2, 3]] = 0.0
        rows = np.stack((zz.ne_pattern(2).exponents, zz.sw_pattern(2).exponents, flat))
        z0 = np.array([0.0, 0.5j, 1.0, 0.3 + 0.2j, 1.0])
        z1 = np.array([1.0, 2 + 1j, 1.000000001, 0.3 + 0.2j, -1 + 1e-3j])
        batch = segment_integral(prev, rows, z0, z1)
        assert batch.shape == (3, 5)
        for r, exps in enumerate(rows):
            for i in range(5):
                one = segment_integral(prev, exps, z0[i], z1[i])
                assert np.ndim(one) == 0
                assert abs(batch[r, i] - one) <= 1e-14 * abs(one)
        assert np.all(batch[:, 3] == 0.0)

    def test_end_within_ulps_of_a_prevertex_gets_its_jacobi_panel(self):
        # an end 2 ulps past s_1 = 1 is taken to sit on s_1, as the exact end is
        prev = np.array([-2.3, -1.0, 0.0, 1.0, 2.3])
        exps = zz.ne_pattern(2).exponents
        exact = segment_integral(prev, exps, 0.5j, 1.0)
        assert abs(segment_integral(prev, exps, 0.5j, 1 + 4.4e-16) - exact) <= 1e-14 * abs(exact)

    def test_failure_names_the_segment(self, monkeypatch):
        # the straight path from s_0 passes 1e-300 above s_1 and s_2,
        # closer than the panel halvings resolve; its batch mates are fine.
        # One comparison, _BASE_NODES against twice as many, rejects it:
        # no more nodes are tried
        quad = sys.modules["zigzag.quadrature"]
        sums, nodes = quad._SegmentPanels.sums, []

        def spy(self, n):
            nodes.append(n)
            return sums(self, n)

        monkeypatch.setattr(quad._SegmentPanels, "sums", spy)
        prev = np.array([-2.3, -1.0, 0.0, 1.0, 2.3])
        exps = zz.ne_pattern(2).exponents
        with pytest.raises(QuadratureFailure,
                           match=rf"\(5\+1e-300j\)\] .* with {2 * _BASE_NODES} nodes$"):
            segment_integral(prev, exps, np.array([0.5j, 0.0, 0.5j]),
                             np.array([1 + 1j, 5 + 1e-300j, 2 + 1j]))
        assert nodes == [_BASE_NODES, 2 * _BASE_NODES]

    @pytest.mark.parametrize("end", [complex(math.nan, 1.0), complex(math.inf, 0.0),
                                     complex(0.5, math.inf)])
    def test_rejects_non_finite_endpoint(self, end):
        prev = np.array([-1.0, 0.0, 1.0])
        exps = zz.sw_pattern(1).exponents
        with pytest.raises(DomainError):
            segment_integral(prev, exps, 0.5j, end)
        with pytest.raises(DomainError):
            segment_integral(prev, exps, end, 0.5j)

    # A segment a few subnormals long from a prevertex: at 1e-323 the first
    # break rounds to 0 and would double forever, so the calls run in a
    # child process with a timeout, where such a regression fails instead
    # of hanging the suite.  At 1e-300 and 1e-310 the first break is
    # positive and the segment integrates as before.
    SHORT = """
import json
import numpy as np
from zigzag.errors import DomainError
from zigzag.quadrature import segment_integral
out = {}
for z1 in (1e-300j, 1e-310j, 1e-323j):
    try:
        value = segment_integral([-1.0, 0.0, 1.0], [0.5, -0.5, 0.5], 0.0, z1)
        out[repr(z1)] = [value.real, value.imag]
    except DomainError as exc:
        out[repr(z1)] = str(exc)
print(json.dumps(out))
"""

    def test_subnormal_segment_from_a_prevertex_raises_at_once(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(zz.__file__).parents[1]),
                                                           env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", self.SHORT], env=env,
                             capture_output=True, text=True, timeout=30)
        assert run.returncode == 0, run.stderr
        out = json.loads(run.stdout)
        assert out["1e-300j"] == [-1.931851652578136e-150, 5.176380902050414e-151]
        assert out["1e-310j"] == [-1.9318516525784284e-155, 5.176380902051609e-156]
        assert out["1e-323j"] == ("segment 0 is too short to grade from the prevertex at its "
                                  "end: its first panel rounds to 0")


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

    def test_arc_between_two_prevertices(self):
        # the upper unit half-circle from s_1 to s_(-1) around s_0 ends on a
        # singular factor at both ends; against mpmath's tanh-sinh along it
        prev = np.array([-2.3, -1.0, 0.0, 1.0, 2.3])
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            exps = pat.exponents

            def f(th):
                z = mp.expj(th)
                value = 1j * z  # dz/dtheta
                for s, e in zip(prev.tolist(), exps.tolist()):
                    value *= mp.power(z - s, e)
                return value

            with mp.workdps(30):
                ref = complex(mp.quad(f, [0, mp.pi / 2, mp.pi]))
            arc = arc_integral(prev, exps, 2, 1.0, 0.0, math.pi)
            assert abs(arc - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("center, r", [(2, 0.9), (3, 1.0)])
    def test_arc_ending_near_another_prevertex(self, center, r):
        # each arc ends about 0.14 from a neighbouring prevertex (1 for the
        # arc around 0; 0, which lies on its circle, for the arc around 1),
        # so its sub-arcs are no longer than that; no prevertex lies between
        # arc and chord
        prev = np.array([-2.3, -1.0, 0.0, 1.0, 2.3])
        th0, th1 = 0.1, 3.0
        for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
            arc = arc_integral(prev, pat.exponents, center, r, th0, th1)
            chord = segment_integral(prev, pat.exponents, prev[center] + r * cmath.exp(1j * th0),
                                     prev[center] + r * cmath.exp(1j * th1))
            assert abs(arc - chord) < 1e-13
