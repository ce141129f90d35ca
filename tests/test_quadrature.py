import cmath
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
from zigzag.quadrature import (_BASE_NODES, IntervalPlan, _ends, _graded_panels, _rule,
                                _segment_reach, _SegmentPanels, arc_integral,
                                interval_abs_integral, interval_integral, interval_jacobian,
                                segment_integral)

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
        prev = zz.Prevertices((-1.0, 0.0, 1.0))
        val = zz.side_length(prev, zz.ne_pattern(1), 0)
        assert math.isclose(val, L_STAR, rel_tol=1e-13)

    def test_scaling_law(self):
        # doubling all prevertex gaps scales the genus-1 NE side by 2^(3/2)
        exps = zz.ne_pattern(1).exponents
        v1 = interval_abs_integral([1.0, 1.0], exps, 1)
        v2 = interval_abs_integral([2.0, 2.0], exps, 1)
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


class TestRealIntervalPath:
    @pytest.mark.parametrize("n", [_BASE_NODES, 2 * _BASE_NODES, 4 * _BASE_NODES])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_real_sums_match_complex_path(self, k, n):
        # every interval of a tuple with a 1e-9 gap, NE and SW rows stacked
        # (exponents of both signs); the complex path of _SegmentPanels on
        # the same plan is the reference
        gaps, j = np.diff(THIN), np.arange(len(THIN) - 1)
        base = np.stack((zz.ne_pattern(3, k).exponents, zz.sw_pattern(3, k).exponents))
        assert (base > 0).any() and (base < 0).any()
        plan = IntervalPlan(gaps, base, j)
        real, ref = plan.integrate_abs(n), _SegmentPanels.sums(plan, n)
        assert np.all(np.abs(real - ref) <= 1e-13 * np.abs(ref))
        # the derivative row e - delta_m against a plan of that row on the
        # intervals without an end at s_m: identical panels and end rules
        m_count = base.shape[1]
        value = IntervalPlan(gaps, base, j, derivatives=True).integrate_abs(n)
        value = value.reshape(2, m_count + 1, j.size)
        assert np.all(np.abs(value[:, 0] - ref) <= 1e-13 * np.abs(ref))
        for m in range(m_count):
            off = j[(j != m) & (j + 1 != m)]
            row = IntervalPlan(gaps, base - np.eye(m_count)[m], off)
            ref = _SegmentPanels.sums(row, n)
            assert np.all(np.abs(value[:, 1 + m, off] - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("routine", [interval_abs_integral, interval_jacobian])
    def test_certificate_can_fail(self, monkeypatch, routine):
        # with 4 base nodes the 1e-9 gap (s_0, s_1) next to its far
        # neighbours fails the 4-against-8-node comparison
        monkeypatch.setattr(sys.modules["zigzag.quadrature"], "_BASE_NODES", 4)
        rows = np.stack((zz.ne_pattern(3, 2).exponents, zz.sw_pattern(3, 2).exponents))
        with pytest.raises(QuadratureFailure, match=r"^interval \(0, 1\) of tuple 0, gap "):
            routine(np.diff(THIN), rows, np.arange(len(THIN) - 1))


class TestKernelInput:
    """IntervalPlan refuses what neither interval routine can integrate:
    gaps that are not positive or whose partial sums are not finite
    (DomainError), and interval indices outside the tuple (ValueError).
    interval_abs_integral and interval_jacobian are each checked on one
    tuple and on a stack, and an overflowing partial sum through
    interval_integral too, in process."""

    EXPS = [0.5, -0.5, 0.5, -0.5, 0.5]

    # Without the check an infinite, zero or negative gap grades panels
    # until memory runs out, so the bad gaps run in a child process capped
    # at 1 GiB of address space, where such a regression fails fast.
    CHILD = """
import json, resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from zigzag.quadrature import interval_abs_integral, interval_jacobian
outcomes = {}
for name, bad in [("inf", [np.inf]), ("nan", [np.nan]), ("zero", [0.0]),
                  ("negative", [-0.5]), ("overflowing sum", [1e308, 1e308])]:
    gaps = np.ones(4)
    gaps[1:1 + len(bad)] = bad
    one = gaps, np.arange(4)
    stack = np.stack((np.ones(4), gaps)), np.tile(np.arange(4), (2, 1))  # row 1 is bad
    for routine, form, (g, j) in [(interval_abs_integral, "tuple", one),
                                  (interval_abs_integral, "stack", stack),
                                  (interval_jacobian, "tuple", one),
                                  (interval_jacobian, "stack", stack)]:
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
        assert len(outcomes) == 20
        assert {case: o for case, (o, _) in outcomes.items() if o != "DomainError"} == {}
        assert max(seconds for _, seconds in outcomes.values()) < 1.0

    @pytest.mark.parametrize("j", [-1, 4])
    @pytest.mark.parametrize("routine, stacked", [(interval_abs_integral, False),
                                                  (interval_abs_integral, True),
                                                  (interval_jacobian, False),
                                                  (interval_jacobian, True)],
                             ids=["abs-tuple", "abs-stack", "jacobian-tuple", "jacobian-stack"])
    def test_interval_index_outside_the_tuple(self, routine, stacked, j):
        gaps, idx = np.ones(4), np.array([0, j])
        if stacked:
            gaps, idx = np.stack((gaps, gaps)), np.stack((idx, idx))
        with pytest.raises(ValueError, match=rf"^interval index {j} outside 0\.\.3$"):
            routine(gaps, self.EXPS, idx)

    @pytest.mark.parametrize("bad, what", [(-0.5, r"gap 2 is -0\.5"), (0.0, r"gap 2 is 0\.0"),
                                           (math.nan, r"gap 2 is nan"),
                                           (math.inf, r"partial sum s_0 - s_3 is -inf")],
                             ids=["negative", "zero", "nan", "inf"])
    @pytest.mark.parametrize("routine", [interval_abs_integral, interval_jacobian])
    def test_message_names_the_bad_tuple_of_a_stack(self, routine, bad, what):
        # one bad row in a stack of 8: the message names that row and its
        # first bad gap or partial sum, on one line, not the whole stack
        gaps = np.ones((8, 4))
        gaps[5, 2] = bad
        with pytest.raises(DomainError) as info:
            routine(gaps, self.EXPS, np.tile(np.arange(4), (8, 1)))
        assert re.fullmatch(r"interval gaps must be positive with finite partial sums: "
                            rf"tuple 5, {what}", str(info.value))

    @pytest.mark.parametrize("stacked", [False, True], ids=["tuple", "stack"])
    @pytest.mark.parametrize("routine", [interval_abs_integral, interval_jacobian,
                                         interval_integral])
    def test_overflowing_partial_sum_raises_without_a_warning(self, routine, stacked):
        # finite gaps whose partial sums overflow: the DomainError alone,
        # with no overflow warning first (an error under the suite's
        # filterwarnings), in process
        gaps, idx = np.array([1.0, 1e308, 1e308, 1.0]), np.arange(4)
        if stacked:  # row 1 is bad
            gaps, idx = np.stack((np.ones(4), gaps)), np.stack((idx, idx))
        with pytest.raises(DomainError, match=rf"^interval gaps must be positive with finite "
                                              rf"partial sums: tuple {int(stacked)}, "
                                              r"partial sum s_0 - s_3 is -inf$"):
            routine(gaps, self.EXPS, idx)


class TestStackedTuples:
    def test_stack_equals_per_tuple_calls(self):
        # a coalescing family with gaps 1e-10 .. 1e-2, NE and SW rows
        # stacked: each interval is built from its own tuple's gaps, so the
        # stacked call reproduces every per-tuple call bit for bit
        base = zz.Prevertices((-2.6, -1.6, -1.0, 0.0, 1.0, 1.6, 2.6))
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
        # interval_jacobian: every value and every log-gap derivative is
        # taken on its own tuple, the gap axis before the tuple axis
        total, dlog = interval_jacobian(gaps, rows, j)
        single = [interval_jacobian(m.gaps, rows, np.arange(6)) for m in members]
        assert total.shape == (2, len(members), 6) and dlog.shape == (2, 6, len(members), 6)
        assert np.all(total == np.stack([t for t, _ in single], axis=1))
        assert np.all(dlog == np.stack([d for _, d in single], axis=2))

    def test_intervals_must_have_a_row_per_tuple(self):
        for routine in (interval_abs_integral, interval_jacobian):
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
        total, dlog = interval_jacobian(gaps, rows, j)
        seg = segment_integral(prev, rows, 1.5j, ends)
        plan = IntervalPlan(gaps, rows, j, derivatives=True)
        certified = quad._doubled(plan.integrate_abs, quad._REL_TOL, 0.0, str)
        monkeypatch.setattr(quad, "_BASE_NODES", 48)
        fine_value = interval_abs_integral(gaps, rows, j)
        fine_total, fine_dlog = interval_jacobian(gaps, rows, j)
        fine_seg = segment_integral(prev, rows, 1.5j, ends)
        fine = plan.integrate_abs(96)
        assert np.all(np.abs(value - fine_value) <= 1e-14 * fine_value)
        assert np.all(np.abs(total - fine_total) <= 1e-14 * np.abs(fine_total))
        # every row interval_jacobian certifies; a row masked on an interval
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
        # whole intervals of a tuple with a 1e-9 gap, NE and SW rows, phase
        # included; the moduli are interval_abs_integral's, bit for bit
        prev, j = np.array(THIN), np.arange(len(THIN) - 1)
        rows = np.stack((zz.ne_pattern(3, k).exponents, zz.sw_pattern(3, k).exponents))
        value = interval_integral(np.diff(prev), rows, j)
        seg = segment_integral(prev, rows, prev[j], prev[j + 1])
        assert np.all(np.abs(value - seg) <= 1e-13 * np.abs(seg))
        assert np.all(np.abs(value) == interval_abs_integral(np.diff(prev), rows, j))

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
