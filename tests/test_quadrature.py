import cmath
import math
import sys

import mpmath as mp
import numpy as np
import pytest

import zigzag as zz
from zigzag.errors import DomainError, QuadratureFailure
from zigzag.quadrature import (_BASE_NODES, IntervalPlan, _ends, _graded_panels, _rule,
                                _SegmentPanels, arc_integral, interval_abs_integral,
                                interval_jacobian, segment_integral)

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
        with pytest.raises(QuadratureFailure, match=r"^interval \(0, 1\) "):
            routine(np.diff(THIN), rows, np.arange(len(THIN) - 1))


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

    def test_intervals_must_have_a_row_per_tuple(self):
        with pytest.raises(ValueError, match="stack of 2 gap tuples"):
            interval_abs_integral(np.ones((2, 2)), [0.5, 0.0, 0.0], [1, 1, 1])

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
    """Reference loop for the panel grading of one segment, each half from
    its own end: dyadic breaks from a singular end, then recursive halving
    of free panels longer than their midpoint clearance (in offset
    coordinates from that end, (z - s_m) + u * ray), at most 40 levels
    deep.  Returns (end, lo, hi) with offsets from z0 for end 0 and from z1
    for end 1."""
    length = abs(z1 - z0)
    unit = (z1 - z0) / length

    def clearance(zc, own=None):
        d = [abs(s - zc) for m, s in enumerate(prev) if m != own]
        return min(d) if d else length

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
        # (some grazing the axis) and free segments, on tuples with gaps
        # down to 1e-10; the breaks must be identical
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
        z0, z1 = (np.array([c[i] for c in cases]) for i in (0, 1))
        i0, i1 = (np.array([-1 if c[i] is None else c[i] for c in cases]) for i in (2, 3))
        length = np.array([abs(b - a) for a, b, _, _ in cases])
        unit = np.array([(b - a) / abs(b - a) for a, b, _, _ in cases])
        point = _ends(z0, z1)
        seg, end, lo, hi = _graded_panels(point.real[:, None] - np.array(prev), point.imag,
                                          _ends(unit, -unit), length, _ends(i0, i1))
        for i, case in enumerate(cases):
            got = list(zip(end[seg == i].tolist(), lo[seg == i].tolist(), hi[seg == i].tolist()))
            assert got == scalar_panels(case[0], case[1], prev, case[2], case[3])
        # one path leaves s_{-3} = -4.1 + 1e-10 and passes 2e-22 above s_{-4};
        # with the clearance in absolute coordinates it took 4,194,372 panels
        assert np.bincount(seg).max() < 1000


class TestSegmentIntegral:
    def test_matches_interval_on_axis(self):
        prev = np.array([-1.0, 0.0, 1.0])
        exps = zz.ne_pattern(1).exponents
        mod = interval_abs_integral(np.diff(prev), exps, 1)
        seg = segment_integral(prev, exps, 0.0, 1.0)
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
