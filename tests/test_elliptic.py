import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zigzag as zz
from zigzag.errors import DegenerateCrossRatio, DomainError


def oracle_periods(lam):
    """Direct tanh-sinh quadrature of the two period integrals.

    For |lambda| far from 1 one integrand has a 1/|u| layer between |lambda|
    and 1; the path is split at the decades of that layer.
    """
    mp.mp.dps = 25
    lam = mp.mpf(lam)
    cuts = [mp.mpf(10) ** i for i in range(1, int(round(abs(mp.log10(-lam)))))]
    j_path, i_path = [lam, 0], [0, 1]
    if -lam < 1:
        i_path = [0] + sorted(1 / c for c in cuts) + [1]
    else:
        j_path = [lam] + sorted(-c for c in cuts) + [0]
    j = mp.quad(lambda u: 1 / mp.sqrt(u * (u - 1) * (u - lam)), j_path)
    i = mp.quad(lambda u: 1 / mp.sqrt(u * (1 - u) * (u - lam)), i_path)
    return 2 * float(j), 2 * float(i)


class TestCrossRatio:
    def test_normalization_fixed_points(self):
        assert zz.cross_ratio_lambda(math.inf, -1.0, 0.0, 1.0) == -1.0

    def test_moebius_formula(self):
        assert math.isclose(zz.cross_ratio_lambda(0, 1, 2, 3), -3.0, rel_tol=1e-15)

    def test_degeneration_to_zero(self):
        lam = zz.cross_ratio_lambda(0.0, 1.0 - 1e-9, 1.0, math.inf)
        assert -1e-8 < lam < 0.0

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateCrossRatio):
            zz.cross_ratio_lambda(0.0, 1.0, 1.0, 2.0)

    @given(
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, a, b):
        x = (-1.3, -0.2, 0.9, 4.2)
        lam1 = zz.cross_ratio_lambda(*x)
        lam2 = zz.cross_ratio_lambda(*(a * v + b for v in x))
        assert math.isclose(lam1, lam2, rel_tol=1e-10)

    def test_always_negative_for_ordered_points(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = np.sort(rng.uniform(-5, 5, size=4))
            if np.min(np.diff(x)) < 1e-3:
                continue
            assert zz.cross_ratio_lambda(*x) < 0


class TestCarlsonRF:
    def test_against_mpmath(self):
        # K(m) = R_F(0, y, 1) for y = 1 - m from 1e-300 to 1 - 1e-16, and
        # general (x, y, z) over twenty decades, a fifth of them with x = 0
        ys = np.concatenate((np.geomspace(1e-300, 1.0, 200)[:-1],
                             1.0 - np.geomspace(1e-16, 0.5, 40)))
        rng = np.random.default_rng(7)
        general = 10.0 ** rng.uniform(-10.0, 10.0, (400, 3))
        general[::5, 0] = 0.0
        with mp.workdps(40):
            for x, y, z in [(0.0, y, 1.0) for y in ys] + general.tolist():
                value, ref = zz.carlson_rf(x, y, z), mp.elliprf(x, y, z)
                assert abs(value - ref) <= 1e-15 * ref, (x, y, z)

    @pytest.mark.parametrize("args", [(-1.0, 1.0, 1.0), (1.0, 1.0, -1e-300), (0.0, 0.0, 1.0),
                                      (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)])
    def test_domain_error(self, args):
        # a negative argument or more than one zero
        with pytest.raises(DomainError, match="^R_F needs nonnegative arguments"):
            zz.carlson_rf(*args)


class TestEllipticPeriods:
    def test_square_point(self):
        d = zz.elliptic_periods(-1.0)
        assert abs(d.lattice_ratio - 1j) < 1e-10

    def test_against_quadrature_oracle(self):
        # the extreme values need the complementary parameters formed
        # without cancellation
        for lam in (-0.1, -1.0, -7.3, -1e-3, -1e-12, -1e-30, -1e12):
            o1, o2 = oracle_periods(lam)
            d = zz.elliptic_periods(lam)
            assert math.isclose(d.omega1.real, o1, rel_tol=1e-11)
            assert math.isclose(d.omega2.imag, o2, rel_tol=1e-11)

    def test_leading_value(self):
        assert math.isclose(
            zz.elliptic_periods(-1e-9).omega1.real, 2 * math.pi, rel_tol=1e-8
        )

    def test_series_coefficients(self):
        # term-by-term integration of the binomial expansion of the
        # integrand gives omega1 = 2*pi * sum ((1/2)_n / n!)^2 lam^n;
        # Beta-function oracle, independent of the Carlson evaluation
        def oracle_coeff(n):
            poch = 1.0
            for i in range(n):
                poch *= (0.5 + i) / (i + 1)
            beta = math.gamma(n + 0.5) * math.gamma(0.5) / math.gamma(n + 1)
            return poch * beta / math.pi

        coeffs = [oracle_coeff(n) for n in range(4)]
        assert np.allclose(coeffs, [1.0, 0.25, 9.0 / 64.0, 25.0 / 256.0], atol=1e-14)

        # series remainder bound over |lam| <= 0.1
        for lam in (-0.1, -0.05, -0.01, -0.001):
            partial = sum(c * lam**n for n, c in enumerate(coeffs))
            value = zz.elliptic_periods(lam).omega1.real
            assert abs(value - 2 * math.pi * partial) <= 10 * abs(lam) ** 4 * 2 * math.pi

    def test_lattice_ratio_log_divergence(self):
        r3 = zz.elliptic_periods(-1e-3).lattice_ratio.imag
        r6 = zz.elliptic_periods(-1e-6).lattice_ratio.imag
        # Im(omega2/omega1) grows like log(1/|lam|)/(2 pi) * 2 pi-ish
        assert r6 > r3 > 0
        growth = (r6 - r3) / (math.log(1e6) - math.log(1e3))
        assert 0.2 < growth < 0.5  # 1/pi expected

    def test_domain_error(self):
        with pytest.raises(DomainError):
            zz.elliptic_periods(0.5)


class TestExtremalLength:
    def test_square_value(self):
        assert math.isclose(zz.extremal_length_quad(-1.0), 2.0, rel_tol=1e-12)

    def test_asymptotic_constant(self):
        # ext(lam) ~ C / log(1/|lam|): fitted constant pins the -1e-6 value
        lams = np.array([-1e-4, -1e-5, -1e-6, -1e-7, -1e-8])
        prods = np.array(
            [zz.extremal_length_quad(l) * math.log(1 / abs(l)) for l in lams]
        )
        fitted = np.mean(prods)
        val = zz.extremal_length_quad(-1e-6)
        assert abs(val - fitted / math.log(1e6)) / val < 0.10

    def test_monotone_in_magnitude(self):
        lams = -np.geomspace(1e-6, 1e3, 40)
        vals = [zz.extremal_length_quad(l) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_degeneration_products_bounded(self):
        prods = [
            zz.extremal_length_quad(lam) * math.log(1 / abs(lam))
            for lam in (-1e-3, -1e-4, -1e-5, -1e-6)
        ]
        mean = sum(prods) / len(prods)
        assert all(abs(p - mean) / mean < 0.15 for p in prods)


class TestExtremalLengths:
    def test_genus1_empty(self):
        assert zz.extremal_lengths(zz.Prevertices(1, ())) == ()

    def test_genus2_moebius_formula(self):
        prev = zz.Prevertices(2, (0.9,))
        s2 = prev.value(2)
        (e1,) = zz.extremal_lengths(prev)
        lam = zz.cross_ratio_lambda(0.0, 1.0, s2, math.inf)
        assert math.isclose(lam, 1.0 - s2, rel_tol=1e-14)
        assert math.isclose(e1, 2.0 * zz.extremal_length_quad(lam), rel_tol=1e-14)

    def test_thin_gaps_keep_their_digits(self):
        # gaps near 1e-9 of the prevertices: each cross-ratio is formed from
        # the gaps, against mpmath from the same exact gaps (absolute
        # prevertices lose about 4e-9 of E here)
        gaps = [0.5, 27.0, 1.7e-8, 1.5e-8, 3.0]
        prev = zz.Prevertices(6, gaps)
        g = [mp.mpf(1)] + [mp.mpf(x) for x in gaps]  # s_{j+1} - s_j for j >= 0
        for k, ext in enumerate(zz.extremal_lengths(prev), start=1):
            with mp.workdps(40):
                if k + 1 < len(g):
                    lam = -g[k] * (g[k - 1] + g[k] + g[k + 1]) / (g[k - 1] * g[k + 1])
                else:
                    lam = -g[k] / g[k - 1]
                m = -lam / (1 - lam)
                expected = 4 * mp.ellipk(m) / mp.ellipk(1 - m)
                assert abs(ext - expected) / expected < 1e-13

    def test_entries_positive_finite(self, genus3):
        for prev in (genus3.prev_ne, genus3.prev_sw):
            vals = zz.extremal_lengths(prev)
            assert len(vals) == 2
            assert all(math.isfinite(v) and v > 0 for v in vals)
