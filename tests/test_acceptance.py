"""Acceptance suite.

Every criterion prints one PASS line when its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

import zigzag as zz


def _report(name, detail):
    print(f"ACCEPT {name}: PASS ({detail})")


def similarity_fit(X, Y):
    Xc, Yc = X - X.mean(0), Y - Y.mean(0)
    U, S, Vt = np.linalg.svd(Xc.T @ Yc)
    R = U @ Vt
    s = S.sum() / (Yc**2).sum()
    t = X.mean(0) - s * (R @ Y.mean(0))
    return (s * (R @ Y.T)).T + t


def test_criterion_1_enneper_equivalence():
    t0 = time.perf_counter()
    record = zz.continuation_solve(0, 2)
    wd = zz.build_weierstrass(record)
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < 50:
        t = complex(rng.uniform(-2, 2), rng.uniform(0, 2))
        if 0.05 < abs(t) < 2.0:
            pts.append(t)
    base = 0.5j

    def closed_form(z):
        return np.array([
            (0.5 * (z**3 / 3 - z)).real,
            (0.5j * (z**3 / 3 + z)).real,
            (z * z / 2).real,
        ])

    X = np.array([zz.evaluate_surface(wd, t, base) for t in pts])
    Y = np.array([closed_form(np.sqrt(complex(t)))
                  - closed_form(np.sqrt(complex(base))) for t in pts])
    err = np.max(np.linalg.norm(similarity_fit(X, Y) - X, axis=1))
    elapsed = time.perf_counter() - t0
    assert err < 1e-6
    assert elapsed < 1.0
    _report("1 genus-0 Enneper equivalence",
            f"max vertex error {err:.2e}, {elapsed:.2f}s")


def test_criterion_2_genus1_square_torus():
    t0 = time.perf_counter()
    record = zz.continuation_solve(1, 2)
    chain = zz.build_vertices(record.zigzag)
    assert np.allclose(chain.vertices, (1j, 1 + 1j, 1 + 0j), atol=1e-14)
    wd = zz.build_weierstrass(record)
    ratio = zz.lattice_ratio(wd)
    elapsed = time.perf_counter() - t0
    assert abs(ratio - 1j) < 1e-6
    assert elapsed < 5.0
    _report("2 genus-1 square torus",
            f"|omega2/omega1 - i| = {abs(ratio - 1j):.2e}, {elapsed:.2f}s")


def test_criterion_3_ladder_and_isolation(ladder5, ladder5_elapsed):
    worst_height = 0.0
    for p in range(2, 6):
        rec = ladder5[p]
        assert rec.converged and rec.height < 1e-10
        worst_height = max(worst_height, rec.height)
        lengths = np.asarray(rec.zigzag.side_lengths)
        for i in range(p - 1):
            for sgn in (1.0, -1.0):
                d = np.zeros(p)
                d[i] += sgn * 1e-3
                d[p - 1] -= sgn * 1e-3
                perturbed = zz.height(zz.ZigzagParams(p, 2, tuple(lengths + d)))
                assert perturbed > rec.height
    assert ladder5_elapsed < 600.0
    _report("3 reflexive solutions p=2..5 with isolation",
            f"max height {worst_height:.2e}, solves {ladder5_elapsed:.0f}s")


def test_criterion_4_period_identities(ladder5):
    phase = complex(np.exp(-1j * np.pi / 4))
    worst = 0.0
    for p in range(0, 6):
        wd = zz.build_weierstrass(ladder5[p])
        report = zz.verify_periods(wd)
        chain = wd.chain
        for row, j in zip(report.alpha_computed, range(-p, p)):
            expected = 2.0 * phase * (chain.vertex(j) - chain.vertex(j + 1))
            assert abs(row - expected) < 1e-8
        worst = max(worst, report.max_error())
    assert worst < 1e-8
    _report("4 period identities p=0..5", f"worst error {worst:.2e}")


def test_criterion_5_curvature_ledger(ladder5, karcher_k3):
    for p in range(0, 6):
        deg, total, winding = zz.curvature_summary(zz.build_weierstrass(ladder5[p]))
        assert deg == p + 1
        assert math.isclose(total, -4.0 * math.pi * (p + 1), rel_tol=1e-15)
        assert winding == 3
    deg3, _, winding3 = zz.curvature_summary(zz.build_weierstrass(karcher_k3[1]))
    assert winding3 == 5
    _report("5 curvature ledger", "deg g = p+1, K = -4pi(p+1), winding 2k-1")


def test_criterion_6_elliptic_oracle_suite():
    # series coefficients from term-by-term integration (Beta oracle)
    def coeff(n):
        poch = 1.0
        for i in range(n):
            poch *= (0.5 + i) / (i + 1)
        beta = math.gamma(n + 0.5) * math.gamma(0.5) / math.gamma(n + 1)
        return poch * beta / math.pi

    coeffs = [coeff(n) for n in range(4)]
    assert np.allclose(coeffs, [1.0, 1.0 / 4, 9.0 / 64, 25.0 / 256], atol=1e-14)
    for lam in np.linspace(-0.1, -1e-4, 23):
        partial = sum(c * lam**n for n, c in enumerate(coeffs))
        value = zz.elliptic_periods(lam).omega1.real
        assert abs(value - 2 * math.pi * partial) <= 10 * abs(lam) ** 4 * 2 * math.pi

    # square point against direct quadrature
    mp.mp.dps = 25
    j = mp.quad(lambda u: 1 / mp.sqrt(u * (u - 1) * (u + 1)), [-1, 0])
    i = mp.quad(lambda u: 1 / mp.sqrt(u * (1 - u) * (u + 1)), [0, 1])
    ext_oracle = float(2 * j / i)
    assert abs(zz.extremal_length_quad(-1.0) - ext_oracle) < 1e-9
    assert abs(zz.extremal_length_quad(-1.0) - 2.0) < 1e-9

    # degeneration: ext * log(1/|lam|) bounded within 15 percent
    lams = -np.geomspace(1e-8, 1e-4, 9)
    prods = [zz.extremal_length_quad(l) * math.log(1 / abs(l)) for l in lams]
    mean = float(np.mean(prods))
    spread = max(abs(p - mean) / mean for p in prods)
    assert spread < 0.15
    _report("6 elliptic oracle suite",
            f"series ok, ext(-1) = 2, degeneration spread {spread:.1%}")


def test_criterion_7_sc_roundtrip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    t0 = time.perf_counter()
    for p in range(2, 6):
        for _ in range(100):
            lengths = rng.dirichlet(np.full(p, 2.0))
            while lengths.min() < 0.02:
                lengths = rng.dirichlet(np.full(p, 2.0))
            z = zz.ZigzagParams(p, 2, tuple(lengths))
            for pat in (zz.ne_pattern(p), zz.sw_pattern(p)):
                prev = zz.solve_parameter_problem(z, pat)
                sides = np.array([zz.side_length(prev, pat, j) for j in range(p)])
                err = np.max(np.abs(sides / sides.sum() - lengths))
                worst = max(worst, float(err))
                assert err < 1e-8
    _report("7 SC round-trip 100x p=2..5",
            f"worst relative error {worst:.2e}, {time.perf_counter() - t0:.0f}s")


def test_criterion_8_log_slope_asymmetry(genus3):
    deltas = np.geomspace(1e-6, 1e-4, 9)
    j = 1
    members = zz.make_coalescing_family(genus3.prev_ne, j, deltas)
    _, c1_ne, res_ne = zz.coalescence_log_fit(deltas, members, zz.ne_pattern(3), j)
    _, c1_sw, res_sw = zz.coalescence_log_fit(deltas, members, zz.sw_pattern(3), j)
    assert res_ne < 1e-3 and res_sw < 1e-3
    assert c1_ne.real * c1_sw.real < 0
    assert abs(abs(c1_ne) - 1.0) < 0.05 and abs(abs(c1_sw) - 1.0) < 0.05
    _report("8 log-slope sign asymmetry",
            f"c1_ne = {c1_ne.real:+.4f}, c1_sw = {c1_sw.real:+.4f}, "
            f"residuals {max(res_ne, res_sw):.1e}")


def test_criterion_9_karcher_thayer(karcher_k3, karcher_k3_elapsed):
    for p in (1, 2):
        rec = karcher_k3[p]
        assert rec.converged and rec.height < 1e-10
        report = zz.verify_periods(zz.build_weierstrass(rec))
        assert report.max_error() < 1e-8
    assert karcher_k3_elapsed < 600.0
    _report("9 Karcher-Thayer k=3 p=1,2",
            f"heights < 1e-10, periods ok, {karcher_k3_elapsed:.1f}s")
