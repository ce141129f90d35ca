import cmath
import math

import numpy as np
import pytest

import zigzag as zz
from zigzag.errors import DomainError, NotReflexive, PeriodMismatch


def enneper_closed_form(z):
    """X for g = z, dh = z dz."""
    w1 = 0.5 * (z**3 / 3 - z)
    w2 = 0.5j * (z**3 / 3 + z)
    w3 = z * z / 2
    return np.array([w1.real, w2.real, w3.real])


def similarity_fit(X, Y):
    """Least-squares orthogonal transform + scale + translation Y -> X."""
    Xc, Yc = X - X.mean(0), Y - Y.mean(0)
    U, S, Vt = np.linalg.svd(Xc.T @ Yc)
    R = U @ Vt
    s = S.sum() / (Yc**2).sum()
    t = X.mean(0) - s * (R @ Y.mean(0))
    return (s * (R @ Y.T)).T + t


@pytest.fixture(scope="module")
def wd_by_genus(ladder5):
    return {p: zz.build_weierstrass(ladder5[p]) for p in range(6)}


class TestBuildWeierstrass:
    def test_product_identity(self, wd_by_genus):
        # alpha * beta = dh^2 pointwise
        rng = np.random.default_rng(5)
        for p, wd in wd_by_genus.items():
            zs = rng.uniform(-2, 2, 100) + 1j * rng.uniform(0.05, 2, 100)
            lhs = wd.alpha_coefficient(zs) * wd.beta_coefficient(zs)
            rhs = wd.dh_scale**2
            assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-10

    def test_dh_scale_positive_real(self, wd_by_genus):
        for wd in wd_by_genus.values():
            assert wd.dh_scale.real > 0
            assert abs(wd.dh_scale.imag) < 1e-10 * abs(wd.dh_scale)

    def test_genus0_is_enneper_data(self, wd_by_genus):
        wd = wd_by_genus[0]
        # gauss map has a single pole: g ~ t^(-1/2), so deg g = 1 on the cover
        t = np.array([0.25 + 0.0j])
        g = wd.gauss_map(t)[0]
        assert abs(abs(g) - abs(wd.scale_sw / wd.dh_scale) * 2.0) < 1e-12

    def test_genus1_square_torus(self, wd_by_genus):
        assert abs(zz.lattice_ratio(wd_by_genus[1]) - 1j) < 1e-10

    def test_rejects_diverged_record(self, genus2):
        broken = zz.SolutionRecord(
            genus2.zigzag, genus2.prev_ne, genus2.prev_sw,
            genus2.ext_ne, genus2.ext_sw, 1.0, False, genus2.trace,
        )
        with pytest.raises(NotReflexive):
            zz.build_weierstrass(broken)

    def test_rejects_mismatched_tuples(self, genus2):
        vals = list(genus2.prev_sw.values)
        vals[-1] += 1e-3
        vals[0] -= 1e-3
        tampered = zz.SolutionRecord(
            genus2.zigzag, genus2.prev_ne, zz.Prevertices(tuple(vals)),
            genus2.ext_ne, genus2.ext_sw, genus2.height, True, genus2.trace,
        )
        with pytest.raises(NotReflexive):
            zz.build_weierstrass(tampered)


class TestVerifyPeriods:
    def test_k2_ladder(self, wd_by_genus):
        for p, wd in wd_by_genus.items():
            report = zz.verify_periods(wd)
            assert report.worst_alpha < 1e-8
            assert report.worst_conjugacy < 1e-8
            assert report.worst_dh < 1e-10

    def test_alpha_periods_match_vertex_chain(self, wd_by_genus):
        wd = wd_by_genus[2]
        chain = wd.chain
        report = zz.verify_periods(wd)
        phase = cmath.exp(-1j * math.pi / 4)
        for row, j in zip(report.alpha_computed, range(-2, 2)):
            expected = 2.0 * phase * (chain.vertex(j) - chain.vertex(j + 1))
            assert abs(row - expected) < 1e-8

    def test_genus0_vacuous(self, wd_by_genus):
        report = zz.verify_periods(wd_by_genus[0])
        assert report.alpha_computed == ()

    def test_perturbed_prevertices_fail(self, wd_by_genus):
        wd = wd_by_genus[2]
        vals = np.asarray(wd.prevertices.values)
        vals = vals + np.array([-1e-3, 0, 0, 0, 1e-3])
        tampered = zz.WeierstrassData(
            wd.genus, wd.turn_order, zz.Prevertices(tuple(vals)),
            wd.scale_ne, wd.scale_sw, wd.dh_scale, wd.chain,
        )
        with pytest.raises(PeriodMismatch):
            zz.verify_periods(tampered)

    def test_k3(self, karcher_k3):
        for rec in karcher_k3.values():
            report = zz.verify_periods(zz.build_weierstrass(rec))
            assert report.max_error() < 1e-8


class TestCurvature:
    @pytest.mark.parametrize(
        "p,expected", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    )
    def test_k2_ledger(self, p, expected, wd_by_genus):
        deg, total, winding = zz.curvature_summary(wd_by_genus[p])
        assert deg == expected
        assert math.isclose(total, -4 * math.pi * expected, rel_tol=1e-15)
        assert winding == 3

    def test_k3(self, karcher_k3):
        wd = zz.build_weierstrass(karcher_k3[1])
        deg, total, winding = zz.curvature_summary(wd)
        assert (deg, winding) == (4, 5)
        assert math.isclose(total, -16 * math.pi, rel_tol=1e-15)


class TestEvaluateSurface:
    def test_base_maps_to_origin(self, wd_by_genus):
        X = zz.evaluate_surface(wd_by_genus[1], 0.5j, 0.5j)
        assert np.allclose(X, 0.0, atol=1e-15)

    def test_enneper_closed_form(self, wd_by_genus):
        wd = wd_by_genus[0]
        rng = np.random.default_rng(7)
        pts = []
        while len(pts) < 50:
            t = complex(rng.uniform(-2, 2), rng.uniform(0, 2))
            if 0.05 < abs(t) < 2.0:
                pts.append(t)
        base = 0.5j
        X = np.array([zz.evaluate_surface(wd, t, base) for t in pts])
        Y = np.array(
            [enneper_closed_form(np.sqrt(complex(t)))
             - enneper_closed_form(np.sqrt(complex(base))) for t in pts]
        )
        fitted = similarity_fit(X, Y)
        assert np.max(np.linalg.norm(fitted - X, axis=1)) < 1e-6

    def test_path_independence(self, wd_by_genus):
        wd = wd_by_genus[2]
        t = 0.37 + 0.21j
        x1 = zz.evaluate_surface(wd, t, 1.0j)
        x2_leg = zz.evaluate_surface(wd, 2.0 + 2.0j, 1.0j)
        x2 = x2_leg + zz.evaluate_surface(wd, t, 2.0 + 2.0j)
        assert np.max(np.abs(x1 - x2)) < 1e-9

    def test_rejects_point_below_axis(self, wd_by_genus):
        with pytest.raises(DomainError):
            zz.evaluate_surface(wd_by_genus[2], 0.4 - 1e-6j)

    def test_rejects_base_on_axis(self, wd_by_genus):
        # a segment between two real points would run along the axis
        # through the prevertices
        with pytest.raises(DomainError):
            zz.evaluate_surface(wd_by_genus[2], 0.4 + 0.2j, 0.5)


class TestMesh:
    def test_enneper_conformality(self, wd_by_genus):
        wd = wd_by_genus[0]
        mesh = zz.generate_mesh(wd, 2.0, 32)
        edges = set()
        for a, b, c in mesh.triangles:
            for u, v in ((a, b), (b, c), (c, a)):
                edges.add((min(u, v), max(u, v)))
        worst = 0.0
        for u, v in edges:
            dt = abs(mesh.parameters[u] - mesh.parameters[v])
            if dt < 1e-12:
                continue
            mid = 0.5 * (mesh.parameters[u] + mesh.parameters[v])
            # interior edges: away from the branch-point chart singularity
            # and off the outer ring
            if abs(mid) < 0.3 or abs(mid) > 1.8:
                continue
            if mid.imag <= 0:
                mid = mid.real + 1e-9j
            speed = np.linalg.norm(mesh.vertices[u] - mesh.vertices[v]) / dt
            factor = 0.5 * float(wd.metric_factor(np.array([mid]))[0])
            worst = max(worst, abs(speed - factor))
        assert worst < 1e-3

    def test_metric_positive_near_prevertices(self, wd_by_genus):
        mesh = zz.generate_mesh(wd_by_genus[1], 2.0, 12)
        assert np.all(np.isfinite(mesh.conformal_factor))
        assert np.all(mesh.conformal_factor > 0)
        assert np.all(np.isfinite(mesh.vertices))

    def test_triangle_count_scaling(self, wd_by_genus):
        wd = wd_by_genus[0]
        n1 = len(zz.generate_mesh(wd, 2.0, 8).triangles)
        n2 = len(zz.generate_mesh(wd, 2.0, 16).triangles)
        assert 3.0 < n2 / n1 < 5.0

    def test_harmonicity_under_refinement(self, wd_by_genus):
        wd = wd_by_genus[0]
        norms = []
        for res in (8, 16):
            mesh = zz.generate_mesh(wd, 2.0, res)
            norms.append(_cot_laplacian_norm(mesh))
        assert norms[1] < norms[0] / 3.0

    def test_symmetry_generators_present(self, wd_by_genus):
        mesh = zz.generate_mesh(wd_by_genus[0], 2.0, 8)
        names = {g.name for g in mesh.symmetries}
        assert names == {"deck_involution", "boundary_reflection",
                         "diagonal_reflection"}
        assert len(mesh.symmetries) <= 3  # generators of a group of order <= 8

    def test_radius_must_cover_prevertices(self, wd_by_genus):
        with pytest.raises(ValueError):
            zz.generate_mesh(wd_by_genus[2], 0.5, 8)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_radius_must_be_finite(self, wd_by_genus, radius):
        with pytest.raises(ValueError):
            zz.generate_mesh(wd_by_genus[2], radius, 8)

    def test_resolution_floor(self, wd_by_genus):
        with pytest.raises(ValueError):
            zz.generate_mesh(wd_by_genus[0], 2.0, 4)


def _cot_laplacian_norm(mesh, exclude_r=0.3, boundary_r=1.9):
    V, T, params = mesh.vertices, mesh.triangles, mesh.parameters
    n = len(V)
    L = np.zeros((n, 3))
    W = np.zeros(n)
    for a, b, c in T:
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            u, v = V[i] - V[k], V[j] - V[k]
            cross = np.linalg.norm(np.cross(u, v))
            if cross < 1e-14:
                continue
            cot = float(np.dot(u, v)) / cross
            L[i] += 0.5 * cot * (V[j] - V[i])
            W[i] += 0.5 * cot
            L[j] += 0.5 * cot * (V[i] - V[j])
            W[j] += 0.5 * cot
    norms = np.linalg.norm(L, axis=1) / np.maximum(W, 1e-12)
    sel = (np.abs(params) > exclude_r) & (np.abs(params) < boundary_r) \
        & (params.imag > 0.02)
    return norms[sel].max()
