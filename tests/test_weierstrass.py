import cmath
import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zigzag as zz
from zigzag import io as zio, quadrature, weierstrass
from zigzag.errors import DomainError, NotReflexive, PeriodMismatch
from zigzag.scmap import _development, _side_system


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


@st.composite
def sc_tuples(draw):
    """Genus 1..7, turn order 2..5 and p-1 log-gaps in [-8, 2]: in
    general not a reflexive tuple."""
    p = draw(st.integers(1, 7))
    k = draw(st.integers(2, 5))
    u = draw(st.lists(st.floats(-8.0, 2.0), min_size=p - 1, max_size=p - 1))
    return p, k, np.array(u)


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

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(sc_tuples())
    def test_dh_square_positive_real_on_any_tuple(self, problem):
        # the phases of A_ne and A_sw are fixed by (p, k) alone, so
        # c^2 = -i A_ne A_sw is positive real on every tuple, reflexive or not
        p, k, u = problem
        prev = zz.Prevertices(p, np.exp(u))
        a_ne = _development(prev, zz.ne_pattern(p, k))[0]
        a_sw = _development(prev, zz.sw_pattern(p, k))[0]
        assert abs(cmath.phase(-1j * a_ne * a_sw)) <= 1e-12

    @pytest.mark.parametrize("p, k", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (1, 3),
                                      (4, 3)])
    def test_takes_no_kernel_plan(self, ladder5, karcher_k3, kernel_plans, p, k):
        # every record carries its data, and so does every file written
        # from it: building them, from the record or from its file, only
        # checks the record and builds no kernel plan
        record = {2: ladder5, 3: karcher_k3}[k].get(p) or zz.continuation_solve(p, k)
        text = zio.record_to_solution(record).dumps()
        kernel_plans.clear()
        assert zz.build_weierstrass(record) == record.weierstrass
        loaded = zio.solution_to_record(zio.SolutionFile(json.loads(text)))
        assert zz.build_weierstrass(loaded) == record.weierstrass
        assert kernel_plans == []

    def test_record_without_data_is_refused(self, genus2):
        with pytest.raises(ValueError, match="carries no Weierstrass data"):
            zz.build_weierstrass(dataclasses.replace(genus2, weierstrass=None))

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
            genus2.ext_ne, genus2.ext_sw, 1.0, False, genus2.residuals,
        )
        with pytest.raises(NotReflexive):
            zz.build_weierstrass(broken)

    def test_rejects_mismatched_tuples(self, genus2):
        # s_2 moved out by 1e-3, and s_-2 with it
        moved = zz.Prevertices(2, np.add(genus2.prev_sw.free, 1e-3))
        tampered = zz.SolutionRecord(
            genus2.zigzag, genus2.prev_ne, moved,
            genus2.ext_ne, genus2.ext_sw, genus2.height, True, genus2.residuals,
        )
        with pytest.raises(NotReflexive):
            zz.build_weierstrass(tampered)

    @pytest.mark.parametrize("p, k", [(2, 2), (5, 2), (4, 3)])
    def test_rejects_zigzag_its_tuple_does_not_develop(self, ladder5, p, k):
        # side 0 scaled by 1 + 1e-6 moves the chain, which is the record's
        # zigzag, about 1e-7 off the periods of the unchanged tuple
        rec = ladder5[p] if k == 2 else zz.continuation_solve(p, k)
        sides = np.array(rec.zigzag.side_lengths)
        sides[0] *= 1.0 + 1e-6
        tampered = dataclasses.replace(
            rec, zigzag=zz.canonicalize(zz.ZigzagParams(p, k, tuple(sides))))
        with pytest.raises(PeriodMismatch):
            zz.verify_periods(zz.build_weierstrass(tampered))

    @pytest.mark.parametrize("p, k", [(0, 3), (1, 2), (2, 2), (5, 2), (2, 3), (4, 3), (12, 3),
                                      (40, 2)])
    def test_fresh_data_equals_its_file(self, p, k):
        # one chain per solution: a record and the file written from it
        # give the same data and the same period report
        rec = zz.continuation_solve(p, k)
        fresh = zz.build_weierstrass(rec)
        text = zio.record_to_solution(rec).dumps()
        loaded = zio.weierstrass_from_solution(zio.SolutionFile(json.loads(text)))
        assert fresh == loaded and fresh.prevertices.gaps == loaded.prevertices.gaps
        assert zz.verify_periods(fresh) == zz.verify_periods(loaded)


class TestSharedSolveData:
    """A solved record's Weierstrass data are those of the tuple its shared
    solve returns, with the scales of the sides its certificate summed."""

    @pytest.mark.parametrize("p, k", [(2, 2), (5, 2), (4, 3), (12, 3), (40, 2)])
    def test_stored_tuple_is_the_shared_solve_s(self, p, k):
        record = zz.continuation_solve(p, k)
        wd = record.weierstrass
        rows = np.stack((zz.ne_pattern(p, k).exponents, zz.sw_pattern(p, k).exponents))
        system = _side_system(rows[None], lambda sides, ratios, J: (ratios[:, 0] - ratios[:, 1],
                                                                     sides))
        _, certify = system(np.log(wd.prevertices.free)[None])
        F, sides = certify()
        assert np.max(np.abs(F)) <= 1e-12
        # the certified sides, rows SW and NE, give the record's data bit
        # for bit, and a fresh development of each integrand its scale
        assert weierstrass._weierstrass_data(wd.chain, wd.prevertices, sides[0][::-1]) == wd
        for scale, pat in ((wd.scale_sw, zz.sw_pattern(p, k)), (wd.scale_ne, zz.ne_pattern(p, k))):
            fresh = complex(_development(wd.prevertices, pat)[0])
            assert abs(scale - fresh) <= 1e-14 * abs(fresh)

    def test_every_record_carries_data(self, ladder5, karcher_k3):
        # genus 0 takes the constants A_sw = 1, A_ne = i; genus 1, whose
        # tuple is fixed, takes each scale bit for bit from a fresh
        # development of its integrand, as every genus takes its data
        assert all(rec.weierstrass is not None for rec in ladder5.values())
        wd0 = ladder5[0].weierstrass
        assert (wd0.scale_sw, wd0.scale_ne) == (1.0, 1j)
        for wd in (ladder5[1].weierstrass, karcher_k3[1].weierstrass):
            assert wd.prevertices == zz.Prevertices(1, ())
            for scale, pat in ((wd.scale_sw, zz.sw_pattern(1, wd.turn_order)),
                               (wd.scale_ne, zz.ne_pattern(1, wd.turn_order))):
                assert scale == complex(_development(wd.prevertices, pat)[0])

    @pytest.mark.parametrize("k, block", [
        (2, {"scale_ne": complex(-3.5029173858408279e-17, 0.57206982262635975),
             "scale_sw": complex(0.83462684167407308, -5.1106154506930918e-17),
             "dh_scale": complex(0.69098829894267089, 0.0)}),
        (3, {"scale_ne": complex(0.13703733311838201, 0.51143028973154359),
             "scale_sw": complex(0.83816711791218756, 0.22458620236689192),
             "dh_scale": complex(0.67782058554224145, -1.0237065754437463e-17)}),
    ])
    def test_frozen_genus1_block(self, k, block):
        # the shape of the kernel call decides the last bits of the genus-1
        # scales: one call per pattern, each bit for bit that of a stacked
        # call, and unlike one call of both rows on one tuple
        data = zio.record_to_solution(zz.continuation_solve(1, k)).data["weierstrass"]
        assert data == {"prevertices": [-1.0, 0.0, 1.0], "prevertex_gaps": [1.0, 1.0], **block}


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

    def test_one_interval_plan_and_no_segment(self, wd_by_genus, monkeypatch):
        # the 2p cycle intervals of both forms come from the stored gaps in
        # one interval kernel call; the complex segment path is not taken
        plans, segments = [], []
        init = quadrature.IntervalPlan.__init__
        monkeypatch.setattr(quadrature.IntervalPlan, "__init__",
                            lambda self, *args, **kw: plans.append(args) or init(self, *args, **kw))
        monkeypatch.setattr(quadrature, "segment_integral", lambda *args: segments.append(args))
        wd = wd_by_genus[2]
        zz.verify_periods(wd)
        assert len(plans) == 1 and segments == []
        assert np.array_equal(plans[0][0], wd.prevertices.gaps)

    def test_genus0_vacuous(self, wd_by_genus):
        report = zz.verify_periods(wd_by_genus[0])
        assert report.alpha_computed == ()

    def test_perturbed_prevertices_fail(self, wd_by_genus):
        wd = wd_by_genus[2]
        moved = zz.Prevertices(2, np.add(wd.prevertices.free, 1e-3))  # s_2 and s_-2
        tampered = zz.WeierstrassData(
            wd.genus, wd.turn_order, moved,
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

    def test_batch_matches_scalar_calls(self, wd_by_genus):
        wd = wd_by_genus[3]
        base = 0.5j
        rng = np.random.default_rng(3)
        pts = list(rng.uniform(-3, 3, 38) + 1j * rng.uniform(0, 2, 38))
        pts += [complex(wd.prevertices.value(1)), base]  # a Jacobi end; X = 0
        batch = zz.evaluate_surface(wd, np.array(pts), base)
        scalar = np.array([zz.evaluate_surface(wd, t, base) for t in pts])
        assert batch.shape == (40, 3) and scalar.shape == (40, 3)
        gap = np.linalg.norm(batch - scalar, axis=1)
        assert np.all(gap <= 1e-14 * np.linalg.norm(scalar, axis=1))
        assert np.all(batch[-1] == 0.0)

    def test_one_point_below_axis_rejects_the_batch(self, wd_by_genus):
        pts = np.array([0.4 + 0.2j, 1.3 + 0.1j, 0.4 - 1e-6j, 2.0 + 1.0j])
        with pytest.raises(DomainError):
            zz.evaluate_surface(wd_by_genus[2], pts)

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

    def test_one_kernel_call_per_mesh(self, wd_by_genus, monkeypatch):
        calls = {"surface": 0, "segment": 0}
        ends, sums = [], []
        summed = quadrature._SegmentPanels.sums

        def counting_sums(self, n):
            sums.append((self, n))
            return summed(self, n)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "segment":
                    ends.append(np.size(args[3]))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(weierstrass, "evaluate_surface",
                            counted("surface", weierstrass.evaluate_surface))
        monkeypatch.setattr(quadrature, "segment_integral",
                            counted("segment", quadrature.segment_integral))
        monkeypatch.setattr(quadrature._SegmentPanels, "sums", counting_sums)
        resolution = 12
        mesh = zz.generate_mesh(wd_by_genus[2], 3.0, resolution)
        assert calls == {"surface": 1, "segment": 1}
        # the centre and the columns 0 <= theta <= pi/2 of every ring
        n_rings = (len(mesh.parameters) - 1) // (2 * resolution + 1)
        assert ends == [1 + n_rings * (resolution + 1)]
        # the node work: one 12-node sum over every entry, then one 24-node
        # sum over exactly the entries of the segments whose bound missed
        [(panels, coarse), (fine_panels, fine)] = sums
        assert (coarse, fine) == (quadrature._BASE_NODES, 2 * quadrature._BASE_NODES)
        assert panels.s_count == ends[0]
        value, moduli = summed(panels, coarse)
        rel_tol, abs_tol = quadrature._SEGMENT_TOL
        missed = ~(panels.bound(coarse, moduli) <= rel_tol * np.abs(value) + abs_tol).all(axis=0)
        assert panels.seg.size == 198
        assert fine_panels.s_count == missed.sum() == 1
        assert fine_panels.seg.size == missed[panels.seg].sum() == 1

    @pytest.mark.parametrize("name, entries, fallback",
                             [("p3_k2", 692, 1), ("p5_k2", 747, 11), ("p2_k3", 656, 6)])
    def test_node_work_of_the_benchmark_meshes(self, monkeypatch, name, entries, fallback):
        # deterministic work counters of `zigzag mesh --resolution 24` on the
        # benchmark's solution files: the entries summed at 12 nodes, every
        # entry once, and at 24 nodes, those of the segments whose bound
        # missed, at most 5 % of them (each was 12 and 24 before the bound)
        counts, summed = [], quadrature._SegmentPanels.sums

        def counting_sums(self, n):
            counts.append((n, self.seg.size))
            return summed(self, n)

        monkeypatch.setattr(quadrature._SegmentPanels, "sums", counting_sums)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / f"{name}.json"
        wd = zio.weierstrass_from_solution(zio.load_solution(path))
        zz.generate_mesh(wd, 1.5 * wd.prevertices.values[-1], 24)
        base = quadrature._BASE_NODES
        assert counts == [(base, entries), (2 * base, fallback)]
        assert fallback <= 0.05 * entries

    @pytest.mark.parametrize("size", [(1, 27, 49), (1, 25, 49), (1, 8, 17)])
    def test_triangles_match_the_loop(self, size):
        # the array construction against the loop it replaced: same
        # triangles in the same order, so OBJ face blocks are unchanged
        n_center, n_rings, ring_size = size
        tris = [(0, n_center + j, n_center + j + 1) for j in range(ring_size - 1)]
        for i in range(n_rings - 1):
            a = n_center + i * ring_size
            b = a + ring_size
            for j in range(ring_size - 1):
                tris.append((a + j, b + j, b + j + 1))
                tris.append((a + j, b + j + 1, a + j + 1))
        got, want = weierstrass._fan_and_strip_triangles(*size), np.asarray(tris, dtype=int)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("key", [(2, 2), (5, 2), (0, 5), "spun"])
    def test_left_half_is_the_rotated_right_half(self, wd_by_pk, key):
        wd, resolution = wd_by_pk[key], 12
        radius = 1.5 * max(1.0, max(wd.prevertices.values))
        mesh = zz.generate_mesh(wd, radius, resolution)
        n = resolution
        rings = mesh.parameters[1:].reshape(-1, 2 * n + 1)
        src, mirror = rings[:, n - 1:: -1], rings[:, n + 1:]
        # the parameters mirror bit for bit, so both ring ends sit on the
        # real axis unless nudged off a prevertex, and then equally high
        assert np.array_equal((-np.conj(src)).view(np.uint64), mirror.view(np.uint64))
        r = np.abs(rings[:, 0].real)
        s = np.asarray(wd.prevertices.values)
        nudged = np.min(np.abs(r[:, None] - s), axis=1) < 1e-3 * radius / resolution
        assert np.all(rings[~nudged, 0].imag == 0.0)
        assert np.all(rings[~nudged, -1].imag == 0.0)
        assert np.array_equal(rings[:, 0].imag, rings[:, -1].imag)
        # the rotated vertices are the integrated ones
        direct = zz.evaluate_surface(wd, mirror.ravel(), 0.5j * radius)
        rotated = mesh.vertices[1:].reshape(*rings.shape, 3)[:, n + 1:].reshape(-1, 3)
        assert np.max(np.abs(rotated - direct)) < 1e-13 * np.max(np.abs(mesh.vertices))

    @pytest.mark.parametrize("key", [(2, 2), (5, 2), (0, 5), (4, 3)])
    def test_chords_match_segments_from_the_base(self, wd_by_pk, key):
        # the vertices summed from ring chords against the path they
        # replaced, one segment from the base point to each vertex
        wd, resolution = wd_by_pk[key], 24
        radius = 1.5 * max(1.0, max(wd.prevertices.values))
        mesh = zz.generate_mesh(wd, radius, resolution)
        ring = 2 * resolution + 1
        n_rings = (len(mesh.parameters) - 1) // ring
        # the centre and the columns 0 <= theta <= pi/2 of every ring
        cols = 1 + ring * np.arange(n_rings)[:, None] + np.arange(resolution + 1)
        right = np.concatenate(([0], cols.ravel()))
        oracle = zz.evaluate_surface(wd, mesh.parameters[right], 0.5j * radius)
        bound = 1e-14 * np.max(np.abs(mesh.vertices))
        assert np.max(np.abs(mesh.vertices[right] - oracle)) <= bound

    def test_panel_entries_per_segment_of_a_genus5_mesh(self, wd_by_genus, monkeypatch):
        # a chord between neighbouring columns fits the one-half rule whole
        # and takes one entry, where grading each half from its own end took
        # two; the segments that do not fit (from the base point, or ending
        # near a prevertex) keep that grading.  1.066 entries per segment
        # here, 2.044 with every segment cut at its midpoint
        built = []
        init = quadrature._SegmentPanels.__init__

        def counting_init(self, *args):
            init(self, *args)
            built.append((self.seg.size, self.s_count))

        monkeypatch.setattr(quadrature._SegmentPanels, "__init__", counting_init)
        wd = wd_by_genus[5]
        zz.generate_mesh(wd, 1.5 * max(wd.prevertices.values), 24)
        [(entries, segments)] = built
        assert entries <= 1.15 * segments

    def test_traced_memory_of_a_genus5_mesh(self, wd_by_genus):
        # the segment kernel evaluates its node x prevertex logs in blocks
        # of about 2^14 entries: 1.8 MB traced peak for this mesh, against
        # 61 MB when every node of a node count is evaluated at once
        wd = wd_by_genus[5]
        radius = 1.5 * max(wd.prevertices.values)
        tracemalloc.start()
        try:
            zz.generate_mesh(wd, radius, 24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def _spun(wd, phi):
    """The data turned about the vertical axis: scale_sw e^{i phi} and
    scale_ne e^{-i phi} keep dh_scale^2 = -i scale_ne scale_sw."""
    return dataclasses.replace(wd, scale_sw=wd.scale_sw * cmath.exp(1j * phi),
                               scale_ne=wd.scale_ne * cmath.exp(-1j * phi))


@pytest.fixture(scope="module")
def wd_by_pk(wd_by_genus):
    wd = {(p, 2): wd_by_genus[p] for p in (0, 1, 2, 3, 5)}
    for p, k in ((0, 3), (0, 5), (2, 4), (4, 3)):
        wd[p, k] = zz.build_weierstrass(zz.continuation_solve(p, k))
    wd["spun"] = _spun(wd[2, 4], 0.3)
    return wd


def _expected_rotation(p, k):
    """Rotation by pi about the horizontal line at angle phi to the
    x1-axis: phi = 0 for genus >= 1, and -pi (1/2 - (k-1)/k) / 2 at
    genus 0, where scale_sw = 1 and E_sw = -(k-1)/k."""
    phi = 0.0 if p >= 1 else -math.pi * (0.5 - (k - 1) / k) / 2.0
    c, s = math.cos(2.0 * phi), math.sin(2.0 * phi)
    return np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, -1.0]])


def _rotation_defect(wd, R, seed):
    """max |X(-conj t) - R X(t)| / max |X| over random t in the closed
    upper half-plane, a quarter of them on the real axis."""
    rng = np.random.default_rng(seed)
    smax = max(1.0, max(wd.prevertices.values))
    t = rng.uniform(-3.0, 3.0, 40) * smax + 1j * rng.uniform(0.0, 2.0, 40) * smax
    t[::4] = t[::4].real
    base = 1.7j
    X = zz.evaluate_surface(wd, t, base)
    X_mirror = zz.evaluate_surface(wd, -np.conj(t), base)
    return np.max(np.abs(X_mirror - X @ R.T)) / np.max(np.abs(X))


_PK = [(0, 2), (0, 3), (0, 5), (1, 2), (2, 4), (3, 2), (4, 3)]


class TestDiagonalRotation:
    """t -> -conj(t) is a rotation by pi about a horizontal line, the
    x1-axis for genus >= 1."""

    @pytest.mark.parametrize("pk", _PK)
    def test_rotation_identity(self, wd_by_pk, pk):
        R = _expected_rotation(*pk)
        assert _rotation_defect(wd_by_pk[pk], R, seed=pk[0] + 10 * pk[1]) < 1e-13

    @pytest.mark.parametrize("pk", _PK)
    def test_generator_matrix(self, wd_by_pk, pk):
        wd = wd_by_pk[pk]
        mesh = zz.generate_mesh(wd, 1.5 * max(1.0, max(wd.prevertices.values)), 8)
        gens = {g.name: g for g in mesh.symmetries}
        matrix = np.array(gens["diagonal_reflection"].matrix)
        assert np.max(np.abs(matrix - _expected_rotation(*pk))) < 1e-15

    @pytest.mark.parametrize("pk", [(0, 5), (2, 4)])
    def test_matrix_follows_the_scale_phases(self, wd_by_pk, pk):
        # data whose phases differ from build_weierstrass's convention
        spun = _spun(wd_by_pk[pk], 0.3)
        R = weierstrass._diagonal_rotation(spun)
        assert np.max(np.abs(R - _expected_rotation(*pk))) > 0.4
        assert _rotation_defect(spun, R, seed=3) < 1e-13

    @pytest.mark.parametrize("pk", [(0, 3), (1, 2), (4, 3)])
    def test_turned_scale_breaks_it(self, wd_by_pk, pk):
        wd = wd_by_pk[pk]
        turned = dataclasses.replace(wd, scale_sw=wd.scale_sw * cmath.exp(1e-3j))
        assert _rotation_defect(turned, _expected_rotation(*pk), seed=1) > 1e-6
        # dh_scale^2 = -i scale_ne scale_sw fails too, so no mesh is made
        with pytest.raises(ValueError, match="dh_scale"):
            zz.generate_mesh(turned, 1.5 * max(1.0, max(wd.prevertices.values)), 8)


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
