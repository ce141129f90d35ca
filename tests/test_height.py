import json
import math
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import zigzag as zz
from zigzag.errors import ZigzagError
from zigzag.scmap import positive_sides


class StepTooLarge(ZigzagError):
    """Finite-difference step too large for the distance to the boundary."""


def grad_height_fd(z, h=1e-5):
    """Central-difference gradient of D along the simplex tangent basis
    e_i - e_{p-1}, i = 0..p-2, the oracle for stationarity at a solution.

    Requires stratum_distance(z) > 2h so that both one-sided perturbations
    stay interior; raises StepTooLarge otherwise.
    """
    z = zz.canonicalize(z)
    p = z.genus
    if p <= 1:
        return ()
    if not zz.stratum_distance(z) > 2.0 * h:
        raise StepTooLarge(f"step {h} too large at stratum distance {zz.stratum_distance(z)}")
    base = np.asarray(z.side_lengths)
    grad = []
    for i in range(p - 1):
        d = np.zeros(p)
        d[i], d[p - 1] = 1.0, -1.0
        zp = zz.ZigzagParams(p, z.turn_order, tuple(base + h * d))
        zm = zz.ZigzagParams(p, z.turn_order, tuple(base - h * d))
        grad.append((zz.height(zp) - zz.height(zm)) / (2.0 * h))
    return tuple(grad)


def handle_ladder(p, k, eps=0.05):
    """The genus-p record by the paper's continuation, the reference for the
    direct solve: from the genus-1 point, insert a handle side of length
    min(eps, 0.9 * stratum_distance / 4) into each solution (add_handle)
    and solve the next genus by minimize from that seed."""
    rec = zz.minimize(zz.ZigzagParams(1, k, (1.0,)))
    for _ in range(2, p + 1):
        handle = min(eps, 0.9 * zz.stratum_distance(rec.zigzag) / 4.0)
        rec = zz.minimize(zz.add_handle(rec, handle))
    return rec


class TestHeight:
    def test_genus0_and_1_vanish(self):
        assert zz.height(zz.ZigzagParams(0, 2, ())) == 0.0
        assert zz.height(zz.ZigzagParams(1, 2, (1.0,))) == 0.0

    def test_positive_off_solution(self):
        assert zz.height(zz.ZigzagParams(2, 2, (0.3, 0.7))) > 1e-4

    def test_record_height_consistent(self, genus2):
        # stored height equals D recomputed from the stored extremal lengths
        total = 0.0
        for en, es in zip(genus2.ext_ne, genus2.ext_sw):
            total += (math.exp(1 / en) - math.exp(1 / es)) ** 2 + (en - es) ** 2
        assert abs(total - genus2.height) < 1e-12

    def test_zero_iff_extremal_lengths_match(self, genus2):
        assert genus2.height < 1e-10
        assert np.max(np.abs(np.subtract(genus2.ext_ne, genus2.ext_sw))) < 1e-9


class TestGradient:
    def test_trivial_genera(self):
        assert grad_height_fd(zz.ZigzagParams(1, 2, (1.0,))) == ()

    def test_step_guard(self):
        z = zz.ZigzagParams(2, 2, (0.99999, 1e-5))
        with pytest.raises(StepTooLarge):
            grad_height_fd(z, h=1e-4)

    def test_stationary_at_solution(self, genus2):
        grad = grad_height_fd(genus2.zigzag, h=1e-5)
        assert np.linalg.norm(grad) < 1e-6

    def test_richardson_consistency(self):
        # FD(h) - FD(h/2) shrinks like O(h^2)
        z = zz.ZigzagParams(2, 2, (0.45, 0.55))
        h = 1e-2
        g1 = np.asarray(grad_height_fd(z, h))
        g2 = np.asarray(grad_height_fd(z, h / 2))
        g3 = np.asarray(grad_height_fd(z, h / 4))
        d12 = np.max(np.abs(g1 - g2))
        d23 = np.max(np.abs(g2 - g3))
        assert d23 < 0.5 * d12  # ratio 1/4 expected, allow slack


class TestMinimize:
    def test_genus1_immediate(self):
        rec = zz.minimize(zz.ZigzagParams(1, 2, (1.0,)))
        assert rec.converged and rec.height == 0.0

    def test_genus2_converges(self, genus2):
        assert genus2.converged
        assert genus2.height < 1e-10
        assert np.max(np.abs(np.subtract(genus2.ext_ne, genus2.ext_sw))) < math.sqrt(1e-10)

    def test_newton_residuals(self, monkeypatch):
        # the record holds max|F| of every Newton point, one kernel call each
        height_mod = sys.modules["zigzag.height"]
        system = height_mod._log_ratio_system
        calls = []
        monkeypatch.setattr(height_mod, "_log_ratio_system",
                            lambda u, rows: calls.append(u) or system(u, rows))
        res = zz.minimize(zz.ZigzagParams(3, 2, (1.0, 1.0, 1.0))).residuals
        assert len(res) == len(calls) >= 2
        assert all(b < a for a, b in zip(res, res[1:]))
        assert res[-1] <= 1e-12
        assert zz.minimize(zz.ZigzagParams(1, 2, (1.0,))).residuals == ()

    def test_record_type_hints_resolve(self):
        assert typing.get_type_hints(zz.SolutionRecord)["prev_ne"] is zz.Prevertices

    @pytest.mark.parametrize("p, k", [(10, 2), (5, 3), (4, 4)])
    def test_direct_solve_matches_handle_ladder(self, p, k):
        # basin guard: the Newton basin of the shared-prevertex solve holds
        # equal sides, the seed farthest from the handle zigzag, and leads to
        # the zigzag the paper's continuation reaches
        rec = zz.continuation_solve(p, k)
        assert rec.height < 1e-10
        reference = handle_ladder(p, k)
        assert reference.converged
        drift = np.max(np.abs(np.subtract(rec.zigzag.side_lengths,
                                          reference.zigzag.side_lengths)))
        assert drift < 1e-9


class TestContinuation:
    def test_ladder_converges(self, ladder5):
        for p in range(2, 6):
            assert ladder5[p].converged
            assert ladder5[p].height < 1e-10

    def test_genus1_k2_unique_chain(self, ladder5):
        chain = zz.build_vertices(ladder5[1].zigzag)
        assert np.allclose(chain.vertices, (1j, 1 + 1j, 1 + 0j), atol=1e-14)

    def test_genus0_trivial(self):
        rec = zz.continuation_solve(0, 5)
        assert rec.converged and rec.height == 0.0

    def test_karcher_k3(self, karcher_k3):
        assert karcher_k3[1].converged and karcher_k3[1].height < 1e-10
        assert karcher_k3[2].converged and karcher_k3[2].height < 1e-10

    def test_deterministic(self, genus2):
        again = zz.continuation_solve(2, 2)
        assert again.zigzag.side_lengths == genus2.zigzag.side_lengths
        assert again.height == genus2.height


class TestSharedPrevertexSolve:
    @pytest.mark.parametrize("k, top", [(2, 10), (3, 5), (4, 4)])
    def test_higher_genus_ladder_certified(self, k, top):
        for p in range(2, top + 1):
            rec = zz.continuation_solve(p, k)
            assert rec.converged and rec.height < 1e-10
            report = zz.verify_periods(zz.build_weierstrass(rec))
            assert report.max_error() <= 1e-8

    def test_matches_nelder_mead_references(self, ladder5, karcher_k3):
        # side lengths found by Nelder-Mead descent on D, stored as files
        data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
        for name, rec in (("p3_k2", ladder5[3]), ("p5_k2", ladder5[5]),
                          ("p2_k3", karcher_k3[2])):
            ref = json.loads((data / f"{name}.json").read_text())
            assert (ref["genus"], ref["turn_order"]) == (rec.zigzag.genus,
                                                         rec.zigzag.turn_order)
            drift = np.max(np.abs(np.subtract(ref["side_lengths"],
                                              rec.zigzag.side_lengths)))
            assert drift < 1e-9


class TestWorkCounter:
    def test_genus5_ladder_residual_evaluations(self, monkeypatch, kernel_plans):
        # deterministic work gate: kernel plans in the direct genus-5 solve,
        # one per Newton point (residual and exact Jacobian together), each
        # summed exactly twice, at _BASE_NODES and twice that; cold
        # parameter solves only for the two certificates of D, with no
        # lower genus solved.
        # integrate_abs is bound at class creation, so it is spied on there
        height_mod = sys.modules["zigzag.height"]
        quad = sys.modules["zigzag.quadrature"]
        solve, integrate = height_mod.solve_parameter_problem, quad.IntervalPlan.integrate_abs
        solves, nodes = [], []

        def counting_solve(*args):
            solves.append(args[0].genus)
            return solve(*args)

        def counting_sums(self, n):
            nodes.append(n)
            return integrate(self, n)

        monkeypatch.setattr(height_mod, "solve_parameter_problem", counting_solve)
        monkeypatch.setattr(quad.IntervalPlan, "integrate_abs", counting_sums)
        assert zz.continuation_solve(5, 2).converged
        assert solves == [5, 5]
        assert 0 < len(kernel_plans) <= 16
        assert nodes == [quad._BASE_NODES, 2 * quad._BASE_NODES] * len(kernel_plans)


class TestIsolationCertificate:
    @pytest.mark.parametrize("k", [2, 3])
    def test_sigma_min_matches_central_differences(self, k):
        # sigma_min of the exact Jacobian of F stored by minimize, against a
        # central-difference Jacobian at the shared tuple (h = 1e-5 in u)
        ladder = {p: zz.continuation_solve(p, k) for p in range(7)}
        assert all(math.isnan(ladder[p].sigma_min) for p in (0, 1))
        for p in range(2, 7):
            rec = ladder[p]
            rows = np.stack((zz.ne_pattern(p, k).exponents, zz.sw_pattern(p, k).exponents))

            def f(u):
                ne, sw = positive_sides(zz.Prevertices.from_positive_gaps(np.exp(u)).gaps, rows)
                return np.log(ne[1:] / ne[0]) - np.log(sw[1:] / sw[0])

            u = np.log(np.diff(rec.prev_ne.values[p + 1:]))
            h = 1e-5
            fd = np.column_stack([(f(u + h * e) - f(u - h * e)) / (2.0 * h)
                                  for e in np.eye(p - 1)])
            sigma = np.linalg.svd(fd, compute_uv=False)[-1]
            assert rec.sigma_min > 0.0
            assert abs(rec.sigma_min - sigma) <= 1e-6 * sigma


class TestProperness:
    def test_boundary_blowup_p3(self):
        # shrink one side toward a stratum through a non-reflexive point;
        # D is eventually increasing along the ray
        base = np.array([0.5, 0.3, 0.2])
        vals = []
        for f in [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]:
            l = base.copy()
            l[0] *= f
            vals.append(zz.height(zz.ZigzagParams(3, 2, tuple(l / l.sum()))))
        tail = vals[-3:]
        assert tail[0] < tail[1] < tail[2]

    @pytest.mark.parametrize("p", [2, 3])
    def test_local_isolation(self, p, ladder5):
        rec = ladder5[p]
        l0 = np.asarray(rec.zigzag.side_lengths)
        for i in range(p - 1):
            for sgn in (1.0, -1.0):
                d = np.zeros(p)
                d[i] = sgn * 1e-3
                d[p - 1] -= sgn * 1e-3
                perturbed = zz.height(zz.ZigzagParams(p, 2, tuple(l0 + d)))
                assert perturbed > rec.height
