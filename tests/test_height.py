import gc
import json
import math
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zigzag as zz
from zigzag.errors import DomainError, NoConvergence, QuadratureFailure, ZigzagError
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
        side_system = height_mod._side_system
        calls = []

        def counted(rows, residual):
            system = side_system(rows, residual)
            return lambda u: calls.append(u) or system(u)

        monkeypatch.setattr(height_mod, "_side_system", counted)
        res = zz.minimize(zz.ZigzagParams(3, 2, (1.0, 1.0, 1.0))).residuals
        assert len(res) == len(calls) >= 2
        assert all(b < a for a, b in zip(res, res[1:]))
        assert res[-1] <= 1e-12
        assert zz.minimize(zz.ZigzagParams(1, 2, (1.0,))).residuals == ()

    def test_random_seeds_end_in_a_solution_or_no_convergence(self):
        # log-uniform sides in [1e-3, 1]: a full Newton step may take the
        # log-gaps far out, even past the floating-point range, and the
        # kernel refuses such gaps with DomainError; NoConvergence is the
        # only failure that leaves minimize
        rng = np.random.default_rng(0)
        other = []
        for p, k in [(3, 2), (5, 2), (8, 2), (12, 2), (5, 3), (8, 4)]:
            for i in range(40):
                sides = tuple(np.exp(rng.uniform(math.log(1e-3), 0.0, p)))
                try:
                    zz.minimize(zz.ZigzagParams(p, k, sides))
                except NoConvergence:
                    pass
                except Exception as exc:  # collected, so that all are reported
                    other.append((p, k, i, repr(exc)))
        assert other == []

    def test_step_to_huge_gaps_stalls(self):
        # sample 5 of (5, 2) above: the first full step takes the outer gaps
        # to about 1e25, where max|F| does not decrease; building a tuple of
        # such prevertices raised ValueError
        sides = (0.5368795786727685, 0.0013464823523303172, 0.2938453621776212,
                 0.017625932885228995, 0.30861139369028356)
        with pytest.raises(NoConvergence) as err:
            zz.minimize(zz.ZigzagParams(5, 2, sides))
        assert len(err.value.trace) == 1

    @pytest.mark.parametrize("p, sides, cause", [
        # sample 10 of (8, 2) above: the second step takes a log-gap past
        # 709, so exp(u) overflows to an infinite gap
        (8, (0.004041143588593788, 0.6512014005218734, 0.00192455370687037,
             0.001034423182483406, 0.00930598634606576, 0.9380676402569461,
             0.006224226455459344, 0.3105151516757057), DomainError),
        # sample 39 of (12, 2): the gaps stay finite and the sides reach
        # 1.3e192, where the product conj(I) dI of a complex chain overflowed;
        # the real chain sign(I) dI stays finite, and the point stalls
        # because it does not reduce max|F|
        (12, (0.002751062569953813, 0.0014402907490359644, 0.31021082561994445,
              0.015543487306589087, 0.39484371388737277, 0.17064532865985751,
              0.0040076712583489065, 0.0017965275752332963, 0.003266417977932632,
              0.030460743065867678, 0.011837075528668538, 0.31328970912912835), None),
    ], ids=["exp", "multiply"])
    def test_overflowing_step_stalls_without_a_warning(self, p, sides, cause):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence) as err:
                zz.minimize(zz.ZigzagParams(p, 2, sides))
        assert len(err.value.trace) == 2
        if cause is None:
            assert err.value.__cause__ is None
        else:
            assert isinstance(err.value.__cause__, cause)

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
    """Deterministic node-work gate: every kernel plan of a direct solve is
    summed once at _BASE_NODES, and the 12-against-24 certificate sums at
    twice that only the plan of the point each solve returns: the shared
    solve and the stacked NE and SW cold solves of D, whatever the genus."""

    @staticmethod
    def counted_solve(monkeypatch, p, k):
        """(record, sums, solves): continuation_solve(p, k), every
        integrate_abs sum as (plan, nodes) in call order and the genus of
        every member of the stacked cold parameter solves."""
        # integrate_abs is bound at class creation, so it is spied on there
        height_mod = sys.modules["zigzag.height"]
        quad = sys.modules["zigzag.quadrature"]
        solve, integrate = height_mod.solve_parameter_problems, quad.IntervalPlan.integrate_abs
        solves, sums = [], []

        def counting_solve(z, patterns):
            solves.extend(z.genus for _ in patterns)
            return solve(z, patterns)

        def counting_sums(self, n):
            sums.append((self, n))
            return integrate(self, n)

        monkeypatch.setattr(height_mod, "solve_parameter_problems", counting_solve)
        monkeypatch.setattr(quad.IntervalPlan, "integrate_abs", counting_sums)
        return zz.continuation_solve(p, k), sums, solves

    @staticmethod
    def check_certified_once(record, sums, plan_count):
        base = sys.modules["zigzag.quadrature"]._BASE_NODES
        coarse = [plan for plan, n in sums if n == base]
        fine = [i for i, (_, n) in enumerate(sums) if n == 2 * base]
        assert record.converged
        assert len(coarse) == len({id(plan) for plan in coarse}) == plan_count
        assert len(fine) == 2 and len(sums) == plan_count + 2
        # each certificate sums the plan of the point just evaluated, the
        # one its solve returns: the shared NE/SW solve, then the stacked
        # cold solves, whose returned gaps are the record's, the NE member
        # on its own row first and the SW member on its own
        assert all(sums[i][0] is sums[i - 1][0] for i in fine)
        shared, cold = (sums[i][0] for i in fine)
        p, k = record.zigzag.genus, record.zigzag.turn_order
        assert shared.rows.shape == (1, 2 * p + 1, 2) and cold.rows.shape == (2, 2 * p + 1, 1)
        assert np.array_equal(cold.rows[:, :, 0], [zz.ne_pattern(p, k).exponents,
                                                   zz.sw_pattern(p, k).exponents])
        assert np.array_equal(cold.gaps, [record.prev_ne.gaps, record.prev_sw.gaps])

    def test_genus5_ladder_residual_evaluations(self, monkeypatch, kernel_plans):
        # kernel plans in the direct genus-5 solve, one per Newton point
        # (residual and exact Jacobian together): 5 of the shared solve and
        # 4 of the stacked cold solves of D, whose NE and SW members converge
        # at the same point, with no lower genus solved
        post_init = zz.Prevertices.__post_init__
        tuples = []
        monkeypatch.setattr(zz.Prevertices, "__post_init__",
                            lambda self: tuples.append(1) or post_init(self))
        record, sums, solves = self.counted_solve(monkeypatch, 5, 2)
        assert solves == [5, 5]
        # Newton points take gaps, not Prevertices: the tuples are the one
        # the shared solve returns and the two of D's cold solves
        assert len(tuples) == 3
        assert len(record.residuals) == 5 and len(kernel_plans) == 9
        self.check_certified_once(record, sums, len(kernel_plans))

    def test_genus5_layouts(self, interval_layouts, kernel_plans):
        # one interval layout per Newton solve, filled at each of its
        # points: the shared solve (one tuple, both patterns' rows) and the
        # stacked cold solves of D (two tuples, a row each); the fills are
        # the Newton points' kernel plans, and the Weierstrass data of the
        # solved record, scaled from the shared solve's certified sides,
        # add neither a layout nor a plan
        record = zz.continuation_solve(5, 2)
        zz.build_weierstrass(record)
        assert [layout[1:] for layout in interval_layouts] == [
            ((1, 10), (1, 2, 11), True), ((2, 10), (2, 1, 11), True)]
        assert len(kernel_plans) == 9

    def test_no_sum_follows_the_height_certificate(self, monkeypatch, tmp_path):
        # zigzag solve writes the Weierstrass data the record carries: the
        # last sum of the command is the certificate of D's cold solves
        quad = sys.modules["zigzag.quadrature"]
        integrate, sums = quad.IntervalPlan.integrate_abs, []
        monkeypatch.setattr(quad.IntervalPlan, "integrate_abs",
                            lambda self, n: sums.append((self, n)) or integrate(self, n))
        from zigzag.cli import main
        assert main(["solve", "--genus", "5", "--out", str(tmp_path / "p5.json")]) == 0
        data = json.loads((tmp_path / "p5.json").read_text())
        plan, n = sums[-1]
        assert len(sums) == 9 + 2 and n == 2 * quad._BASE_NODES
        assert plan.rows.shape == (2, 11, 1)
        assert np.array_equal(plan.gaps, [data["prev_ne_gaps"], data["prev_sw_gaps"]])
        assert "weierstrass" in data

    def test_no_layout_outlives_its_solve(self, interval_layouts):
        # a layout lives as long as its Newton system: none is kept in a
        # cache once continuation_solve returns, garbage collector or not
        gc.disable()
        try:
            record = zz.continuation_solve(5, 2)
            assert record.converged and len(interval_layouts) == 2
            assert all(ref() is None for ref, *_ in interval_layouts)
        finally:
            gc.enable()

    def test_certified_sums_do_not_depend_on_genus(self, monkeypatch, kernel_plans):
        record, sums, solves = self.counted_solve(monkeypatch, 12, 3)
        assert solves == [12, 12]
        self.check_certified_once(record, sums, len(kernel_plans))


class TestFinalCertificate:
    @pytest.mark.parametrize("nodes", [2, 3, 4])
    def test_too_few_nodes_fail_the_returned_point(self, monkeypatch, nodes):
        # Newton iterates take one rule of _BASE_NODES nodes, uncompared; at
        # 2-4 nodes Newton converges on that rule's inaccurate F, and only
        # the certificate of the point a solve returns (here nodes against
        # twice as many) refuses it, so no record or tuple comes back
        monkeypatch.setattr(sys.modules["zigzag.quadrature"], "_BASE_NODES", nodes)
        z = zz.ZigzagParams(5, 2, (1.0, 0.8, 1.2, 0.9, 1.1))
        for solve in (lambda: zz.continuation_solve(5, 2),
                      lambda: zz.solve_parameter_problem(z, zz.sw_pattern(5, 2))):
            with pytest.raises(NoConvergence) as err:
                solve()
            assert isinstance(err.value.__cause__, QuadratureFailure)
            assert err.value.trace and all(r > 1e-12 for r in err.value.trace)


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
                ne, sw = positive_sides(zz.Prevertices(p, np.exp(u)).gaps, rows)
                return np.log(ne[1:] / ne[0]) - np.log(sw[1:] / sw[0])

            u = np.log(rec.prev_ne.free)
            h = 1e-5
            fd = np.column_stack([(f(u + h * e) - f(u - h * e)) / (2.0 * h)
                                  for e in np.eye(p - 1)])
            sigma = np.linalg.svd(fd, compute_uv=False)[-1]
            assert rec.sigma_min > 0.0
            assert abs(rec.sigma_min - sigma) <= 1e-6 * sigma


def residual_and_height(p, k, free):
    """max|F| of the shared tuple with the free gaps ``free``, F the
    residual of the shared-prevertex solve, and the height D of the zigzag
    its NE sides induce."""
    rows = np.stack((zz.ne_pattern(p, k).exponents, zz.sw_pattern(p, k).exponents))
    ne, sw = positive_sides(zz.Prevertices(p, free).gaps, rows)
    f = float(np.max(np.abs(np.log(ne[1:] / ne[0]) - np.log(sw[1:] / sw[0]))))
    return f, zz.height(zz.ZigzagParams(p, k, tuple(ne / ne.sum())))


@st.composite
def shared_tuples(draw):
    """Genus 2..5, turn order 2 or 3 and p-1 free gaps log-uniform in
    [0.2, 3]: in general not a reflexive tuple."""
    p = draw(st.integers(2, 5))
    k = draw(st.sampled_from([2, 3]))
    u = draw(st.lists(st.floats(math.log(0.2), math.log(3.0)), min_size=p - 1, max_size=p - 1))
    return p, k, np.exp(u)


class TestHeightAgainstResidual:
    """D is a certificate separate from the shared solve: it reads zero
    exactly where the residual F of the shared solve does, and grows as
    max|F|^2 away from it, so it can fail."""

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(shared_tuples())
    def test_free_tuples(self, problem):
        f, d = residual_and_height(*problem)
        assert 1e-3 <= d / f**2 <= 1e3

    @pytest.mark.parametrize("p, k", [(p, k) for k in (2, 3) for p in range(2, 6)])
    def test_solved_tuples_perturbed(self, ladder5, p, k):
        rec = ladder5[p] if k == 2 else zz.continuation_solve(p, k)
        u = np.log(rec.weierstrass.prevertices.free)
        f, d = residual_and_height(p, k, np.exp(u))
        assert f <= 1e-12 and d < 1e-10
        direction = np.random.default_rng(p + 10 * k).normal(size=p - 1)
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            f, d = residual_and_height(p, k, np.exp(u + eps * direction / np.linalg.norm(direction)))
            assert 1e-3 <= d / f**2 <= 1e3, eps


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
