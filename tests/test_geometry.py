import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zigzag as zz
from zigzag.errors import DegenerateSide, EpsTooLarge
from zigzag.geometry import ray_direction, segment_directions


def lengths(p, min_l=0.02):
    return st.lists(
        st.floats(min_value=min_l, max_value=1.0), min_size=p, max_size=p
    )


class TestCanonicalize:
    def test_rescales_to_unit_sum(self):
        z = zz.canonicalize(zz.ZigzagParams(2, 2, (2.0, 2.0)))
        assert z.side_lengths == (0.5, 0.5)

    def test_single_side(self):
        assert zz.canonicalize(zz.ZigzagParams(1, 2, (1.0,))).side_lengths == (1.0,)

    def test_three_to_one(self):
        z = zz.canonicalize(zz.ZigzagParams(2, 2, (3.0, 1.0)))
        assert z.side_lengths == (0.75, 0.25)

    @given(lengths(3))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, ls):
        z = zz.canonicalize(zz.ZigzagParams(3, 2, tuple(ls)))
        z2 = zz.canonicalize(z)
        assert np.allclose(z.side_lengths, z2.side_lengths, rtol=0, atol=1e-15)
        assert math.isclose(sum(z.side_lengths), 1.0, rel_tol=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(DegenerateSide):
            zz.ZigzagParams(2, 2, (0.5, 0.0))


class TestStratumDistance:
    @pytest.mark.parametrize(
        "ls,expected", [((0.5, 0.5), 0.5), ((0.99, 0.01), 0.01), ((1.0,), 1.0)]
    )
    def test_examples(self, ls, expected):
        z = zz.ZigzagParams(len(ls), 2, ls)
        assert math.isclose(zz.stratum_distance(z), expected, rel_tol=1e-12)

    def test_genus0_has_no_strata(self):
        assert zz.stratum_distance(zz.ZigzagParams(0, 2, ())) == math.inf

    def test_uses_canonical_representative(self):
        z = zz.ZigzagParams(2, 2, (2.0, 6.0))
        assert math.isclose(zz.stratum_distance(z), 0.25, rel_tol=1e-12)


class TestBuildVertices:
    def test_genus1_chain(self):
        chain = zz.build_vertices(zz.ZigzagParams(1, 2, (1.0,)))
        assert np.allclose(chain.vertices, (1j, 1 + 1j, 1 + 0j), atol=1e-15)
        assert chain.ray_in == 1j and chain.ray_out == 1 + 0j

    def test_genus0_is_the_two_axes(self):
        chain = zz.build_vertices(zz.ZigzagParams(0, 2, ()))
        assert chain.vertices == ()
        assert chain.ray_in == 1j and chain.ray_out == 1 + 0j

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_genus2_axis_parallel(self, a):
        chain = zz.build_vertices(zz.ZigzagParams(2, 2, (a, 1 - a)))
        p0, p1, p2 = chain.vertex(0), chain.vertex(1), chain.vertex(2)
        assert abs(p1.imag - p0.imag) < 1e-14          # I_0 horizontal
        assert abs((p1 - p2).real) < 1e-14             # I_1 vertical
        assert abs(p2 - 1.0) < 1e-14

    @given(lengths(4))
    @settings(max_examples=40, deadline=None)
    def test_reflection_symmetry(self, ls):
        chain = zz.build_vertices(zz.ZigzagParams(4, 2, tuple(ls)))
        v = np.asarray(chain.vertices)
        assert np.max(np.abs(v - 1j * np.conj(v[::-1]))) < 1e-12

    @given(lengths(3), st.floats(min_value=0.1, max_value=9.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, ls, scale):
        z1 = zz.ZigzagParams(3, 2, tuple(ls))
        z2 = zz.ZigzagParams(3, 2, tuple(scale * l for l in ls))
        c1, c2 = zz.build_vertices(z1), zz.build_vertices(z2)
        assert np.allclose(c1.vertices, c2.vertices, atol=1e-12)

    @given(lengths(5))
    @settings(max_examples=40, deadline=None)
    def test_k2_staircase_monotone(self, ls):
        chain = zz.build_vertices(zz.ZigzagParams(5, 2, tuple(ls)))
        v = np.asarray(chain.vertices)
        assert np.all(np.diff(v.real) >= -1e-15)
        assert np.all(np.diff(v.imag) <= 1e-15)

    @given(st.integers(2, 50), st.integers(1, 10).flatmap(
        lambda p: st.lists(st.floats(-6.0, 6.0), min_size=p, max_size=p)))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_monotone_along_bisector(self, k, log_sides):
        # the turns alternate, so every edge and both rays run in one of two
        # directions pi*(1 - 1/k) apart: the arc is monotone along their
        # bisector, hence embedded, and always admits the diagonal
        # normalization, whatever the side ratios
        z = zz.ZigzagParams(len(log_sides), k, tuple(10.0 ** x for x in log_sides))
        chain = zz.build_vertices(z)
        bisector = chain.ray_out * np.exp(-0.5j * math.pi * (1 - 1 / k))
        edges = np.concatenate(([-chain.ray_in], np.diff(chain.vertices), [chain.ray_out]))
        assert np.all((edges * np.conj(bisector)).real > 0.0)
        walk_end = np.sum(np.asarray(zz.canonicalize(z).side_lengths) * segment_directions(z))
        assert walk_end.real - walk_end.imag > 0.0

    def test_turn_angles_general_k(self):
        for k in (2, 3, 5):
            chain = zz.build_vertices(zz.ZigzagParams(3, k, (0.2, 0.5, 0.3)))
            v = np.asarray(chain.vertices)
            dirs = np.diff(v)
            dirs = np.concatenate(([-(chain.ray_in)], dirs, [chain.ray_out]))
            theta = math.pi * (1 - 1 / k)
            for d0, d1 in zip(dirs[:-1], dirs[1:]):
                turn = np.angle(d1 / d0)
                assert math.isclose(abs(turn), theta, rel_tol=1e-10)

    def test_k3_embedded(self):
        chain = zz.build_vertices(zz.ZigzagParams(2, 3, (0.5, 0.5)))
        assert len(chain.vertices) == 5

    def test_ray_direction_k2_is_east(self):
        assert abs(ray_direction(2) - 1.0) < 1e-15

    def test_segment_directions_alternate(self):
        dirs = segment_directions(zz.ZigzagParams(4, 2, (0.25,) * 4))
        assert np.allclose(dirs, [1, -1j, 1, -1j], atol=1e-15)


class TestAddHandle:
    def test_from_genus1(self, ladder5):
        z = zz.add_handle(ladder5[1], 0.05)
        assert z.genus == 2
        assert np.allclose(z.side_lengths, (0.05 / 1.05, 1.0 / 1.05), atol=1e-15)

    def test_from_genus0(self, ladder5):
        z = zz.add_handle(ladder5[0], 0.1)
        assert z.genus == 1 and z.side_lengths == (1.0,)

    def test_eps_zero_rejected(self, ladder5):
        with pytest.raises(EpsTooLarge):
            zz.add_handle(ladder5[1], 0.0)

    def test_eps_above_bound_rejected(self, ladder5):
        with pytest.raises(EpsTooLarge):
            zz.add_handle(ladder5[1], 0.3)

    @given(st.floats(min_value=1e-4, max_value=0.05))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_recovers_parent(self, ladder5, eps):
        parent = ladder5[3]
        grown = zz.add_handle(parent, eps)
        trimmed = zz.canonicalize(
            zz.ZigzagParams(3, 2, grown.side_lengths[1:])
        )
        assert np.allclose(
            trimmed.side_lengths, parent.zigzag.side_lengths, atol=1e-12
        )
