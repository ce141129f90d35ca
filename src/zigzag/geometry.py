"""Symmetric zigzags and their moduli coordinates.

A zigzag of genus p is a properly embedded arc with 2p+1 finite vertices
P_{-p}, ..., P_p, an infinite ray entering at P_{-p} and an infinite ray
leaving at P_p.  Consecutive segments turn alternately left and right by
pi*(1 - 1/k); for turn order k = 2 the segments are axis parallel.  We only
handle zigzags symmetric under reflection across the diagonal {y = x},
i.e. P_j = i * conj(P_{-j}).

The moduli coordinates are the Euclidean lengths l_0 .. l_{p-1} of the
positive-side segments I_j = P_j P_{j+1}, canonicalized to sum to one, so
the moduli space is the open (p-1)-simplex.  Vertex normalization (P_p = 1,
P_{-p} = i, P_0 on the diagonal) is applied only when a concrete vertex
chain is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSide, EpsTooLarge

__all__ = [
    "ZigzagParams",
    "VertexChain",
    "build_vertices",
    "canonicalize",
    "stratum_distance",
    "add_handle",
]


@dataclass(frozen=True)
class ZigzagParams:
    """A point of the genus-p moduli cell.

    ``side_lengths`` holds the p positive lengths (l_0, ..., l_{p-1});
    for p = 0 it is empty and for p = 1 the canonical representative is
    the single entry 1.
    """

    genus: int
    turn_order: int = 2
    side_lengths: tuple[float, ...] = ()

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"genus must be >= 0, got {self.genus}")
        if self.turn_order < 2:
            raise ValueError(f"turn order must be >= 2, got {self.turn_order}")
        if len(self.side_lengths) != self.genus:
            raise ValueError(
                f"expected {self.genus} side lengths, got {len(self.side_lengths)}"
            )
        if any(not (l > 0.0) for l in self.side_lengths):
            raise DegenerateSide(f"side lengths must be positive: {self.side_lengths}")
        object.__setattr__(self, "side_lengths", tuple(float(l) for l in self.side_lengths))


@dataclass(frozen=True)
class VertexChain:
    """Normalized finite vertices plus the two infinite ray directions.

    ``vertices`` lists P_{-p}, ..., P_p (empty for genus 0, where the arc
    is the pair of positive coordinate half-axes meeting at the origin).
    ``ray_in`` is the outward direction of the infinite side attached at
    P_{-p}, ``ray_out`` the outward direction at P_p.
    """

    genus: int
    turn_order: int
    vertices: tuple[complex, ...]
    ray_in: complex
    ray_out: complex

    def vertex(self, j: int) -> complex:
        """P_j for a signed index -p <= j <= p."""
        p = self.genus
        if not -p <= j <= p:
            raise IndexError(f"vertex index {j} out of range for genus {p}")
        return self.vertices[j + p]


def canonicalize(z: ZigzagParams) -> ZigzagParams:
    """Rescale side lengths to sum 1.  Idempotent."""
    if z.genus == 0:
        return z
    total = math.fsum(z.side_lengths)
    return ZigzagParams(z.genus, z.turn_order, tuple(l / total for l in z.side_lengths))


def stratum_distance(z: ZigzagParams) -> float:
    """Distance to the boundary strata: min side length of the canonical
    representative.  Genus 0 has no strata; returns +inf there."""
    if z.genus == 0:
        return math.inf
    total = math.fsum(z.side_lengths)
    return min(z.side_lengths) / total


def ray_direction(turn_order: int) -> complex:
    """Outward direction of the terminal infinite side.

    The diagonal symmetry forces the turn at the central vertex P_0 to be
    +-pi*(1 - 1/k) like every other turn, which pins the terminal ray at
    angle pi/4 - pi/(2k); for k = 2 this is the positive real axis.
    """
    phi = math.pi / 4.0 - math.pi / (2.0 * turn_order)
    return complex(np.exp(1j * phi))


def segment_directions(z: ZigzagParams) -> np.ndarray:
    """Unit directions d_0 .. d_{p-1} of the positive-side segments.

    Anchored at the terminal ray direction; walking backwards, the turn at
    P_{j+1} is by +-pi*(1 - 1/k), with a left turn at P_p.  For k = 2 this
    alternates east and south.
    """
    p, k = z.genus, z.turn_order
    theta = math.pi * (1.0 - 1.0 / k)
    dirs = np.empty(p + 1, dtype=complex)
    dirs[p] = ray_direction(k)
    for j in range(p - 1, -1, -1):
        # turn sign at vertex P_{j+1}: left (+) when p - j - 1 is even
        sign = 1.0 if (p - j - 1) % 2 == 0 else -1.0
        dirs[j] = dirs[j + 1] * np.exp(-1j * theta * sign)
    return dirs[:p]


def build_vertices(z: ZigzagParams) -> VertexChain:
    """Construct the unique normalized vertex chain realizing ``z``.

    Walks from P_0 with the alternating turn rule, then applies the unique
    diagonal translation and positive scaling sending P_p to 1.  The
    negative-side vertices follow from the symmetry P_{-j} = i * conj(P_j).

    The turns alternate, so every edge and both rays run in one of two
    directions pi*(1 - 1/k) < pi apart, with bisector (1 - i)/sqrt(2): the
    arc is strictly monotone along it, hence embedded, and Re - Im of the
    walk to P_p is positive, so the normalization always exists.
    """
    z = canonicalize(z)
    p = z.genus
    ray_out = ray_direction(z.turn_order)
    ray_in = 1j * ray_out.conjugate()
    if p == 0:
        return VertexChain(0, z.turn_order, (), ray_in, ray_out)

    dirs = segment_directions(z)
    walk = np.zeros(p + 1, dtype=complex)
    walk[1:] = np.cumsum(np.asarray(z.side_lengths) * dirs)

    shift = -walk[p].imag
    scale = 1.0 / (walk[p].real - walk[p].imag)
    pos = scale * (walk + shift * (1 + 1j))
    neg = 1j * np.conj(pos[1:][::-1])
    vertices = tuple(neg) + tuple(pos)

    return VertexChain(p, z.turn_order, vertices, ray_in, ray_out)


def add_handle(parent, eps: float) -> ZigzagParams:
    """Genus p zigzag near the stratum where the parent's central vertices
    coalesce: insert a new first side of length ``eps`` into the genus p-1
    solution and renormalize.  This is the paper's continuation step; the
    solver does not take it, since one solve from equal sides reaches the
    same zigzag.

    ``parent`` is a converged SolutionRecord (anything with ``.zigzag`` and
    ``.converged`` attributes).  Requires 0 < eps < stratum_distance/4 of
    the parent zigzag.
    """
    zp = parent.zigzag
    if not parent.converged:
        raise ValueError("parent record is not converged")
    bound = stratum_distance(zp) / 4.0
    if not (0.0 < eps < bound):
        raise EpsTooLarge(f"eps={eps} outside (0, {bound})")
    grown = ZigzagParams(
        zp.genus + 1, zp.turn_order, (float(eps),) + canonicalize(zp).side_lengths
    )
    return canonicalize(grown)
