"""Weierstrass data and surface meshes from a reflexive zigzag.

At a reflexive zigzag the two prevertex tuples coincide, so both SC
integrands live on a common half-plane sheet.  With chi_sw and chi_ne the
two (mutually reciprocal) integrands, the three forms

    alpha = e^{-i pi/4} * A * chi_sw(t) dt      (periods 2 e^{-i pi/4}(P_j - P_{j+1}))
    beta  = e^{-i pi/4} * B * chi_ne(t) dt      (conjugate periods)
    dh    = c dt,   c^2 = -i A B

satisfy alpha * beta = dh^2 and define a minimal immersion

    X(t) = Re int (1/2 (alpha - beta), i/2 (alpha + beta), dh)

on the half-plane sheet of the branched cover.  The sheet, the deck
involution and the two reflections generate the full surface; the mesh
generator emits the fundamental piece plus the symmetry generators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotReflexive, PeriodMismatch
from .geometry import VertexChain, build_vertices
from .scmap import (
    ExponentPattern,
    Prevertices,
    _chain_normalization,
    ne_pattern,
    sw_pattern,
)
from . import quadrature as quad

__all__ = [
    "WeierstrassData",
    "SurfaceMesh",
    "SymmetryGenerator",
    "PeriodReport",
    "build_weierstrass",
    "verify_periods",
    "curvature_summary",
    "evaluate_surface",
    "generate_mesh",
    "lattice_ratio",
]

_PHASE = cmath.exp(-1j * math.pi / 4.0)


@dataclass(frozen=True)
class WeierstrassData:
    """Shared prevertices, exponent patterns and scale constants.

    ``scale_sw`` multiplies the SW integrand (the alpha form, which
    develops the vertex chain in direct order), ``scale_ne`` the NE
    integrand (the beta form, reversed order), ``dh_scale`` the height
    differential; dh_scale^2 = -i * scale_ne * scale_sw.
    """

    genus: int
    turn_order: int
    prevertices: Prevertices
    scale_ne: complex
    scale_sw: complex
    dh_scale: complex
    chain: VertexChain

    @property
    def pattern_ne(self) -> ExponentPattern:
        return ne_pattern(self.genus, self.turn_order)

    @property
    def pattern_sw(self) -> ExponentPattern:
        return sw_pattern(self.genus, self.turn_order)

    def alpha_coefficient(self, t) -> np.ndarray:
        """Pointwise coefficient of alpha against dt."""
        return _PHASE * self.scale_sw * quad.product_value(
            self.prevertices.values, self.pattern_sw.exponents, t
        )

    def beta_coefficient(self, t) -> np.ndarray:
        return _PHASE * self.scale_ne * quad.product_value(
            self.prevertices.values, self.pattern_ne.exponents, t
        )

    def gauss_map(self, t) -> np.ndarray:
        """g = alpha / dh on the half-plane sheet."""
        return self.alpha_coefficient(t) / self.dh_scale

    def metric_factor(self, t) -> np.ndarray:
        """Conformal factor (|g| + 1/|g|) |dh/dt| of the induced metric."""
        g = np.abs(self.gauss_map(t))
        return (g + 1.0 / g) * abs(self.dh_scale)


@dataclass(frozen=True)
class SymmetryGenerator:
    name: str
    description: str
    matrix: tuple[tuple[float, float, float], ...] | None = None


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: np.ndarray          # (n, 3) embedded positions
    triangles: np.ndarray         # (m, 3) vertex indices
    conformal_factor: np.ndarray  # (n,) metric factor per vertex
    parameters: np.ndarray        # (n,) half-plane parameter of each vertex
    symmetries: tuple[SymmetryGenerator, ...]


@dataclass(frozen=True)
class PeriodReport:
    """Quadrature periods against the vertex-chain predictions."""

    alpha_computed: tuple[complex, ...]
    alpha_expected: tuple[complex, ...]
    beta_computed: tuple[complex, ...]
    dh_periods: tuple[float, ...]
    worst_alpha: float
    worst_conjugacy: float
    worst_dh: float

    def max_error(self) -> float:
        return max(self.worst_alpha, self.worst_conjugacy, self.worst_dh)


_REFLEXIVE_TOL = math.sqrt(1e-10)  # sqrt of the default height tolerance


def build_weierstrass(sol) -> WeierstrassData:
    """Weierstrass data of a converged SolutionRecord.

    The NE and SW prevertex tuples must agree within 1e-5, the square root
    of the default height tolerance, relative to the largest prevertex;
    they are averaged into the shared tuple.  Scale constants are fixed by
    developing each integrand onto the vertex chain, and the dh root is
    chosen so the image of (s_0, s_1) under dh is positive real.
    """
    if not sol.converged:
        raise NotReflexive("solution record not converged")
    v_ne = np.asarray(sol.prev_ne.values)
    v_sw = np.asarray(sol.prev_sw.values)
    spread = float(np.max(np.abs(v_ne - v_sw)))
    scale = max(1.0, float(np.max(np.abs(v_ne))))
    if spread > _REFLEXIVE_TOL * scale:
        raise NotReflexive(
            f"prevertex tuples differ by {spread:.3e} "
            f"(tolerance {_REFLEXIVE_TOL * scale:.3e})"
        )
    shared = Prevertices(tuple(0.5 * (v_ne + v_sw)))
    p, k = sol.zigzag.genus, sol.zigzag.turn_order

    if p == 0:
        chain = build_vertices(sol.zigzag)
        scale_sw, scale_ne = 1.0 + 0j, 1j
    else:
        A_sw, _, _, _, chain = _chain_normalization(shared, sw_pattern(p, k))
        A_ne, _, _, _, _ = _chain_normalization(shared, ne_pattern(p, k))
        scale_sw, scale_ne = complex(A_sw), complex(A_ne)

    c2 = -1j * scale_ne * scale_sw
    c = cmath.sqrt(c2)
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        c = -c
    if abs(c.imag) > 1e-8 * abs(c):
        raise NotReflexive(f"dh scale is not positive real: c^2 = {c2}")
    return WeierstrassData(p, k, shared, scale_ne, scale_sw, complex(c), chain)


def _cycle_factor(exponent: float) -> complex:
    """1 - e^{2 pi i e}: period of the two-point cycle relative to the
    developed side; equals 2 for turn order 2."""
    return 1.0 - cmath.exp(2j * math.pi * exponent)


def verify_periods(wd: WeierstrassData, tol: float = 1e-8,
                   dh_tol: float = 1e-10) -> PeriodReport:
    """Quadrature check of the homology periods of alpha, beta and dh.

    For every cycle B_j around (P_j, P_{j+1}), j = -p..p-1:
      (a) int alpha = (1 - e^{2 pi i e_{j+1}}) e^{-i pi/4} (P_j - P_{j+1}),
          which is 2 e^{-i pi/4}(P_j - P_{j+1}) for turn order 2;
      (b) int beta equals the complex conjugate of int alpha;
      (c) dh = c dt is exact on the cover, so its periods vanish once the
          constant obeys the conditions imposed by build_weierstrass:
          c^2 = -i scale_ne scale_sw and c positive real.  ``dh_periods``
          holds the two relative defects |c^2 + i scale_ne scale_sw| / |c|^2
          and |Im c| / |c|.
    Raises PeriodMismatch with the report attached if any check fails.
    """
    chain = wd.chain
    p = wd.genus
    prev = wd.prevertices
    s = np.asarray(prev.values)
    e_sw = wd.pattern_sw.exponents
    e_ne = wd.pattern_ne.exponents

    alpha_comp, alpha_exp, beta_comp = [], [], []
    for j in range(-p, p):
        m = j + p  # interval index
        seg = quad.segment_integral(s, e_sw, s[m], s[m + 1], sing0=m, sing1=m + 1)
        rho = _cycle_factor(e_sw[m + 1])
        alpha_comp.append(_PHASE * wd.scale_sw * rho * (-seg))
        alpha_exp.append(
            rho * _PHASE * (chain.vertex(j) - chain.vertex(j + 1))
        )
        seg_ne = quad.segment_integral(s, e_ne, s[m], s[m + 1], sing0=m, sing1=m + 1)
        rho_ne = _cycle_factor(e_ne[m + 1])
        beta_comp.append(_PHASE * wd.scale_ne * rho_ne * (-seg_ne))

    c = wd.dh_scale
    dh_per = (abs(c * c + 1j * wd.scale_ne * wd.scale_sw) / abs(c) ** 2,
              abs(c.imag) / abs(c))
    worst_alpha = max((abs(a - b) for a, b in zip(alpha_comp, alpha_exp)), default=0.0)
    worst_conj = max(
        (abs(b - np.conj(a)) for a, b in zip(alpha_comp, beta_comp)), default=0.0
    )
    worst_dh = max(dh_per)
    report = PeriodReport(
        tuple(alpha_comp), tuple(alpha_exp), tuple(beta_comp), tuple(dh_per),
        float(worst_alpha), float(worst_conj), float(worst_dh),
    )
    if worst_alpha > tol or worst_conj > tol or worst_dh > dh_tol:
        raise PeriodMismatch(
            f"period checks failed: alpha {worst_alpha:.3e}, "
            f"conjugacy {worst_conj:.3e}, dh {worst_dh:.3e}",
            report,
        )
    return report


def curvature_summary(wd: WeierstrassData) -> tuple[int, float, int]:
    """(deg g, total curvature, winding order) from the divisor structure.

    The Gauss map has simple zeros over the p positive-exponent prevertices
    of the alpha pattern and at the puncture, each of multiplicity k-1 on
    the k-fold cover, so deg g = (p+1)(k-1); the total curvature is
    -4 pi deg g and the end has winding order 2k-1.
    """
    p, k = wd.genus, wd.turn_order
    deg_g = (p + 1) * (k - 1)
    return deg_g, -4.0 * math.pi * deg_g, 2 * k - 1


def lattice_ratio(wd: WeierstrassData):
    """Period ratio of the genus-1 branched torus (genus 1 only)."""
    from .elliptic import cross_ratio_lambda, elliptic_periods

    if wd.genus != 1:
        raise ValueError("lattice ratio is defined for genus 1")
    s = wd.prevertices
    lam = cross_ratio_lambda(s.value(-1), s.value(0), s.value(1), math.inf)
    return elliptic_periods(lam).lattice_ratio


def evaluate_surface(wd: WeierstrassData, t: complex, base: complex = 0.5j) -> np.ndarray:
    """Point of the minimal immersion at half-plane parameter t.

    Integrates (1/2(alpha - beta), i/2(alpha + beta), dh) from ``base``
    along the straight segment to t, with panels graded toward nearby
    prevertices by the one-half rule of quadrature.segment_integral;
    X(base) = 0.  The segment meets the real axis at most at t, so t must
    lie in the closed and ``base`` in the open upper half-plane
    (DomainError otherwise).
    """
    t, base = complex(t), complex(base)
    if t.imag < 0.0 or base.imag <= 0.0:
        raise DomainError(f"need Im t >= 0 and Im base > 0, got t = {t}, base = {base}")
    w1, w2 = _form_integrals(wd, t, base)
    wh = wd.dh_scale * (t - base)
    return np.array([
        (0.5 * (w1 - w2)).real,
        (0.5j * (w1 + w2)).real,
        wh.real,
    ])


def _form_integrals(wd: WeierstrassData, t: complex, base: complex):
    """Integrals of the two developing forms along the segment base -> t;
    a t on a prevertex gets a Gauss-Jacobi end panel."""
    s = np.asarray(wd.prevertices.values)
    sing = next((i for i, sm in enumerate(s) if abs(t - sm) < 1e-15), None)
    tot_sw = quad.segment_integral(s, wd.pattern_sw.exponents, base, t, sing1=sing)
    tot_ne = quad.segment_integral(s, wd.pattern_ne.exponents, base, t, sing1=sing)
    return _PHASE * wd.scale_sw * tot_sw, _PHASE * wd.scale_ne * tot_ne


def _symmetry_generators(wd: WeierstrassData) -> tuple[SymmetryGenerator, ...]:
    return (
        SymmetryGenerator(
            "deck_involution",
            "sheet swap of the branched cover; rotation by pi about the vertical axis",
            ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)),
        ),
        SymmetryGenerator(
            "boundary_reflection",
            "complex conjugation of the parameter; reflection in a vertical plane",
        ),
        SymmetryGenerator(
            "diagonal_reflection",
            "parameter map t -> -conj(t) fixing the prevertex symmetry; "
            "reflection exchanging the two complementary domains",
        ),
    )


def generate_mesh(wd: WeierstrassData, radius: float, resolution: int) -> SurfaceMesh:
    """Triangulated image of the half-disk of the given radius.

    Polar grid with angular nodes clustered toward the real axis (where
    the prevertices sit) and radial rings through the prevertex moduli;
    nodes landing on a prevertex are nudged into the interior.  Vertices
    are integrated from the base point 0.5i * radius.  Requires a finite
    radius > max prevertex and resolution >= 8.
    """
    s = np.asarray(wd.prevertices.values)
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    if radius <= float(np.max(np.abs(s))):
        raise ValueError("radius must exceed the largest prevertex")
    base = 0.5j * radius

    n_r, n_th = resolution, 2 * resolution
    rows = [np.array([0.0 + 1e-3j * radius / resolution])]
    radii = _graded_radii(radius, n_r, s)
    theta = math.pi * (1.0 - np.cos(np.linspace(0.0, math.pi, n_th + 1))) / 2.0
    nudge = 1e-3 * radius / resolution
    for r in radii:
        ring = r * np.exp(1j * theta)
        ring.imag = np.maximum(ring.imag, 0.0)
        close = np.min(np.abs(ring[:, None] - s[None, :]), axis=1) < nudge
        ring = np.where(close, ring + 1j * nudge, ring)
        rows.append(ring)

    params = np.concatenate(rows)
    triangles = _fan_and_strip_triangles(len(rows[0]), len(radii), n_th + 1)

    vertices = np.asarray([evaluate_surface(wd, t, base) for t in params])
    factor = wd.metric_factor(params)
    return SurfaceMesh(vertices, triangles, np.asarray(factor), params,
                       _symmetry_generators(wd))


def _graded_radii(radius: float, n_r: int, s: np.ndarray) -> np.ndarray:
    base = radius * (np.arange(1, n_r + 1) / n_r)
    anchors = np.unique(np.abs(s))
    anchors = anchors[(anchors > 0.0) & (anchors < radius)]
    radii = np.unique(np.concatenate((base, anchors)))
    return radii


def _fan_and_strip_triangles(n_center: int, n_rings: int, ring_size: int) -> np.ndarray:
    tris = []
    first_ring = n_center
    for j in range(ring_size - 1):
        tris.append((0, first_ring + j, first_ring + j + 1))
    for i in range(n_rings - 1):
        a = first_ring + i * ring_size
        b = a + ring_size
        for j in range(ring_size - 1):
            tris.append((a + j, b + j, b + j + 1))
            tris.append((a + j, b + j + 1, a + j + 1))
    return np.asarray(tris, dtype=int)
