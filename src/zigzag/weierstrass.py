"""Weierstrass data and surface meshes from a reflexive zigzag.

At a reflexive zigzag the two prevertex tuples coincide, so both SC
integrands live on a common half-plane sheet, over the shared tuple
whose free gaps above s_1 are the means of those of the NE and SW
solutions (scmap.Prevertices).  With chi_sw and chi_ne the two
(mutually reciprocal) integrands, the three forms

    alpha = e^{-i pi/4} * A * chi_sw(t) dt      (periods 2 e^{-i pi/4}(P_j - P_{j+1}))
    beta  = e^{-i pi/4} * B * chi_ne(t) dt      (conjugate periods)
    dh    = c dt,   c^2 = -i A B

satisfy alpha * beta = dh^2 and define a minimal immersion

    X(t) = Re int (1/2 (alpha - beta), i/2 (alpha + beta), dh)

on the half-plane sheet of the branched cover.  The sheet, the deck
involution and the two reflections generate the full surface; the mesh
generator emits the fundamental piece plus the symmetry generators.  The
parameter map t -> -conj(t) acts on the piece as a rotation by pi about a
horizontal line, X(-conj t) = R X(t) (R = diag(1, -1, -1) for genus >= 1),
so the mesh integrates only the quarter-disk Re t >= 0 and rotates it
into the other half.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotReflexive, PeriodMismatch
from .geometry import VertexChain, build_vertices
from .height import _D_TOL
from .scmap import Prevertices, _developments, _directions, ne_pattern, sw_pattern
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
    differential; dh_scale^2 = -i * scale_ne * scale_sw.  ``chain`` is
    build_vertices of the solved zigzag, fresh or loaded from a file, and
    the alpha periods are checked against it.
    """

    genus: int
    turn_order: int
    prevertices: Prevertices
    scale_ne: complex
    scale_sw: complex
    dh_scale: complex
    chain: VertexChain

    @property
    def rows(self) -> np.ndarray:
        """(2, 2p+1) exponents of the SW (alpha) and NE (beta) integrands."""
        return np.stack((sw_pattern(self.genus, self.turn_order).exponents,
                         ne_pattern(self.genus, self.turn_order).exponents))

    def alpha_coefficient(self, t) -> np.ndarray:
        """Pointwise coefficient of alpha against dt."""
        return _PHASE * self.scale_sw * quad.product_value(
            self.prevertices.values, self.rows[0], t
        )

    def beta_coefficient(self, t) -> np.ndarray:
        return _PHASE * self.scale_ne * quad.product_value(
            self.prevertices.values, self.rows[1], t
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


_REFLEXIVE_TOL = math.sqrt(_D_TOL)  # sqrt of the height certificate bar


def build_weierstrass(sol) -> WeierstrassData:
    """Weierstrass data of a converged SolutionRecord.

    The NE and SW prevertex tuples must agree within 1e-5, the square root
    of the height certificate bar 1e-10, relative to the largest prevertex;
    their free gaps are averaged into the shared tuple.  The chain is
    build_vertices of the solved zigzag, as weierstrass_from_solution takes
    it from a file, so a record and its file are checked alike, and
    verify_periods fails a zigzag its tuple does not develop.  Only the
    scales come from the developments of both integrands on the shared
    tuple, from one kernel call with the tuple stacked twice, rows SW and
    NE, each scale bit for bit that of its integrand alone
    (scmap._developments): the phases of A_ne and A_sw are fixed by (p, k)
    so that c^2 = -i A_ne A_sw is positive real for every tuple, and the
    principal root c is positive real: the image of (s_0, s_1) under dh.
    """
    if not sol.converged:
        raise NotReflexive("solution record not converged")
    ne, sw = sol.prev_ne, sol.prev_sw
    spread = float(np.max(np.abs(np.subtract(ne.values, sw.values))))
    scale = max(1.0, ne.values[-1])
    if spread > _REFLEXIVE_TOL * scale:
        raise NotReflexive(
            f"prevertex tuples differ by {spread:.3e} "
            f"(tolerance {_REFLEXIVE_TOL * scale:.3e})"
        )
    p, k = sol.zigzag.genus, sol.zigzag.turn_order
    shared = Prevertices(p, 0.5 * np.add(ne.free, sw.free))
    chain = build_vertices(sol.zigzag)
    if p == 0:
        scale_sw, scale_ne = 1.0 + 0j, 1j
    else:
        (a_sw, _, _), (a_ne, _, _) = _developments(shared, (sw_pattern(p, k), ne_pattern(p, k)))
        scale_sw, scale_ne = complex(a_sw), complex(a_ne)

    c = cmath.sqrt(-1j * scale_ne * scale_sw)
    return WeierstrassData(p, k, shared, scale_ne, scale_sw, c, chain)


def _dh_defects(wd: WeierstrassData) -> tuple[float, float]:
    """|c^2 + i scale_ne scale_sw| / |c|^2 and |Im c| / |c| for c = dh_scale,
    both infinite for c = 0."""
    c = wd.dh_scale
    if c == 0:
        return math.inf, math.inf
    return (abs(c * c + 1j * wd.scale_ne * wd.scale_sw) / abs(c) ** 2,
            abs(c.imag) / abs(c))


def _cycle_factor(exponents: np.ndarray) -> np.ndarray:
    """1 - e^{2 pi i e}: period of the two-point cycle relative to the
    developed side; equals 2 for turn order 2."""
    return 1.0 - np.exp(2j * math.pi * exponents)


_PERIOD_TOL = 1e-8  # alpha periods and their conjugacy with beta
_DH_TOL = 1e-10  # relative defects of the dh constant


def verify_periods(wd: WeierstrassData) -> PeriodReport:
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
    The cycle integrals come from the 2p real intervals (s_m, s_{m+1}) of
    the stored gaps: their lengths, both forms in one
    quadrature.interval_abs_integral call certified to 1e-12 relative,
    times their scmap._directions and 1 - e^{2 pi i e_{m+1}}.  The alpha
    and conjugacy checks pass within 1e-8 absolute, the dh defects within
    1e-10.  Raises PeriodMismatch with the report attached if any check
    fails.
    """
    rows, m = wd.rows, np.arange(2 * wd.genus)
    rho = _cycle_factor(rows[:, m + 1])  # SW and NE
    scale = _PHASE * np.array([[wd.scale_sw], [wd.scale_ne]])
    steps = quad.interval_abs_integral(wd.prevertices.gaps, rows, m) * _directions(rows)
    alpha_comp, beta_comp = scale * rho * -steps
    v = np.asarray(wd.chain.vertices, dtype=complex)
    alpha_exp = rho[0] * _PHASE * (v[:-1] - v[1:])
    dh_per = _dh_defects(wd)
    worst_alpha = np.max(np.abs(alpha_comp - alpha_exp), initial=0.0)
    worst_conj = np.max(np.abs(beta_comp - np.conj(alpha_comp)), initial=0.0)
    worst_dh = max(dh_per)
    report = PeriodReport(
        tuple(alpha_comp), tuple(alpha_exp), tuple(beta_comp), tuple(dh_per),
        float(worst_alpha), float(worst_conj), float(worst_dh),
    )
    if worst_alpha > _PERIOD_TOL or worst_conj > _PERIOD_TOL or worst_dh > _DH_TOL:
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


def evaluate_surface(wd: WeierstrassData, t, base=0.5j) -> np.ndarray:
    """Differences X(t) - X(base) of the minimal immersion.

    Integrates (1/2(alpha - beta), i/2(alpha + beta), dh) from ``base``
    along the straight segment to each t, with panels graded toward nearby
    prevertices by the one-half rule of quadrature.segment_integral, which
    gives a t on a prevertex its Gauss-Jacobi end panel, all segments and
    both forms in one blocked kernel call.  ``base`` is one point, so that
    X(base) = 0 and the result is X(t), or an array broadcasting against
    ``t``, one base per segment.  A segment meets the real axis at most at
    t, so every t must lie in the closed and every base in the open upper
    half-plane (DomainError otherwise).  Returns the broadcast shape of t
    and base followed by the 3 coordinates: (3,) for scalars.
    """
    t = np.asarray(t, dtype=complex)
    base = np.asarray(base, dtype=complex)
    off = base.imag <= 0.0
    if off.any():
        raise DomainError(f"need Im base > 0, got base = {base[off][0]}")
    below = t.imag < 0.0
    if below.any():
        raise DomainError(f"need Im t >= 0, got t = {t[below][0]}")
    sw, ne = quad.segment_integral(wd.prevertices.values, wd.rows, base, t)
    w1, w2 = _PHASE * wd.scale_sw * sw, _PHASE * wd.scale_ne * ne
    wh = wd.dh_scale * (t - base)
    return np.stack([
        (0.5 * (w1 - w2)).real,
        (0.5j * (w1 + w2)).real,
        wh.real,
    ], axis=-1)


def _diagonal_rotation(wd: WeierstrassData) -> np.ndarray:
    """The matrix R with X(-conj t) = R X(t); see generate_mesh.

    With lambda = i e^{i pi E_sw} scale_sw / conj(scale_sw), R maps
    x1 + i x2 to conj(lambda) conj(x1 + i x2) and x3 to -x3.  Raises
    ValueError unless the dh constant passes the defect bar of
    verify_periods, on which the rotation rests.
    """
    defects = _dh_defects(wd)
    if max(defects) > _DH_TOL:
        raise ValueError(
            "t -> -conj(t) is a rotation only for a real dh_scale c with "
            f"c^2 = -i scale_ne scale_sw; defects {defects[0]:.3e}, {defects[1]:.3e}"
        )
    e_sw = float(np.sum(wd.rows[0]))
    lam = cmath.exp(1j * math.pi * (e_sw + 0.5)) * wd.scale_sw / wd.scale_sw.conjugate()
    lam /= abs(lam)  # |lam| = 1 up to roundoff; keep R orthogonal
    return np.array([[lam.real, -lam.imag, 0.0],
                     [-lam.imag, -lam.real, 0.0],
                     [0.0, 0.0, -1.0]])


def _symmetry_generators(wd: WeierstrassData,
                         rotation: np.ndarray) -> tuple[SymmetryGenerator, ...]:
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
            "rotation by pi about the horizontal line through X(base) that is "
            "the image of the imaginary axis",
            tuple(tuple(row) for row in rotation.tolist()),
        ),
    )


def generate_mesh(wd: WeierstrassData, radius: float, resolution: int) -> SurfaceMesh:
    """Triangulated image of the half-disk of the given radius.

    Polar grid with angular nodes clustered toward the real axis (where
    the prevertices sit) and radial rings through the prevertex moduli;
    nodes landing on a prevertex are nudged into the interior.  Only the
    centre and the columns 0 <= theta <= pi/2 of each ring are integrated,
    by one evaluate_surface call, so both forms of these vertices go
    through one call of the blocked segment kernel.  Its segments run from
    the base point 0.5i * radius to the centre and to the theta = pi/2
    vertex of each ring, and on each ring along the chord from column
    j + 1 to column j; a ring's vertices are the cumulative sums of its
    chords from the imaginary axis toward theta = 0.  A short chord, no
    longer than its clearance to the prevertices at its midpoint, is one
    Gauss-Legendre panel, where a segment from the base is graded again
    toward each vertex near the real axis.  Every segment is certified
    by segment_integral, almost all by an a priori bound on their 12-node
    sums and the rest by 12 against 24 nodes, so a vertex's error bound is
    the sum of its segments' bounds, proven where each of them is.  Each column
    theta > pi/2 takes the parameter -conj(t) of its mirror t, exactly,
    and the vertex R X(t).

    Why R: s_{-j} = -s_j and e_{-j} = e_j give chi(-conj t) =
    e^{i pi E} conj(chi(t)), E = sum of the exponents, and the segment
    from the base b = -conj(b) to -conj(t) is the image of the one to t,
    so each developing form obeys W(-conj t) = lambda conj(W(t)) with
    lambda = i e^{i pi E} A / conj(A) for its scale A.  E_ne = -E_sw, so
    lambda_ne lambda_sw = -A_ne A_sw / conj(A_ne A_sw) = c^2 / conj(c)^2
    when c^2 = -i A_ne A_sw, which is 1 for a real c.  Then x1 + i x2 =
    (conj(W_sw) - W_ne) / 2 maps to conj(lambda_sw) conj(x1 + i x2), and
    x3 = Re(c (t - b)) to -x3: the rotation by pi about the horizontal
    line at angle -arg(lambda_sw) / 2 to the x1-axis.  For genus >= 1 the
    vertex chain obeys P_{-j} - P_0 = i conj(P_j - P_0); the side P_0 P_1
    maps to P_0 P_{-1} as z -> i lambda_sw conj(z), so lambda_sw = 1 and
    R = diag(1, -1, -1).  At genus 0 build_weierstrass sets scale_sw = 1,
    so lambda_sw = i e^{i pi E_sw}, which is 1 only for turn order 2.
    R is taken from the data by _diagonal_rotation, which raises
    ValueError unless c is real with c^2 = -i A_ne A_sw.  Requires a
    finite radius > max prevertex and resolution >= 8.
    """
    s = np.asarray(wd.prevertices.values)
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    if radius <= float(np.max(np.abs(s))):
        raise ValueError("radius must exceed the largest prevertex")
    base = 0.5j * radius
    rotation = _diagonal_rotation(wd)

    n = resolution  # column n is the imaginary axis, column 2n the negative real axis
    centre = np.array([0.0 + 1e-3j * radius / resolution])
    radii = _graded_radii(radius, n, s)
    theta = math.pi * (1.0 - np.cos(np.linspace(0.0, math.pi, 2 * n + 1))) / 2.0
    right = radii[:, None] * np.exp(1j * theta[: n + 1])
    nudge = 1e-3 * radius / resolution
    close = np.min(np.abs(right[..., None] - s), axis=-1) < nudge
    right = np.where(close, right + 1j * nudge, right)

    n_r = len(radii)
    X = evaluate_surface(wd, np.concatenate((centre, right[:, n], right[:, :n].ravel())),
                         np.concatenate((np.full(1 + n_r, base), right[:, 1:].ravel())))
    chords = X[1 + n_r:].reshape(n_r, n, 3)  # X(column j) - X(column j + 1)
    right_X = np.cumsum(np.concatenate((X[1:1 + n_r, None], chords[:, ::-1]), axis=1),
                        axis=1)[:, ::-1]
    rings = np.concatenate((right, -np.conj(right[:, n - 1:: -1])), axis=1)
    ring_X = np.concatenate((right_X, right_X[:, n - 1:: -1] @ rotation.T), axis=1)

    params = np.concatenate((centre, rings.ravel()))
    vertices = np.concatenate((X[:1], ring_X.reshape(-1, 3)))
    triangles = _fan_and_strip_triangles(len(centre), len(radii), 2 * n + 1)
    factor = wd.metric_factor(params)
    return SurfaceMesh(vertices, triangles, np.asarray(factor), params,
                       _symmetry_generators(wd, rotation))


def _graded_radii(radius: float, n_r: int, s: np.ndarray) -> np.ndarray:
    base = radius * (np.arange(1, n_r + 1) / n_r)
    anchors = np.unique(np.abs(s))
    anchors = anchors[(anchors > 0.0) & (anchors < radius)]
    radii = np.unique(np.concatenate((base, anchors)))
    return radii


def _fan_and_strip_triangles(n_center: int, n_rings: int, ring_size: int) -> np.ndarray:
    """Triangles of the mesh: a fan from vertex 0 to the first ring, then
    between rings i and i + 1 the pair (a, b, b + 1), (a, b + 1, a + 1) at
    each column, ring by ring and column by column."""
    j = np.arange(ring_size - 1)
    fan = np.stack((np.zeros_like(j), n_center + j, n_center + j + 1), axis=1)
    a = (n_center + ring_size * np.arange(n_rings - 1))[:, None] + j
    b = a + ring_size
    strip = np.stack((a, b, b + 1, a, b + 1, a + 1), axis=-1).reshape(-1, 3)
    return np.concatenate((fan, strip))
