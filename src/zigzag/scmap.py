"""Schwarz-Christoffel maps of the two complementary zigzag domains.

Both domains of a symmetric genus-p zigzag are conformal images of the
upper half-plane under maps with integrand

    prod_{m=-p}^{p} (t - s_m)^{e_m},     e_m = +-(k-1)/k alternating,

over a symmetric prevertex tuple s_{-p} < ... < s_0 = 0 < s_1 = 1 < ... .
The two complementary domains use negated exponent patterns.  Following
the usual labelling, the NE pattern starts and ends with +(k-1)/k
(p+1 positive entries) and the SW pattern is its negation.

Developed along the real axis, the NE integrand traces the vertex chain in
reversed order (s_j lands on the mirror vertex P_{-j}) and the SW integrand
traces P_{-p}, ..., P_p directly; a complex-linear normalization cannot
swap the two since the raw images are mirror congruent.  ``_development``
matches each developed chain to build_vertices in its own order.  A
solution's Weierstrass data is checked against one chain, build_vertices
of the solved zigzag, whether built fresh or loaded from its file.

The parameter problem here and the shared-prevertex solve of
``height.minimize`` are both posed in log side ratios over log-gaps and
solved by one plain Newton iteration to max|F| <= 1e-12, from the same
seed: gaps proportional to the target sides.  Its Jacobian is exact: the
prevertex derivatives of the side integrals are extra exponent rows on
the panels of the sides, so each Newton point costs one kernel call.
Every real-interval integral takes the tuple's gaps, not its absolute
prevertices, so a gap far below the prevertices loses no digits and F
has no rounding floor above the tolerance.  The shared solve starts from
equal sides, with no nested parameter solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FitFailure, NoConvergence, QuadratureFailure
from .geometry import ZigzagParams, build_vertices, canonicalize
from . import quadrature as quad

__all__ = [
    "ExponentPattern",
    "Prevertices",
    "side_length",
    "positive_sides",
    "solve_parameter_problem",
    "forward_map",
    "periods",
    "coalescence_log_fit",
    "coalescence_deltas",
    "make_coalescing_family",
]


@dataclass(frozen=True)
class ExponentPattern:
    """Alternating exponents e_{-p} .. e_p of one complementary domain."""

    orientation: str  # "NE" or "SW"
    genus: int
    turn_order: int = 2

    def __post_init__(self):
        if self.orientation not in ("NE", "SW"):
            raise ValueError(f"orientation must be NE or SW, got {self.orientation}")
        if self.genus < 0 or self.turn_order < 2:
            raise ValueError("need genus >= 0 and turn order >= 2")

    @property
    def exponents(self) -> np.ndarray:
        p, k = self.genus, self.turn_order
        mag = (k - 1.0) / k
        j = np.arange(-p, p + 1)
        e = np.where((j + p) % 2 == 0, mag, -mag)
        return e if self.orientation == "NE" else -e


def ne_pattern(genus: int, turn_order: int = 2) -> ExponentPattern:
    return ExponentPattern("NE", genus, turn_order)


def sw_pattern(genus: int, turn_order: int = 2) -> ExponentPattern:
    return ExponentPattern("SW", genus, turn_order)


@dataclass(frozen=True)
class Prevertices:
    """Symmetric increasing prevertex tuple s_{-p}, ..., s_p.

    Normalization: s_0 = 0, s_1 = 1 (for p >= 1), s_{-j} = -s_j.  A tuple
    within 1e-12 of symmetric is stored as (v - v[::-1]) / 2, which is
    exactly symmetric with s_0 exactly 0, and then checked for s_1 = 1.
    ``gaps`` holds the 2p gaps s_{m+1} - s_m that every real-interval
    integral takes: exactly those it was built from by
    ``from_positive_gaps``, np.diff(values) when built from values; given
    gaps are stored as (g + g[::-1]) / 2.
    """

    values: tuple[float, ...]
    gaps: tuple[float, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size % 2 != 1:
            raise ValueError("prevertex tuple must have odd length 2p+1")
        p = v.size // 2
        if not np.allclose(v + v[::-1], 0.0, atol=1e-12):
            raise ValueError("prevertices must satisfy s_{-j} = -s_j")
        # exactly symmetric, so that t -> -conj(t) maps the integrands onto
        # each other exactly; given gaps are symmetrized alike
        v = (v - v[::-1]) / 2.0
        gaps = np.diff(v) if not self.gaps else np.asarray(self.gaps, dtype=float)
        gaps = (gaps + gaps[::-1]) / 2.0
        if np.any(np.diff(v) <= 0.0):
            raise ValueError(f"prevertices must be strictly increasing: {v}")
        if p >= 1 and abs(v[p + 1] - 1.0) > 1e-14:
            raise ValueError(f"s_1 must be 1, got {v[p + 1]}")
        object.__setattr__(self, "values", tuple(float(x) for x in v))
        object.__setattr__(self, "gaps", tuple(float(g) for g in gaps))

    @property
    def genus(self) -> int:
        return len(self.values) // 2

    def value(self, j: int) -> float:
        """s_j for a signed index."""
        return self.values[j + self.genus]

    @staticmethod
    def from_positive_gaps(gaps) -> "Prevertices":
        """Build the symmetric tuple from the p-1 gaps above s_1, keeping
        them exact as its gaps."""
        gaps = np.asarray(gaps, dtype=float)
        pos = np.concatenate(([0.0, 1.0], 1.0 + np.cumsum(gaps)))
        return Prevertices(tuple(np.concatenate((-pos[:0:-1], pos))), tuple(_symmetric_gaps(gaps)))


def _symmetric_gaps(gaps) -> np.ndarray:
    """The 2p gaps s_{m+1} - s_m, each exactly as given, of the symmetric
    tuple with the p-1 gaps above s_1 and the unit gaps next to s_0."""
    half = np.concatenate(([1.0], gaps))
    return np.concatenate((half[::-1], half))


def side_length(prev: Prevertices, pat: ExponentPattern, j: int) -> float:
    """Euclidean length of the image of (s_j, s_{j+1}), 0 <= j < p.

    This is the raw modulus integral of the SC integrand over the tuple's
    gaps; no chain normalization is applied.  Relative accuracy 1e-10 or
    better, certified by 12 against 24 nodes (QuadratureFailure otherwise).
    """
    p = prev.genus
    if not 0 <= j < p:
        raise ValueError(f"segment index {j} out of range for genus {p}")
    return quad.interval_abs_integral(prev.gaps, pat.exponents, j + p)


def positive_sides(gaps, exponents) -> np.ndarray:
    """Raw SC side lengths of the p positive-side intervals (s_j, s_{j+1}),
    j = 0..p-1, of the tuple s_{-p}..s_p with the 2p gaps s_{m+1} - s_m,
    under one exponent pattern, or under each row of an (R, 2p+1) stack of
    patterns as an (R, p) array, all from one call of the shared
    quadrature kernel.  The mirror interval (s_{-j-1}, s_{-j}) has the same
    length, since prevertices and exponents are symmetric."""
    p = len(gaps) // 2
    return quad.interval_abs_integral(gaps, exponents, np.arange(p, 2 * p))


def _log_ratios(sides: np.ndarray) -> np.ndarray:
    """Scale-free side coordinates log(sides[1:] / sides[0]), along the last
    axis, in which both the parameter problem and the shared-prevertex
    solve are posed."""
    return np.log(sides[..., 1:] / sides[..., :1])


def _side_jacobian(u, exponents):
    """Raw positive sides (R, p) of the tuple with log-gaps u under each
    row of the (R, 2p+1) stack ``exponents`` and their exact (R, p, p-1)
    Jacobian over u, from one kernel call.

    It chains the log-gap derivatives of quadrature.interval_jacobian:
    d|I| = Re(conj(I) dI) / |I|, and u_i is the log of the gap above
    s_{i+1} and of its mirror below s_{-i-1}.
    """
    p = u.size + 1
    total, dlog = quad.interval_jacobian(_symmetric_gaps(np.exp(u)), exponents, np.arange(p, 2 * p))
    i = np.arange(p - 1)
    d_total = (dlog[:, p + 1 + i] + dlog[:, p - 2 - i]).transpose(0, 2, 1)
    sides = np.abs(total)
    return sides, np.real(np.conj(total)[:, :, None] * d_total) / sides[:, :, None]


def _log_ratio_system(u, exponents):
    """Raw positive sides of the tuple with log-gaps u under each row of
    the (R, 2p+1) stack ``exponents``, their log ratios _log_ratios per row
    and the (R, p-1, p-1) Jacobian of those over u, all from one kernel
    call."""
    sides, d_sides = _side_jacobian(u, exponents)
    d_log = d_sides / sides[:, :, None]
    return sides, _log_ratios(sides), d_log[:, 1:] - d_log[:, :1]


_NEWTON_TOL = 1e-12  # sup norm of the log-ratio residual, shared and cold solves alike


def _newton_solve(system, u0, label: str) -> tuple[np.ndarray, list[float]]:
    """(u, residuals): log-gaps u with max|F(u)| <= _NEWTON_TOL by plain
    Newton, and max|F| at every Newton point, strictly decreasing.

    ``system(u)`` returns F(u) and its exact Jacobian from one kernel call,
    so an accepted step already holds its Jacobian, and on success the
    last evaluation is at the returned u: one call per residual.  Newton
    takes full steps, at most 60.  Raises NoConvergence carrying the
    residuals so far when a step does not reduce max|F|, J is singular or
    the kernel fails or rejects the point (a step so long that a gap
    leaves the floating-point range), or F or J is not finite there, the
    LinAlgError, QuadratureFailure or DomainError chained as its cause.
    """
    residuals = []
    u = np.asarray(u0, dtype=float)

    def evaluate(u):
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the point
            r, J = system(u)
        if not (np.isfinite(r).all() and np.isfinite(J).all()):
            raise DomainError("F or its Jacobian is not finite")
        return r, J

    try:
        r, J = evaluate(u)
        norm = float(np.max(np.abs(r)))
        for _ in range(60):
            residuals.append(norm)
            if norm <= _NEWTON_TOL:
                return u, residuals
            step = np.linalg.solve(J, -r)
            r_new, J_new = evaluate(u + step)
            norm_new = float(np.max(np.abs(r_new)))
            if not norm_new < norm:
                break
            u, r, J, norm = u + step, r_new, J_new, norm_new
    except (np.linalg.LinAlgError, QuadratureFailure, DomainError) as exc:
        raise NoConvergence(f"{label} stalled", residuals) from exc
    raise NoConvergence(f"{label} stalled", residuals)


def solve_parameter_problem(z: ZigzagParams, pat: ExponentPattern) -> Prevertices:
    """Prevertices whose SC side-length ratios match the zigzag's.

    Solves for the p-1 gaps g_j = s_{j+1} - s_j (j >= 1) in logarithmic
    coordinates, which keeps the ordering constraint implicit, starting
    from gaps proportional to the target sides, by the Newton iteration
    of _newton_solve with the exact Jacobian.  Genus 0 and 1 have no
    unknowns.
    """
    z = canonicalize(z)
    p = z.genus
    if p <= 1:
        return Prevertices(tuple(np.arange(-p, p + 1.0)))

    target = _log_ratios(np.asarray(z.side_lengths))
    exps = pat.exponents[None, :]

    def system(u):
        _, ratios, J = _log_ratio_system(u, exps)
        return ratios[0] - target, J[0]

    u, _ = _newton_solve(system, target, f"parameter problem for {z}")
    return Prevertices.from_positive_gaps(np.exp(u))


def _development(prev: Prevertices, pat: ExponentPattern):
    """(A, steps, targets): the development of one SC integrand along the
    real axis and its normalization onto the induced zigzag's vertex chain.

    steps[m] is the raw image of the interval (s_m, s_{m+1}), m = 0..2p-1:
    its length from positive_sides (mirror intervals have equal lengths)
    times its direction, which is pi times the sum of the exponents of the
    prevertices to its right (principal branches from the upper
    half-plane).  targets is build_vertices of the zigzag with these
    sides, in the order the integrand develops it: P_{-p}, ..., P_p for
    SW, P_p, ..., P_{-p} for NE.  A = (targets[p+1] - targets[p]) /
    steps[p] turns and scales the raw image of (s_0, s_1) onto its side,
    so s_m develops onto targets[m] and (s_m, s_{m+1}) onto A * steps[m].
    """
    p = prev.genus
    exps = pat.exponents
    pos = positive_sides(prev.gaps, exps)
    tail = np.cumsum(exps[::-1])[::-1]  # tail[m] = sum of e_i for i >= m
    steps = np.concatenate((pos[::-1], pos)) * np.exp(1j * (tail[1:] * math.pi))
    chain = build_vertices(ZigzagParams(p, pat.turn_order, tuple(pos / np.sum(pos)))).vertices
    targets = np.asarray(chain[::-1] if pat.orientation == "NE" else chain)
    return (targets[p + 1] - targets[p]) / steps[p], steps, targets


def forward_map(prev: Prevertices, pat: ExponentPattern, t: complex) -> complex:
    """Normalized SC image of a point t in the closed upper half-plane.

    The image chain is the targets of _development: build_vertices of the
    induced zigzag, with prevertex s_j on P_j for the SW pattern and on
    the mirror vertex P_{-j} for the NE pattern.  Every t is reached by
    one call of the blocked segment kernel quadrature.segment_integral,
    along the straight segment from the nearest prevertex s_m with
    s_m < Re t (s_{-p} left of the tuple), and maps to targets[m] + A
    times that integral; a t on a prevertex s_j ends the segment from
    s_{j-1} with the Gauss-Jacobi panel of s_j.  That segment passes no
    other prevertex, and its panels shrink toward nearby ones by the
    one-half rule.  Raises DomainError for t below the real axis.
    """
    t = complex(t)
    if t.imag < 0.0:
        raise DomainError(f"t = {t} lies below the real axis")
    A, _, targets = _development(prev, pat)
    s = np.asarray(prev.values)
    m = max(int(np.searchsorted(s, t.real)) - 1, 0)
    return targets[m] + A * quad.segment_integral(s, pat.exponents, s[m], t)


def periods(prev: Prevertices, pat: ExponentPattern) -> tuple[complex, ...]:
    """Normalized complex periods a_j = F(s_{j+1}) - F(s_j), j = 0..p-1,
    of the positive-side segments: A * steps[p + j] of _development.

    Moduli equal the side lengths of the normalized vertex chain; for turn
    order 2 consecutive periods differ in direction by a factor +-i.
    """
    A, steps, _ = _development(prev, pat)
    return tuple(complex(a) for a in A * steps[prev.genus:])


def make_coalescing_family(base: Prevertices, j: int, deltas):
    """Prevertex family collapsing the gap (s_{j+1}, s_{j+2}) to each delta,
    symmetrically, holding every other positive gap fixed."""
    p = base.genus
    if not 0 <= j <= p - 2:
        raise ValueError(f"need 0 <= j <= p-2 so the gap above s_{j + 1} exists")
    gaps = np.array(base.gaps[p:])  # gaps[m] = s_{m+1} - s_m
    members = []
    for d in deltas:
        g = gaps.copy()
        g[j + 1] = d
        members.append(Prevertices.from_positive_gaps(g[1:]))
    return members


def coalescence_deltas(deltas):
    """The gap samples of a coalescence fit as an array; ValueError unless
    there are at least 6 spanning two decades, as the log fit needs."""
    deltas = np.asarray(list(deltas), dtype=float)
    if deltas.size < 6:
        raise ValueError("need at least 6 gap samples")
    if np.max(deltas) / np.min(deltas) < 99.0:
        raise ValueError("gap samples must span at least two decades")
    return deltas


def coalescence_log_fit(deltas, members, pat: ExponentPattern, j: int):
    """Certify the holomorphic-plus-logarithm structure of the period a_j
    along a family where the neighbouring gap (s_{j+1}, s_{j+2}) collapses.

    Least-squares decomposition over the sampled gaps delta:

        |a_j(delta)| ~= c0 + q * delta + c1 * (log(delta)/pi) * |a_{j+1}(delta)|

    The collapsing period |a_{j+1}| vanishes linearly, so the logarithmic
    coupling enters at order delta*log(delta); the decomposition isolates
    its coefficient, which the monodromy of the integrand forces to be +1
    or -1, with opposite signs for the NE and SW patterns (the zigzag turns
    opposite ways at the shared vertex).  A plain c0 + c1*log(delta) model
    leaves an order-one relative misfit and cannot be certified.

    Both periods of every member come from one kernel call.  Returns
    (c0, c1, residual) where residual is the rms misfit relative to the
    rms variation of a_j over the family, so certification demands that
    the model explain essentially all of the observed variation.  Raises
    FitFailure when the residual exceeds 1e-3.  A family whose gap stays
    bounded away from zero passes with c1 ~ 0 (no logarithmic component).
    """
    return _log_fit(coalescence_deltas(deltas), *_coalescence_periods(members, pat.exponents, j))


def _coalescence_periods(members, exponents, j: int) -> np.ndarray:
    """|a_j| and |a_{j+1}|, the intervals j+p and j+p+1, of the T members
    of a coalescing family, shape (2, T) under one exponent row or
    (R, 2, T) under an (R, 2p+1) stack, from one kernel call."""
    p = (np.shape(exponents)[-1] - 1) // 2
    if not 0 <= j <= p - 2:
        raise ValueError(f"need 0 <= j <= p-2 for the periods a_j, a_(j+1); got j = {j}")
    gaps = np.array([m.gaps for m in members])
    pair = np.tile([j + p, j + p + 1], (len(gaps), 1))
    return np.swapaxes(quad.interval_abs_integral(gaps, exponents, pair), -1, -2)


def _log_fit(deltas, y, nxt):
    """(c0, c1, residual) of coalescence_log_fit from the sampled |a_j|
    ``y`` and |a_{j+1}| ``nxt`` at the gaps ``deltas``."""
    xlog = np.array([math.log(d) / math.pi for d in deltas]) * nxt
    A = np.column_stack((np.ones_like(deltas), deltas, xlog))
    scale = np.max(np.abs(A), axis=0)
    coef, *_ = np.linalg.lstsq(A / scale, y, rcond=None)
    coef = coef / scale
    misfit = y - A @ coef
    variation = float(np.sqrt(np.mean((y - np.mean(y)) ** 2)))
    rms = float(np.sqrt(np.mean(misfit**2)))
    residual = rms / variation if variation > 0.0 else 0.0
    c0, c1 = complex(coef[0]), complex(coef[2])
    if residual > 1e-3:
        raise FitFailure(f"log model rejected: relative residual {residual:.3e} > 1e-3")
    return c0, c1, residual
