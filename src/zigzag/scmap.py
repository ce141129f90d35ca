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
swap the two since the raw images are mirror congruent.  ``forward_map``
accounts for this when matching the developed chain to build_vertices.

The parameter problem here and the shared-prevertex solve of
``height.minimize`` are both posed in log side ratios over log-gaps and
solved by one damped Newton iteration with a Nelder-Mead rescue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FitFailure, NoConvergence
from .geometry import ZigzagParams, build_vertices, canonicalize
from . import quadrature as quad

__all__ = [
    "ExponentPattern",
    "Prevertices",
    "PeriodVector",
    "side_length",
    "positive_sides",
    "solve_parameter_problem",
    "forward_map",
    "periods",
    "coalescence_log_fit",
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

    def exponent(self, j: int) -> float:
        return float(self.exponents[j + self.genus])


def ne_pattern(genus: int, turn_order: int = 2) -> ExponentPattern:
    return ExponentPattern("NE", genus, turn_order)


def sw_pattern(genus: int, turn_order: int = 2) -> ExponentPattern:
    return ExponentPattern("SW", genus, turn_order)


@dataclass(frozen=True)
class Prevertices:
    """Symmetric increasing prevertex tuple s_{-p}, ..., s_p.

    Normalization: s_0 = 0, s_1 = 1 (for p >= 1), s_{-j} = -s_j.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size % 2 != 1:
            raise ValueError("prevertex tuple must have odd length 2p+1")
        p = v.size // 2
        if np.any(np.diff(v) <= 0.0):
            raise ValueError(f"prevertices must be strictly increasing: {v}")
        if abs(v[p]) > 1e-14:
            raise ValueError(f"s_0 must be 0, got {v[p]}")
        if p >= 1 and abs(v[p + 1] - 1.0) > 1e-14:
            raise ValueError(f"s_1 must be 1, got {v[p + 1]}")
        if not np.allclose(v + v[::-1], 0.0, atol=1e-12):
            raise ValueError("prevertices must satisfy s_{-j} = -s_j")
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    @property
    def genus(self) -> int:
        return len(self.values) // 2

    def value(self, j: int) -> float:
        """s_j for a signed index."""
        return self.values[j + self.genus]

    @staticmethod
    def from_positive_gaps(gaps) -> "Prevertices":
        """Build the symmetric tuple from the p-1 gaps above s_1."""
        pos = np.concatenate(([0.0, 1.0], 1.0 + np.cumsum(gaps))) if len(gaps) else np.array([0.0, 1.0])
        return Prevertices.from_positive(pos)

    @staticmethod
    def from_positive(pos) -> "Prevertices":
        """Build the symmetric tuple from (s_0, s_1, ..., s_p)."""
        pos = np.asarray(pos, dtype=float)
        return Prevertices(tuple(np.concatenate((-pos[:0:-1], pos))))


@dataclass(frozen=True)
class PeriodVector:
    """Complex periods of the positive-side segments, normalized so that
    the moduli match the vertex chain of the underlying zigzag, together
    with quadrature error estimates."""

    values: tuple[complex, ...]
    errors: tuple[float, ...] = field(default=())


def side_length(prev: Prevertices, pat: ExponentPattern, j: int) -> float:
    """Euclidean length of the image of (s_j, s_{j+1}), 0 <= j < p.

    This is the raw modulus integral of the SC integrand; no chain
    normalization is applied.  Relative accuracy 1e-10 or better, enforced
    by node doubling (QuadratureFailure otherwise).
    """
    p = prev.genus
    if not 0 <= j < p:
        raise ValueError(f"segment index {j} out of range for genus {p}")
    value, _ = quad.interval_abs_integral(prev.values, pat.exponents, j + p)
    return value


def _positive_integrals(prev_values, exponents) -> np.ndarray:
    """Rows (raw side lengths, quadrature error estimates) of the p
    positive-side intervals.  The mirror interval (s_{-j-1}, s_{-j}) has
    the same length, since prevertices and exponents are symmetric."""
    p = len(prev_values) // 2
    return np.array([quad.interval_abs_integral(prev_values, exponents, j + p)
                     for j in range(p)]).reshape(p, 2).T


def positive_sides(prev_values, exponents) -> np.ndarray:
    """Raw SC side lengths of the p positive-side intervals (s_j, s_{j+1}),
    j = 0..p-1, of the tuple s_{-p}..s_p under one exponent pattern."""
    return _positive_integrals(prev_values, exponents)[0]


def _log_ratios(sides: np.ndarray) -> np.ndarray:
    """Scale-free side coordinates log(sides[1:] / sides[0]) in which both
    the parameter problem and the shared-prevertex solve are posed."""
    return np.log(sides[1:] / sides[0])


_NEWTON_TOL = 1e-11  # sup norm of the log-ratio residual


def _newton_solve(residual, u0, label: str) -> np.ndarray:
    """Log-gaps u with max|residual(u)| <= 1e-11.

    Damped Newton with a forward-difference Jacobian and a halving line
    search; if it stalls, Nelder-Mead on the squared residual norm, then a
    second Newton polish.  Raises NoConvergence carrying the residual sup
    norm of every Newton iteration.
    """
    trace = []

    def jacobian(u, r0):
        h = 1e-6
        J = np.empty((r0.size, u.size))
        for i in range(u.size):
            ui = u.copy()
            ui[i] += h
            J[:, i] = (residual(ui) - r0) / h
        return J

    def damped_newton(u):
        r = residual(u)
        for _ in range(60):
            norm = float(np.max(np.abs(r)))
            trace.append(norm)
            if norm <= _NEWTON_TOL:
                return u, norm
            try:
                step = np.linalg.solve(jacobian(u, r), -r)
            except np.linalg.LinAlgError:
                return u, norm
            for _ in range(12):
                u_try = u + step
                r_try = residual(u_try)
                if np.max(np.abs(r_try)) < norm:
                    u, r = u_try, r_try
                    break
                step *= 0.5
            else:
                return u, norm
        return u, float(np.max(np.abs(r)))

    u, norm = damped_newton(np.asarray(u0, dtype=float))
    if norm <= _NEWTON_TOL:
        return u

    # simplex rescue on ||r||^2, then a final Newton polish
    from scipy.optimize import minimize as _nm

    rescue = _nm(
        lambda v: float(np.sum(residual(v) ** 2)),
        u,
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-24, "maxiter": 4000},
    )
    u, norm = damped_newton(rescue.x)
    if norm <= _NEWTON_TOL:
        return u
    raise NoConvergence(f"{label} stalled", trace)


def solve_parameter_problem(z: ZigzagParams, pat: ExponentPattern) -> Prevertices:
    """Prevertices whose SC side-length ratios match the zigzag's.

    Solves for the p-1 gaps g_j = s_{j+1} - s_j (j >= 1) in logarithmic
    coordinates, which keeps the ordering constraint implicit, starting
    from gaps proportional to the target sides, by the damped Newton
    iteration of _newton_solve.  Genus 0 and 1 have no unknowns.
    """
    z = canonicalize(z)
    p = z.genus
    if p <= 1:
        return Prevertices.from_positive(np.arange(p + 1.0))

    target = _log_ratios(np.asarray(z.side_lengths))
    exps = pat.exponents

    def residual(u):
        sides = positive_sides(Prevertices.from_positive_gaps(np.exp(u)).values, exps)
        return _log_ratios(sides) - target

    u = _newton_solve(residual, target, f"parameter problem for {z}")
    return Prevertices.from_positive_gaps(np.exp(u))


def _segment_directions_from_exponents(exps: np.ndarray) -> np.ndarray:
    """Directions of the raw developed image of the intervals between
    consecutive prevertices, terminal ray last.

    On an interval the integrand has constant argument pi times the sum of
    the exponents of the prevertices to its right (principal branches from
    the upper half-plane)."""
    tail = np.cumsum(exps[::-1])[::-1]  # tail[m] = sum of e_i for i >= m
    args = np.concatenate((tail[1:], [0.0])) * math.pi
    return np.exp(1j * args)


def _raw_chain(prev: Prevertices, pat: ExponentPattern):
    """Raw developed vertices V_{-p..p} (V at s_0 = 0), the raw lengths of
    the 2p intervals and the error estimates of the p positive ones."""
    p = prev.genus
    exps = pat.exponents
    pos, errs = _positive_integrals(prev.values, exps)
    sides = np.concatenate((pos[::-1], pos))  # mirror intervals, equal lengths
    dirs = _segment_directions_from_exponents(exps)[:-1]  # per interval m = 0..2p-1
    steps = sides * dirs
    V = np.zeros(2 * p + 1, dtype=complex)
    V[p + 1:] = np.cumsum(steps[p:])
    V[:p] = -np.cumsum(steps[:p][::-1])[::-1]
    return V, sides, errs


def _chain_normalization(prev: Prevertices, pat: ExponentPattern, raw=None):
    """Affine map A*raw + B sending the raw developed chain onto the
    normalized vertex chain of the induced zigzag.

    The NE integrand develops the chain in reversed vertex order, so its
    raw vertices are matched against P_p, ..., P_{-p}; the SW integrand is
    matched against P_{-p}, ..., P_p.  ``raw`` is the _raw_chain result
    when the caller already holds it.
    """
    p = prev.genus
    V, sides, _ = raw if raw is not None else _raw_chain(prev, pat)
    pos_sides = sides[p:]
    lengths = tuple(pos_sides / np.sum(pos_sides))
    chain = build_vertices(ZigzagParams(p, pat.turn_order, lengths))
    targets = np.asarray(chain.vertices)
    if pat.orientation == "NE":
        targets = targets[::-1]
    A = (targets[p + 1] - targets[p]) / (V[p + 1] - V[p])
    B = targets[p] - A * V[p]
    return A, B, V, targets, chain


def forward_map(prev: Prevertices, pat: ExponentPattern, t: complex) -> complex:
    """Normalized SC image of a point t in the closed upper half-plane.

    The image chain coincides with build_vertices of the induced zigzag;
    prevertex s_j lands on P_j for the SW pattern and on the mirror vertex
    P_{-j} for the NE pattern.  An interior t is reached along the straight
    segment from s_0 = 0, whose panels shrink toward nearby prevertices by
    the one-half rule of quadrature.segment_integral; a real t along its
    own interval.  Raises DomainError for t below the real axis.
    """
    t = complex(t)
    if t.imag < 0.0:
        raise DomainError(f"t = {t} lies below the real axis")
    A, B, V, _, _ = _chain_normalization(prev, pat)
    p = prev.genus
    s = np.asarray(prev.values)
    exps = pat.exponents
    if t.imag != 0.0:
        return A * (V[p] + quad.segment_integral(s, exps, 0.0, t, sing0=p)) + B

    # real target: exact prevertex hits read off the chain; otherwise walk
    # to the nearest lower prevertex (s_{-p} left of the tuple) and
    # integrate the partial interval
    hit = np.nonzero(np.isclose(s, t.real, rtol=0.0, atol=1e-15))[0]
    if len(hit):
        return A * V[hit[0]] + B
    m = max(int(np.searchsorted(s, t.real)) - 1, 0)
    return A * (V[m] + quad.segment_integral(s, exps, s[m], t.real, sing0=m)) + B


def periods(prev: Prevertices, pat: ExponentPattern) -> PeriodVector:
    """Normalized complex periods a_j = F(s_{j+1}) - F(s_j), j = 0..p-1.

    Moduli equal the side lengths of the normalized vertex chain; for turn
    order 2 consecutive periods differ in direction by a factor +-i.
    """
    p = prev.genus
    raw = _raw_chain(prev, pat)
    A, _, V, _, _ = _chain_normalization(prev, pat, raw)
    vals = tuple(complex(A * (V[p + j + 1] - V[p + j])) for j in range(p))
    return PeriodVector(vals, tuple(float(abs(A) * err) for err in raw[2]))


def make_coalescing_family(base: Prevertices, j: int, deltas):
    """Prevertex family collapsing the gap (s_{j+1}, s_{j+2}) to each delta,
    symmetrically, holding every other positive gap fixed."""
    p = base.genus
    if not 0 <= j <= p - 2:
        raise ValueError(f"need 0 <= j <= p-2 so the gap above s_{j + 1} exists")
    pos = np.array([base.value(m) for m in range(p + 1)])
    gaps = np.diff(pos)  # gaps[m] = s_{m+1} - s_m
    members = []
    for d in deltas:
        g = gaps.copy()
        g[j + 1] = d
        members.append(Prevertices.from_positive_gaps(g[1:]))
    return members


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

    Returns (c0, c1, residual) where residual is the rms misfit relative to
    the rms variation of a_j over the family, so certification demands that
    the model explain essentially all of the observed variation.  Raises
    FitFailure when the residual exceeds 1e-3.  A family whose gap stays
    bounded away from zero passes with c1 ~ 0 (no logarithmic component).
    """
    deltas = np.asarray(list(deltas), dtype=float)
    if deltas.size < 6:
        raise ValueError("need at least 6 gap samples")
    span = np.max(deltas) / np.min(deltas)
    if span < 99.0:
        raise ValueError("gap samples must span at least two decades")
    y = np.empty(deltas.size)
    xlog = np.empty(deltas.size)
    for i, member in enumerate(members):
        y[i] = side_length(member, pat, j)
        xlog[i] = math.log(deltas[i]) / math.pi * side_length(member, pat, j + 1)
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
        raise FitFailure(
            f"log model rejected: relative residual {residual:.3e} > 1e-3"
        )
    return c0, c1, residual
