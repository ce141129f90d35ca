"""Schwarz-Christoffel maps of the two complementary zigzag domains.

Both domains of a symmetric genus-p zigzag are conformal images of the
upper half-plane under maps with integrand

    prod_{m=-p}^{p} (t - s_m)^{e_m},     e_m = +-(k-1)/k alternating,

over a symmetric prevertex tuple s_{-p} < ... < s_0 = 0 < s_1 = 1 < ... .
Symmetry and the normalization leave p-1 free moduli, the gaps above s_1,
and a ``Prevertices`` is those gaps: its values and its 2p gaps derive
from them, so it is symmetric and normalized by construction.
The two complementary domains use negated exponent patterns.  Following
the usual labelling, the NE pattern starts and ends with +(k-1)/k
(p+1 positive entries) and the SW pattern is its negation.

Developed along the real axis, the NE integrand traces the vertex chain in
reversed order (s_j lands on the mirror vertex P_{-j}) and the SW integrand
traces P_{-p}, ..., P_p directly; a complex-linear normalization cannot
swap the two since the raw images are mirror congruent.  ``_development``
matches each developed chain to build_vertices in its own order.  A
solution's Weierstrass data is normalized onto one chain, build_vertices
of the solved zigzag, and checked against it, whether built fresh or
loaded from its file.

The parameter problem here and the shared-prevertex solve of
``height.minimize`` are both posed in log side ratios over log-gaps and
solved by one plain Newton iteration to max|F| <= 1e-12, from the same
seed: gaps proportional to the target sides.  Its Jacobian is exact: the
prevertex derivatives of the side integrals are extra exponent rows on
the panels of the sides, so each Newton point costs one fill of the
solve's one interval layout and one 12-node sum, uncompared
(``_side_system``, quadrature.IntervalLayout).  Only the point a
solve returns pays the 12-against-24 certificate, one more sum on the
same plan.  Every real-interval integral takes the tuple's gaps, not its
absolute prevertices, so a gap far below the prevertices loses no digits
and F has no rounding floor above the tolerance.  The shared solve
starts from equal sides, with no nested parameter solve.

The parameter problems of several patterns on one zigzag are one stacked
Newton solve (``solve_parameter_problems``, ``_newton_batch``), as the
height D takes its NE and SW solves: every Newton point is one fill of
the layout of the whole stack, each member summed against its own
exponent row, and the solve keeps one history, the stack's max|F|.  A
member that has converged rides along at its point while others step;
once none steps, one certificate compares the whole plan.  The first
failure ends the stack.  The kernel gives each member's values bit for
bit as its call alone, so each member's tuple and certified values are
those of its solve alone.
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
    "solve_parameter_problems",
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
    """Symmetric increasing prevertex tuple s_{-p}, ..., s_p with s_0 = 0,
    s_1 = 1 (for p >= 1) and s_{-j} = -s_j, held as its p-1 free gaps
    s_{j+1} - s_j above s_1.

    ``values`` (s_{-p}, ..., s_p, the positive side 1 + cumsum(free)) and
    ``gaps`` (the 2p gaps s_{m+1} - s_m, the free ones exactly as given,
    which every real-interval integral takes) are derived once, here.
    Raises ValueError unless there are max(p-1, 0) free gaps, each
    positive, and the tuple's span s_p - s_{-p} is a finite float.
    """

    genus: int
    free: tuple[float, ...]
    values: tuple[float, ...] = field(init=False, compare=False, repr=False)
    gaps: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        p, free = self.genus, np.asarray(self.free, dtype=float)
        with np.errstate(over="ignore"):  # a span 2 s_p that overflows is refused
            pos = np.concatenate(([0.0, 1.0], 1.0 + np.cumsum(free)))[:p + 1]
            finite = np.isfinite(2.0 * pos).all()
        if not (p >= 0 and free.shape == (max(p - 1, 0),) and finite and (free > 0.0).all()):
            raise ValueError(f"genus {p} needs {max(p - 1, 0)} positive free gaps with a "
                             f"finite span, got {free.tolist()}")
        object.__setattr__(self, "free", tuple(free.tolist()))
        object.__setattr__(self, "values", tuple(np.concatenate((-pos[:0:-1], pos)).tolist()))
        object.__setattr__(self, "gaps", tuple(_symmetric_gaps(free).tolist()) if p else ())

    def value(self, j: int) -> float:
        """s_j for a signed index."""
        return self.values[j + self.genus]


def _symmetric_gaps(gaps) -> np.ndarray:
    """The 2p gaps s_{m+1} - s_m, each exactly as given, of the symmetric
    tuple with the p-1 gaps above s_1 and the unit gaps next to s_0, along
    the last axis: one tuple or a stack of them."""
    gaps = np.asarray(gaps, dtype=float)
    half = np.concatenate((np.ones(gaps.shape[:-1] + (1,)), gaps), axis=-1)
    return np.concatenate((half[..., ::-1], half), axis=-1)


def side_length(prev: Prevertices, pat: ExponentPattern, j: int) -> float:
    """Euclidean length of the image of (s_j, s_{j+1}), 0 <= j < p.

    This is the raw modulus integral of the SC integrand over the tuple's
    gaps; no chain normalization is applied.  Certified to 1e-12 relative
    by 12 against 24 nodes (QuadratureFailure otherwise).
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


def _side_system(exponents, residual):
    """The Newton system ``system(u)`` of the raw positive sides of a stack
    of T tuples with (T, p-1) log-gaps u, from one interval layout built
    here, filled once per call and kept as long as the system.

    ``exponents`` is a (T, R, 2p+1) stack, R rows for each tuple.  A call
    returns the Newton point (residual(sides, ratios, J), certify): the
    (T, R, p) sides, their _log_ratios and the exact (T, R, p-1, p-1)
    Jacobian of those over u, from one 12-node sum with no comparison, and
    ``certify()`` the same from the certified sums at the same u, the
    sides then equal to positive_sides, or QuadratureFailure
    (quadrature.IntervalLayout.point); each tuple's equal bit for bit to
    its call alone.  u_i is the log of the gap above s_{i+1} and of its
    mirror below s_{-i-1}, so d log I = (g dI/dg of both gaps) / I.
    """
    count, p = len(exponents), (np.shape(exponents)[-1] - 1) // 2
    layout = quad.IntervalLayout((count, 2 * p), exponents,
                                 np.tile(np.arange(p, 2 * p), (count, 1)), derivatives=True)
    above, below = np.arange(p + 1, 2 * p), np.arange(p - 2, -1, -1)

    def chained(total, dlog):  # (R, T, p) and (R, 2p, T, p), to (T, R, ...)
        sides = total.swapaxes(0, 1)
        d_log = (dlog[:, above] + dlog[:, below]).transpose(2, 0, 3, 1) / sides[..., None]
        return residual(sides, _log_ratios(sides), d_log[..., 1:, :] - d_log[..., :1, :])

    def system(u):
        values, certify = layout.point(_symmetric_gaps(np.exp(u)))
        return chained(*values), lambda: chained(*certify())

    return system


_NEWTON_TOL = 1e-12  # sup norm of the log-ratio residual, shared and cold solves alike
_D_TOL = 1e-10  # the height certificate: a solve is converged iff D < _D_TOL
_NEWTON_FAILURES = (np.linalg.LinAlgError, QuadratureFailure, DomainError)


def _newton_batch(system, u0, label):
    """Plain Newton on a stack of T independent systems as one solve, one
    kernel call per Newton point: (u, history, values), the (T, n)
    log-gaps u at which every member's certified max|F| is <= _NEWTON_TOL,
    the stack's max|F| at every Newton point, strictly decreasing, and the
    certified values at u, stacked over the members.

    ``system(u)`` takes the (T, n) log-gaps of the whole stack and returns
    its Newton point (values, certify) from one fill of one layout
    (_side_system): values = (F, J, ...) stacked over the members,
    F(u) and its exact Jacobian first, from one 12-node sum with no
    comparison, and ``certify()`` the same at the same u, certified by 12
    against 24 nodes on that plan.  A member whose max|F| is <= _NEWTON_TOL
    does not step and rides along at its u while others step.  Once no
    member steps, one certificate compares the whole plan; the solve
    returns if the certified max|F| of every member is still <=
    _NEWTON_TOL, and otherwise the members above it step on from the
    certified F and J.  So every entry of history but the last is the
    stack's max|F| from one 12-node sum (a certified one where a point
    that looked converged was not), and the last is the certified max|F|
    at the returned u.  The kernel gives each member's values bit for bit
    as its call alone, and a member that does not step keeps its u, so
    each member's u and certified values are those of its solve alone.

    Newton takes full steps, at most 60 Newton points.  The first failure
    ends the solve: NoConvergence ``"<label> stalled"`` carrying the
    history so far, when a step does not reduce the stack's max|F|, a J
    is singular, an F or J is not finite (DomainError), or the 60th point
    has not converged.  A point the kernel rejects (a step so long that a
    gap leaves the floating-point range) or a failed certificate ends it
    too, the LinAlgError, QuadratureFailure or DomainError chained as the
    cause.
    """
    u, history = np.array(u0, dtype=float), []

    def stalled(cause=None):
        err = NoConvergence(f"{label} stalled", history)
        err.__cause__ = cause
        return err

    def ending(f):  # f(), or the NoConvergence of the solve for its failure
        try:
            return f()
        except _NEWTON_FAILURES as exc:
            raise stalled(exc)

    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the point
        values, certify = ending(lambda: system(u))
        while True:
            F, J = values[0], values[1]
            if not (np.isfinite(F).all() and np.isfinite(J).all()):
                raise stalled(DomainError("F or its Jacobian is not finite"))
            f = np.abs(F).max(axis=-1)
            if certify and (f <= _NEWTON_TOL).all():  # one certificate of the whole plan
                values, certify = ending(certify), None
                continue
            if history and not f.max() < history[-1]:
                raise stalled()
            history.append(float(f.max()))
            if history[-1] <= _NEWTON_TOL:  # certified
                return u, history, values
            if len(history) == 60:
                raise stalled()
            step = f > _NEWTON_TOL  # a converged member rides along
            u[step] += ending(lambda: np.linalg.solve(J[step], -F[step][..., None])[..., 0])
            values, certify = ending(lambda: system(u))


def solve_parameter_problems(z: ZigzagParams, patterns) -> tuple[Prevertices, ...]:
    """Prevertices whose SC side-length ratios match the zigzag's, under
    each of ``patterns``.

    Solves for the p-1 gaps g_j = s_{j+1} - s_j (j >= 1) in logarithmic
    coordinates, which keeps the ordering constraint implicit, starting
    from gaps proportional to the target sides, by the Newton iteration
    of _newton_batch with the exact Jacobian: 12-node sums at its
    iterates, the 12-against-24 certificate at the point it returns.  The
    patterns are one stacked solve, each member on its own exponent row:
    every Newton point is one fill of one layout of all members, and each
    member's tuple is bit for bit that of its solve alone.  Genus 0 and 1
    have no unknowns.  Raises the NoConvergence that ends the stack.
    """
    z = canonicalize(z)
    p = z.genus
    if p <= 1:
        return tuple(Prevertices(p, ()) for _ in patterns)

    target = _log_ratios(np.asarray(z.side_lengths))
    exps = np.stack([pat.exponents for pat in patterns])[:, None, :]  # one row per member
    system = _side_system(exps, lambda sides, ratios, J: (ratios[:, 0] - target, J[:, 0]))
    u, _, _ = _newton_batch(system, np.tile(target, (len(exps), 1)), f"parameter problem for {z}")
    return tuple(Prevertices(p, np.exp(v)) for v in u)


def solve_parameter_problem(z: ZigzagParams, pat: ExponentPattern) -> Prevertices:
    """Prevertices whose SC side-length ratios match the zigzag's under
    one pattern: solve_parameter_problems of that pattern alone."""
    return solve_parameter_problems(z, (pat,))[0]


def _directions(exps) -> np.ndarray:
    """exp(i pi sum_{i>m} e_i), m = 0..2p-1, along the last axis of one
    exponent row or a stack: the direction of the image of (s_m, s_{m+1}),
    on which t - s_i is negative exactly for i > m (principal branches
    from the upper half-plane)."""
    tail = np.cumsum(np.asarray(exps, float)[..., ::-1], axis=-1)[..., -2::-1]
    return np.exp(1j * np.pi * tail)


def _development(prev: Prevertices, pat: ExponentPattern):
    """(A, steps, targets): the development of the SC integrand of ``pat``
    along the real axis and its normalization onto a vertex chain.

    steps[m] is the raw image of the interval (s_m, s_{m+1}), m = 0..2p-1:
    its length from positive_sides (mirror intervals have equal lengths)
    times its _directions.  targets is build_vertices of the zigzag induced
    by the pattern's own sides, in the order the integrand develops it:
    P_{-p}, ..., P_p for SW, P_p, ..., P_{-p} for NE.  A = (targets[p+1] -
    targets[p]) / steps[p] turns and scales the raw image of (s_0, s_1)
    onto its side, so s_m develops onto targets[m] and (s_m, s_{m+1}) onto
    A * steps[m].  Raises DomainError at genus 0, whose chain has no side.
    """
    p = prev.genus
    if p == 0:
        raise DomainError("genus 0 has no vertex chain to normalize onto")
    pos = positive_sides(prev.gaps, pat.exponents)
    steps = np.concatenate((pos[::-1], pos)) * _directions(pat.exponents)
    chain = build_vertices(ZigzagParams(p, pat.turn_order, tuple(pos / np.sum(pos))))
    targets = np.asarray(chain.vertices[::-1] if pat.orientation == "NE" else chain.vertices)
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
    one-half rule.  Raises DomainError for t below the real axis, and at
    genus 0, which has no chain.
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
    Genus 0 has no positive side and no period.
    """
    if prev.genus == 0:
        return ()
    A, steps, _ = _development(prev, pat)
    return tuple(complex(a) for a in A * steps[prev.genus:])


def make_coalescing_family(base: Prevertices, j: int, deltas):
    """Prevertex family collapsing the gap (s_{j+1}, s_{j+2}) to each delta,
    symmetrically, holding every other positive gap fixed."""
    p = base.genus
    if not 0 <= j <= p - 2:
        raise ValueError(f"need 0 <= j <= p-2 so the gap above s_{j + 1} exists")
    members = []
    for d in deltas:
        free = list(base.free)
        free[j] = d
        members.append(Prevertices(p, free))
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

    The fit magnifies rounding in the sampled periods: about 2.7e4 times
    on the default ``sweep --kind coalescence`` grid (9 gaps, 1e-6 to
    1e-4), so c1 holds about 12 meaningful digits, though the sweep's CSV
    writes it to 17 (io._fmt).
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
