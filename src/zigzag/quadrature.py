"""Panel quadrature for products with algebraic endpoint singularities.

Integrands here are of the form prod_m (z - s_m)^{e_m} with real nodes s_m
and exponents e_m > -1.  Singular endpoints are absorbed by Gauss-Jacobi
rules; the rest of a real interval or of a straight segment in the closed
upper half-plane is covered by Gauss-Legendre panels no longer than their
distance to the nearest foreign singularity (the one-half rule of compound
Gauss-Jacobi SC quadrature, Driscoll & Trefethen, Schwarz-Christoffel
Mapping, ch. 3), so every panel sees an analytic integrand with a uniformly
fat Bernstein ellipse.  ``_rule`` builds each Gauss-Jacobi rule in numpy
(Golub & Welsch 1969): Jacobi-matrix eigenvalues polished by Newton steps
as nodes, weights from their closed form.  A segment between two points
of the closed upper half-plane, not both real, meets the real axis at
most at an endpoint, so no path needs a detour around a prevertex.

One blocked kernel computes every integral.  ``_SegmentPanels`` grades
the panels of all segments at once, as arrays, from each end up to that
end's reach.  Each half of a segment is graded from its own end, as
SCPACK integrates each half of a path (Trefethen 1980): its offsets, its
factors z - s_m and its Gauss-Jacobi end panel are all measured from that
end, so a prevertex just beyond either end keeps its distance exact and
every Jacobi rule has the one orientation (0, e).  A segment with no
prevertex at either end that is no longer than its clearance at the
midpoint, as a short mesh chord is, meets the one-half rule whole: it is
one Gauss-Legendre panel from z0.  The panels are flattened into entries
that each carry their rule and the exponent rows they feed; the nodes of
every entry are evaluated in blocks of about 2^14 node x prevertex
entries, with one log(z - s_m) matrix per block serving every row.  ``segment_integral``
returns the contour integrals, itself giving an end on a prevertex its
Jacobi panel, summed in complex arithmetic.  On a real interval
(s_j, s_{j+1}) every factor is real and keeps its sign, so the integrand has
constant argument and is summed in real arithmetic, log|t - s_m| with no
arctan2, times one phase per panel and row: ``interval_integral``
returns the contour integrals, ``interval_abs_integral`` their moduli
and ``interval_jacobian`` the integrals with their exact derivatives in
every log-gap, on the same panels.  All three take a stack of tuples,
one tuple being a stack of one, by their gaps s_{m+1} - s_m, not their
prevertices: every offset is a partial sum of gaps of the interval's own
tuple and every length a gap, so no digit of a gap 1e-8 of the
prevertices is lost to their absolute size.  ``IntervalPlan`` rejects a
gap that is not positive or a partial sum that is not finite
(DomainError).  Segments keep absolute coordinates; ``arc_integral``
sums two segments through its arc's apex.  One routine, ``_doubled``,
certifies each item and row: 12 against 24 nodes, else
QuadratureFailure.  A fixed node count set by the tolerance, as in
Driscoll & Trefethen's SC Toolbox, serves every integrand here, with no
adaptive doubling past it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureFailure

_BASE_NODES = 12
_REL_TOL = 1e-12


def _jacobi(n, beta, x):
    """P_n^(0, beta)(x) and its derivative by the three-term recurrence."""
    p0, p1 = np.ones_like(x), ((beta + 2) * x - beta) / 2
    d0, d1 = np.zeros_like(x), np.full_like(x, (beta + 2) / 2)
    for m in range(2, n + 1):
        s = 2 * m + beta
        a, b, c = 2 * m * (m + beta) * (s - 2), (s - 1) * s * (s - 2), 2 * (m - 1) * (m - 1 + beta) * s
        q = b * x - (s - 1) * beta * beta
        p0, p1, d0, d1 = p1, (q * p1 - c * p0) / a, d1, (q * d1 + b * p1 - c * d0) / a
    return p1, d1


@lru_cache(maxsize=512)
def _rule(n: int, beta: float):
    """The n-node Gauss-Jacobi rule (nodes, weights) for the weight
    (1 + x)^beta on [-1, 1], beta > -1.

    The nodes are the eigenvalues of the symmetric Jacobi matrix (eigvalsh
    reads its lower triangle), polished by two Newton steps on the
    recurrence; the weights are 2^(beta+1) / ((1 - x^2) P_n'(x)^2).  Both
    steps run in long double: at n = 48, beta = -7/8 the first node lies
    1.1e-4 from -1, and rounding it to a double first would move its
    weight by 4e-13.  Where long double is plain double, that error stays."""
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.concatenate(([beta / (beta + 2.0)], beta * beta / (s * (s + 2.0))))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1)).astype(np.longdouble)
    beta = np.longdouble(beta)
    for _ in range(2):
        p, d = _jacobi(n, beta, x)
        x -= p / d
    d = _jacobi(n, beta, x)[1]
    return x.astype(float), (2 ** (beta + 1) / ((1 - x) * (1 + x) * d * d)).astype(float)


_BLOCK = 1 << 14  # node x prevertex log entries evaluated at once


def _factor_logs(re, im):
    """log|d| and arg d of the factors d = re + i im = z - s_m, principal
    branches; ``im`` may broadcast against ``re``.  A signed-zero ``im`` is
    cleared first, so a point on the real axis takes the upper half-plane
    branch."""
    im = im + 0.0
    arg = np.arctan2(im, re)
    with np.errstate(over="ignore"):
        sq = re * re
        sq += im * im
    if sq.min(initial=np.inf) > 1e-300 and sq.max(initial=0.0) < 1e300:
        mag = np.log(sq, out=sq)
        mag *= 0.5
    else:  # a square left the normal range: take |d| without squaring
        mag = np.log(np.hypot(re, im))
    return mag, arg


def product_value(prev, exps, z):
    """prod_m (z - s_m)^{e_m} with principal branches, z in closed UHP."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))[..., None]
    mag, arg = _factor_logs(z.real - np.asarray(prev, float), z.imag)
    exps = np.asarray(exps, float)
    return np.exp(mag @ exps + 1j * (arg @ exps))


def _doubled(sums, rel_tol, abs_tol: float, what):
    """Certify panel sums by one comparison: 12 against 24 nodes per panel
    (_BASE_NODES and its double), else QuadratureFailure.

    ``sums(n)`` returns the (R, S) sums of every row and item at n nodes
    per panel.  Every (row, item) pair must change by at most
    rel_tol * |fine| + abs_tol; a pair that no entry feeds is exactly 0 at
    both counts and passes.  Returns the (R, S) 24-node values; raises
    QuadratureFailure naming ``what(i)`` for the first item i with a
    failing pair.
    """
    coarse = sums(_BASE_NODES)
    fine = sums(2 * _BASE_NODES)
    change = np.abs(fine - coarse)
    failed = ~(change <= rel_tol * np.abs(fine) + abs_tol)
    if failed.any():
        i, r = np.argwhere(failed.T)[0]
        rel = change[r, i] / max(abs(fine[r, i]), 1e-300)
        raise QuadratureFailure(
            f"{what(i)} stuck at rel err {rel:.3e} with {2 * _BASE_NODES} nodes")
    return fine


def _graded_panels(re, im, ray, reach, own):
    """Panels (segment, end, lo, hi) graded from every segment end of
    positive reach: lo and hi are offsets along ``ray`` from that end, up
    to its reach.  The ends are origins 2i (z0) and 2i + 1 (z1) of segment
    i; ``re`` (2S, M) and ``im`` (2S,) hold the offsets z - s_m from every
    origin, ``ray`` its direction into the segment, ``reach`` (2S,) how far
    along it that end's panels run and ``own`` the prevertex at it (-1 for
    none).  The reaches of a segment's two ends add up to its length; an
    end of reach 0 makes no panel.  Ordered by segment, end and offset.

    From an end at a prevertex the breaks are graded dyadically: the first
    panel is half the clearance to the nearest other prevertex (at most
    half the reach), each next one as long as the distance back to that
    end, up to the reach; an end without a prevertex gives one panel up to
    its reach.  Free panels are then halved while longer than the
    clearance at their midpoint, at most 40 times: a straight path may
    graze a prevertex, and 40 halvings resolve a closest approach of
    1e-12 * length while panels still span ~1e4 ulps."""
    o = np.flatnonzero(reach)  # one row per end that makes panels
    seg, end = o // 2, o % 2
    reach = reach[o]
    d = np.hypot(re[o], im[o, None])
    at = np.flatnonzero(own[o] >= 0)
    d[at, own[o[at]]] = np.inf
    b = np.where(own[o] >= 0, np.minimum(reach, d.min(axis=1, initial=np.inf)) / 2.0, reach)
    cols = [np.zeros_like(b), b]
    while (b < reach).any():
        b = np.minimum(reach, b + b)
        cols.append(b)
    offs = np.stack(cols, axis=1)
    lo, hi = offs[:, :-1], offs[:, 1:]
    keep = hi > lo  # rows are non-decreasing; equal breaks give no panel
    r = np.broadcast_to(np.arange(seg.size)[:, None], lo.shape)[keep]  # end row of each panel
    lo, hi = lo[keep], hi[keep]
    fixed = (lo == 0.0) & (own[o[r]] >= 0)
    done = [(r[fixed], lo[fixed], hi[fixed])]
    r, lo, hi = r[~fixed], lo[~fixed], hi[~fixed]
    for _ in range(40):
        if not r.size:
            break
        # midpoint clearance in offset coordinates, as the factors are formed:
        # absolute ones round a close approach to a prevertex to 0
        mid = 0.5 * (lo + hi)
        near = np.hypot(re[o[r]] + (mid * ray[o[r]].real)[:, None],
                        (im[o[r]] + mid * ray[o[r]].imag)[:, None])
        fits = hi - lo <= near.min(axis=1)
        done.append((r[fits], lo[fits], hi[fits]))
        r, lo, hi, mid = r[~fits], lo[~fits], hi[~fits], mid[~fits]
        r, lo, hi = np.concatenate((r, r)), np.concatenate((lo, mid)), np.concatenate((mid, hi))
    done.append((r, lo, hi))
    r, lo, hi = (np.concatenate(c) for c in zip(*done))
    order = np.lexsort((hi, lo, end[r], seg[r]))
    return seg[r][order], end[r][order], lo[order], hi[order]


def _ends(a, b):
    """Per-segment values at z0 and z1 interleaved into per-origin ones."""
    return np.column_stack((a, b)).ravel()


class _SegmentPanels:
    """Panels of a batch of segments, built once and evaluated at any node
    count for every exponent row.

    A segment i has origins 2i at z0, with ray +unit, and 2i + 1 at z1,
    with ray -unit.  ``re`` (2S, M) and ``im`` (2S,) are the offsets
    a - s_m of every origin a from every prevertex, ``own`` (2S,) the
    prevertex at each origin (-1 for none), ``reach`` (2S,) how far each
    origin's panels run along its ray: half the length from each end, or
    the whole length from z0 and 0 from z1 for a segment that fits the
    one-half rule whole.  The panels of all segments are graded at once by
    ``_graded_panels`` from that same table, each end up to its reach,
    and flattened into entries, each with its rule index and a row mask: a
    Gauss-Legendre panel is one entry feeding every row, a Gauss-Jacobi end
    panel one entry per row, with the rule of that row's absorbed exponent
    (exponent 0 gives the Legendre rule).  Every factor is formed from the
    panel's own end, (a - s_m) + u * ray, so a prevertex near either end
    keeps its distance u exact, and every Jacobi panel starts at offset 0,
    so its rule weights (1 + x) alone.  ``sums`` evaluates the factors in
    complex arithmetic, as a segment off the real axis needs; real
    intervals have their own real path, IntervalPlan.integrate_abs."""

    def __init__(self, re, im, unit, reach, own, rows):
        r_count = rows.shape[0]
        self.s_count = unit.size
        self.rows = rows.T
        self.re, self.im, self.ray = re, im, _ends(unit, -unit)
        seg, end, lo, hi = _graded_panels(re, im, self.ray, reach, own)
        origin = 2 * seg + end
        own = own[origin]  # prevertex at the panel's end
        jacobi = (lo == 0.0) & (own >= 0)
        free, each = np.flatnonzero(~jacobi), np.repeat(np.flatnonzero(jacobi), r_count)
        row = np.tile(np.arange(r_count), each.size // r_count)
        take = np.concatenate((free, each))
        self.seg, self.origin, self.lo = seg[take], origin[take], lo[take]
        self.h = (hi[take] - lo[take]) / 2.0
        self.absorbed = np.concatenate((np.full(free.size, -1), own[each]))
        e = np.concatenate((np.zeros(free.size), rows[row, own[each]]))
        # (z - s_own)^e = (u * ray)^e along the ray out of the absorbed end;
        # dz runs along the segment whichever end the offsets start from
        self.factor = (self.h ** (1.0 + e) * np.exp(e * np.log(self.ray[self.origin] + 0.0))
                       * unit[self.seg])
        self.mask = np.concatenate((np.ones((free.size, r_count), bool),
                                    row[:, None] == np.arange(r_count)))
        self.rules, self.rule = np.unique(e, return_inverse=True)

    def _summed(self, n, block):
        """(R, S) panel sums with n nodes per panel.  ``block(k, u, w)``
        returns the (len(k), R) weighted node sums of the entries k, with
        (len(k), n) node offsets u from each panel's end and weights w,
        blocks of about _BLOCK node x prevertex entries."""
        m_count = self.rows.shape[0]
        total = np.zeros((self.s_count, self.mask.shape[1]), complex)
        if not self.seg.size:  # no panels: only segments of zero length
            return total.T
        x, w = (np.array(c) for c in zip(*(_rule(n, e) for e in self.rules.tolist())))
        step = max(1, _BLOCK // (n * m_count))
        for b in range(0, self.seg.size, step):
            k = np.arange(b, min(b + step, self.seg.size))
            rule = self.rule[k]
            u = self.lo[k, None] + self.h[k, None] * (x[rule] + 1.0)
            vals = self.factor[k, None] * block(k, u, w[rule])
            np.add.at(total, self.seg[k], np.where(self.mask[k], vals, 0.0))
        return total.T

    def _complex_block(self, k, u, w):
        """One log matrix, one matmul pair and one exp per block."""
        m_count, r_count = self.rows.shape
        o = self.origin[k]
        ray = self.ray[o, None]
        mag, arg = _factor_logs(self.re[o, None, :] + (u * ray.real)[..., None],
                                (self.im[o, None] + u * ray.imag)[..., None])
        jac = np.flatnonzero(self.absorbed[k] >= 0)  # the absorbed factor is in the rule
        mag[jac, :, self.absorbed[k[jac]]] = arg[jac, :, self.absorbed[k[jac]]] = 0.0
        logs = mag.reshape(-1, m_count) @ self.rows + 1j * (arg.reshape(-1, m_count) @ self.rows)
        return np.einsum("pnr,pn->pr", np.exp(logs).reshape(k.size, u.shape[1], r_count), w)

    def sums(self, n):
        """(R, S) panel sums with n nodes per panel, in complex arithmetic."""
        return self._summed(n, self._complex_block)


def _gap_offsets(gaps, ends):
    """(len(ends), M) offsets s_a - s_m of each end a from every prevertex
    of its tuple, whose gaps s_{m+1} - s_m are the matching row of the
    (len(ends), M-1) ``gaps``: partial sums of gaps taken outward from a,
    nearest gap first, so each is exact to its own rounding however far
    the tuple extends."""
    i, a = np.arange(gaps.shape[-1]), ends[:, None]
    up = np.cumsum(np.where(i >= a, gaps, 0.0), axis=1)  # s_{i+1} - s_a for i >= a
    down = np.cumsum(np.where(i < a, gaps, 0.0)[:, ::-1], axis=1)[:, ::-1]  # s_a - s_i for i < a
    zero = np.zeros((ends.size, 1))
    return np.hstack((down, zero)) - np.hstack((zero, up))


class IntervalPlan(_SegmentPanels):
    """The shared panels of real intervals (s_j, s_{j+1}) of a (T, M-1)
    stack of tuples with gaps s_{m+1} - s_m: segments with Gauss-Jacobi
    panels at both ends, for one exponent row or a stack.  ``j`` has shape
    (T, ...), row t indexing intervals of tuple t; one (M-1,) tuple is a
    stack of one.  Each end's offsets are partial sums of its own tuple's
    gaps, each end reaches half the gap and the direction is exactly +1,
    so every interval is built exactly as from its tuple alone and a gap
    far smaller than the prevertices keeps its full relative accuracy.  It
    raises ValueError for an interval index outside 0..M-2 and DomainError,
    naming the first bad tuple and its first bad gap or partial sum,
    unless every gap is positive and every offset finite.  Only that check
    makes every point of an interval nearer its ends than any other
    prevertex, so that its graded panels are never halved: a zero,
    negative or infinite gap can grade them until memory runs out, and a
    NaN gap integrates to 0.

    On an interval every factor t - s_m is real and keeps one sign, so
    ``integrate_abs`` sums in real arithmetic: log|t - s_m| and no
    arctan2, and one phase exp(i pi (neg @ rows)) per panel and row, where
    neg marks the factors negative on the panel.  With ``derivatives``
    each row e is followed by the M rows e - delta_m, whose integrands are
    that of e over (t - s_m), on the same entries and rules as e, so no
    rule is built for them; only intervals have such rows.  A row e -
    delta_m is not integrable on an interval ending at s_m: the entry row
    mask drops it from every entry of that interval, so it sums to exactly
    0 there at any node count."""

    def __init__(self, gaps, exps, j, derivatives=False):
        gaps, j = np.asarray(gaps, float), np.asarray(j, int)
        if gaps.ndim == 1:  # one tuple is a stack of one
            gaps, j = gaps[None], j[None]
        if j.ndim == 0 or j.shape[0] != gaps.shape[0]:
            raise ValueError(f"a stack of {gaps.shape[0]} gap tuples needs intervals of shape "
                             f"({gaps.shape[0]}, ...), got {j.shape}")
        self.tup, j = np.indices(j.shape)[0].ravel(), j.ravel()  # tuple row of each interval
        outside = (j < 0) | (j >= gaps.shape[1])
        if outside.any():
            raise ValueError(f"interval index {j[outside][0]} outside 0..{gaps.shape[1] - 1}")
        ends, owner = _ends(j, j + 1), _ends(self.tup, self.tup)
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            offsets = _gap_offsets(gaps[owner], ends)
        if not ((gaps > 0.0).all() and np.isfinite(offsets).all()):
            # name the first bad tuple and its first bad gap or partial sum
            bad_gap, bad_sum = ~(gaps > 0.0), ~np.isfinite(offsets)
            bad = bad_gap.any(axis=1)
            bad[owner[bad_sum.any(axis=1)]] = True
            t = np.argmax(bad)
            if bad_gap[t].any():
                i = np.argmax(bad_gap[t])
                what = f"gap {i} is {gaps[t, i]}"
            else:
                e, m = np.argwhere(bad_sum & (owner == t)[:, None])[0]
                what = f"partial sum s_{ends[e]} - s_{m} is {offsets[e, m]}"
            raise DomainError("interval gaps must be positive with finite partial sums: "
                              f"tuple {t}, {what}")
        self.gaps, self.j = gaps, j
        rows = np.atleast_2d(np.asarray(exps, float))
        half = gaps[self.tup, j] / 2.0
        super().__init__(offsets, np.zeros(ends.size), np.ones(j.size, complex),
                         _ends(half, half), ends, rows)
        self.derivatives = derivatives
        if derivatives:
            width, i = rows.shape[1] + 1, np.arange(j.size)
            valid = np.ones((j.size, rows.shape[0], width), bool)
            valid[i, :, 1 + j] = valid[i, :, 2 + j] = False
            self.mask = np.repeat(self.mask, width, axis=1) & valid.reshape(j.size, -1)[self.seg]

    def name(self, i):
        """The i-th interval, with its tuple row and its gap."""
        t, j = self.tup[i], self.j[i]
        return f"interval ({j}, {j + 1}) of tuple {t}, gap {self.gaps[t, j]}"

    def _real_block(self, k, u, w):
        """One log|d| matrix, one real matmul and one exp per block, plus
        for the derivative rows one exp and one real batched matmul."""
        m_count, r_count = self.rows.shape
        d = self.re[self.origin[k], None, :] + (u * self.ray[self.origin[k], None].real)[..., None]
        mag = np.log(np.abs(d))
        neg = d[:, 0, :] < 0.0
        jac = np.flatnonzero(self.absorbed[k] >= 0)  # in the rule, its phase in self.factor
        mag[jac, :, self.absorbed[k[jac]]] = 0.0
        neg[jac, self.absorbed[k[jac]]] = False
        phase = np.exp(1j * np.pi * (neg @ self.rows))
        values = np.exp(mag.reshape(-1, m_count) @ self.rows).reshape(k.size, -1, r_count)
        vals = np.einsum("pnr,pn->pr", values, w)
        if not self.derivatives:
            return phase * vals
        # rows e - delta_m: the integrand of e times 1/d = sign(d) exp(-log|d|)
        weighted = (values * w[..., None]).transpose(0, 2, 1)
        vals = np.concatenate((vals[..., None], weighted @ np.copysign(np.exp(-mag), d)), axis=2)
        return (phase[..., None] * vals).reshape(k.size, -1)

    def integrate_abs(self, n):
        """(R, S) interval sums with n nodes per panel, R counting the
        derivative rows, in real arithmetic."""
        return self._summed(n, self._real_block)


def interval_integral(gaps, exps, j):
    """Contour integrals over real intervals (s_j, s_{j+1}), principal
    branches from the upper half-plane, as segment_integral gives them
    along the same intervals, certified to relative accuracy 1e-12 by 12
    against 24 nodes.

    ``gaps`` holds the gaps s_{m+1} - s_m of one tuple or of a (T, M-1)
    stack of tuples, a family in one call; ``j`` is one interval index or
    an array of them, of shape (T, ...) for a stack, whose row t indexes
    intervals of tuple t, each value equal, bit for bit, to that of the
    call on tuple t alone; ``exps`` is one exponent row or an (R, M) stack.
    Returns the row axis of a stack followed by the shape of ``j``, a
    scalar for one row and index; raises QuadratureFailure naming the
    interval, its tuple row and its gap if an interval and row change by
    more than that from 12 to 24 nodes, and DomainError or ValueError for
    the gaps or indices IntervalPlan rejects.
    """
    exps, j = np.asarray(exps, float), np.asarray(j, int)
    plan = IntervalPlan(gaps, exps, j)
    value = _doubled(plan.integrate_abs, _REL_TOL, 0.0, plan.name)
    return value.reshape(exps.shape[:-1] + j.shape)[()]


def interval_abs_integral(gaps, exps, j):
    """Moduli of interval_integral, with its arguments, shapes, certificate
    and errors: the integrand has constant argument on an interval, so each
    is the length of the interval's image."""
    return np.abs(interval_integral(gaps, exps, j))


def interval_jacobian(gaps, exps, j):
    """Complex integrals I_j over real intervals (s_j, s_{j+1}) of a tuple
    with gaps g_i = s_{i+1} - s_i, or of a stack of tuples, and their
    derivatives g_i dI_j/dg_i in the log of every gap of the interval's own
    tuple, from one kernel call.

    ``gaps``, ``exps`` and ``j`` are as for interval_integral.  For a
    prevertex m that is not an end of the interval,

        dI_j/ds_m = -e_m * integral of (t - s_m)^(e_m - 1) prod_{i != m} (t - s_i)^e_i,

    the integral of the row e - delta_m on the interval's own panels, which
    shares the base row's Gauss-Jacobi rules (IntervalPlan with
    ``derivatives``); that row reads exactly 0 on the two intervals it would
    make non-integrable.  A gap g_i moves the prevertices above it, so by
    translation invariance dI_j/dg_i = -sum_{m <= i} dI_j/ds_m below the
    interval and sum_{m > i} dI_j/ds_m above it: neither sum holds an end,
    so no end derivatives of size I/g cancel next to a tiny gap.  The
    interval's own gap follows from homogeneity,
    sum_i g_i dI/dg_i = (1 + sum e) I.  Every row is certified to 1e-12
    relative by 12 against 24 nodes.  Returns (I, g dI/dg): I with the row
    axis of a stack of rows followed by the shape of ``j``, g dI/dg with
    the gap axis i of length M-1 inserted before the shape of ``j``;
    raises QuadratureFailure if a row changes by more than that from 12 to
    24 nodes, and DomainError or ValueError for the gaps or indices
    IntervalPlan rejects.
    """
    exps, j = np.asarray(exps, float), np.asarray(j, int)
    base = np.atleast_2d(exps)
    b_count, m_count = base.shape
    plan = IntervalPlan(gaps, base, j, derivatives=True)
    flat, cols = plan.j, np.arange(plan.j.size)
    value = _doubled(plan.integrate_abs, _REL_TOL, 0.0, plan.name)
    value = value.reshape(b_count, m_count + 1, flat.size)
    total, ds = value[:, 0], -base[:, :, None] * value[:, 1:]  # dI/ds_m, 0 at the ends
    below = np.cumsum(ds, axis=1)[:, :-1]  # sum over m <= i, for gap i
    above = np.cumsum(ds[:, ::-1], axis=1)[:, -2::-1]  # sum over m > i
    i = np.arange(m_count - 1)[:, None]
    dlog = plan.gaps[plan.tup].T * np.where(i < flat, -below, above)
    dlog[:, flat, cols] = 0.0
    dlog[:, flat, cols] = (1.0 + base.sum(axis=1))[:, None] * total - dlog.sum(axis=1)
    shape = exps.shape[:-1]
    return total.reshape(shape + j.shape), dlog.reshape(shape + (m_count - 1,) + j.shape)


def _segment_reach(re, im, unit, length, own):
    """(2S,) reach of each segment end for _graded_panels: (L, 0) for a
    segment with no prevertex at either end whose length L is at most its
    clearance at the midpoint, so one Gauss-Legendre panel from z0 meets
    the one-half rule, else (L/2, L/2).  The clearance is taken in offset
    coordinates from z0, as _graded_panels halves a panel."""
    mid = 0.5 * length
    near = np.hypot(re[::2] + (mid * unit.real)[:, None], (im[::2] + mid * unit.imag)[:, None])
    whole = (own[::2] < 0) & (own[1::2] < 0) & (length <= near.min(axis=1, initial=np.inf))
    return _ends(np.where(whole, length, mid), np.where(whole, 0.0, mid))


def segment_integral(prev, exps, z0, z1):
    """Contour integrals of the product along straight segments [z0, z1]
    in the closed UHP, for one exponent row or a stack of them.

    ``z0`` and ``z1`` broadcast against each other to the segments;
    ``exps`` is one row of exponents or an (R, M) stack of rows.  An end
    within 1e-15 of a prevertex s_m is taken to sit on it and gets the
    Gauss-Jacobi panel of s_m, one rule per row; the rest of a segment is
    covered by Gauss-Legendre panels no longer than their clearance to the
    nearest prevertex, shared by all rows.  A segment with no prevertex at
    either end that fits that rule whole is one panel from z0 (reach
    (L, 0)); every other segment is graded each half from its own end
    (reach (L/2, L/2)), as an interval is.  Every segment and row is
    certified to 1e-11 relative plus 1e-15 absolute by 12 against 24
    nodes, else QuadratureFailure names the segment.

    Returns the integrals with the broadcast segment shape, preceded by
    the row axis for a stack of rows; a scalar for one segment and row.
    """
    prev = np.asarray(prev, float)
    exps = np.asarray(exps, float)
    rows = np.atleast_2d(exps)
    z0, z1 = np.broadcast_arrays(np.asarray(z0, complex), np.asarray(z1, complex))
    shape = z0.shape
    z0, z1 = z0.ravel(), z1.ravel()
    finite = np.isfinite(z0) & np.isfinite(z1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"segment [{z0[i]}, {z1[i]}] has a non-finite endpoint")

    direction = z1 - z0
    length = np.hypot(direction.real, direction.imag)
    safe = np.where(length > 0.0, length, 1.0)  # per part: complex division rounds differently
    unit = direction.real / safe + 1j * (direction.imag / safe)
    point = _ends(z0, z1)
    near = np.abs(point[:, None] - prev) < 1e-15
    own = np.where(near.any(axis=1), np.argmax(near, axis=1), -1)  # the prevertex at each end
    re, im = point.real[:, None] - prev, point.imag
    panels = _SegmentPanels(re, im, unit, _segment_reach(re, im, unit, length, own), own, rows)
    value = _doubled(panels.sums, 1e-11, 1e-15,
                     lambda i: f"segment [{z0[i]}, {z1[i]}]")
    return value.reshape(exps.shape[:-1] + shape)[()]


def arc_integral(prev, exps, center_idx, radius, th0, th1):
    """Integral of one exponent row along the circular arc
    z = s_c + radius * e^{i theta}, theta from th0 to th1 in [0, pi].  By
    Cauchy's theorem it is the sum of the segment integrals from the arc's
    end z0 to its apex s_c + i radius and on to its end z1: the region
    between a chord of the upper half-circle and its arc holds no real
    point, so no prevertex.  segment_integral certifies both segments and
    gives an end on a prevertex its Gauss-Jacobi panel.  No library path
    uses arcs; the benchmark tracer (perfbench/tracer.py) still looks this
    name up."""
    c = float(np.asarray(prev, float)[center_idx])
    z0, z1 = c + radius * np.exp(1j * np.array([th0, th1]))
    apex = complex(c, radius)
    return complex(segment_integral(prev, exps, [z0, apex], [apex, z1]).sum())
