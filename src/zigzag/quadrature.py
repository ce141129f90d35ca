"""Panel quadrature for products with algebraic endpoint singularities.

Integrands here are of the form prod_m (z - s_m)^{e_m} with real nodes s_m
and exponents e_m > -1.  Singular endpoints are absorbed by Gauss-Jacobi
rules; the rest of a real interval or of a straight segment in the closed
upper half-plane is covered by Gauss-Legendre panels no longer than their
distance to the nearest foreign singularity (the one-half rule of compound
Gauss-Jacobi SC quadrature, Driscoll & Trefethen, Schwarz-Christoffel
Mapping, ch. 3), so every panel sees an analytic integrand with a uniformly
fat Bernstein ellipse.  A segment between two points of the closed upper
half-plane, not both real, meets the real axis at most at an endpoint, so
no path needs a detour around a prevertex.

One blocked kernel computes every integral.  ``_SegmentPanels`` grades the
panels of all segments at once, as arrays, each half of a segment from
its own end, as SCPACK integrates each half of a path (Trefethen 1980):
its offsets, its factors z - s_m and its Gauss-Jacobi end panel are all
measured from that end, so a prevertex just beyond either end keeps its
distance exact and every Jacobi rule has the one orientation (0, e).  The
panels are flattened into entries that each carry their rule and the
exponent rows they feed; ``sums`` evaluates the nodes of all pending
entries in blocks of about 2^14 node x prevertex entries, with one
log(z - s_m) matrix per block serving every row.  ``segment_integral``
returns the contour integrals;
``interval_abs_integral`` the moduli over real intervals (s_j, s_{j+1}),
where the integrand has constant argument; ``interval_jacobian`` the
interval integrals with their exact derivatives in every prevertex, the
derivative rows riding on the same panels.  One node-doubling routine,
``_doubled``, certifies each item and row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import DomainError, QuadratureFailure

_BASE_NODES = 24
_MAX_DOUBLINGS = 4
_REL_TOL = 1e-12


@lru_cache(maxsize=512)
def _rule(n: int, alpha: float, beta: float):
    x, w = roots_jacobi(n, alpha, beta)
    return x, w


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


def _doubled(sums, size, rel_tol, abs_tol: float, what, valid=None):
    """Certify panel sums of ``size`` items by node doubling from
    _BASE_NODES nodes.

    ``sums(n, active)`` returns the (R, size) sums of every row and item
    at n nodes per panel, for the items flagged in the boolean ``active``.
    An item and row passes at the first doubling whose change is within
    rel_tol * |fine| + abs_tol, where ``rel_tol`` is a number or an (R, 1)
    column of per-row tolerances; an item with every row passed drops out
    of later doublings.  A (row, item) pair masked out by the (R, size)
    boolean ``valid`` starts as passed and reads 0.  Returns the (R, size)
    values; raises QuadratureFailure naming ``what(i)`` for an item i that
    never passes.
    """
    n = _BASE_NODES
    coarse = sums(n, np.ones(size, bool))
    value = np.zeros(coarse.shape, coarse.dtype)
    pending = np.ones(coarse.shape, bool) if valid is None else valid.copy()
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        fine = sums(n, pending.any(axis=0))
        change = np.abs(fine - coarse)
        ok = pending & (change <= rel_tol * np.abs(fine) + abs_tol)
        np.copyto(value, fine, where=ok)
        pending ^= ok
        if not pending.any():
            return value
        coarse = fine
    r, i = np.argwhere(pending)[0]
    rel = change[r, i] / max(abs(fine[r, i]), 1e-300)
    raise QuadratureFailure(f"{what(i)} stuck at rel err {rel:.3e} with {n} nodes")


def _graded_panels(prev, z0, z1, unit, length, i0, i1):
    """Panels (segment, end, lo, hi) of every segment of positive length,
    each half graded from its own end: lo and hi are offsets from z0 along
    +unit for end 0, from z1 along -unit for end 1.  Ordered by segment,
    end and offset.

    From an end at a prevertex (index i0 or i1 >= 0) the breaks are graded
    dyadically: the first panel is half the clearance to the nearest other
    prevertex (at most a quarter of the segment), each next one as long as
    the distance back to that end, up to the midpoint; an end without a
    prevertex gives one panel up to the midpoint.  Free panels are then
    halved while longer than the clearance at their midpoint, at most 40
    times: a straight path may graze a prevertex, and 40 halvings resolve a
    closest approach of 1e-12 * length while panels still span ~1e4 ulps."""
    seg = np.flatnonzero(length)
    seg, end = np.tile(seg, 2), np.repeat((0, 1), seg.size)  # one row per half
    z, own, ray = (np.stack(pair)[end, seg] for pair in ((z0, z1), (i0, i1), (unit, -unit)))
    half = length[seg] / 2.0
    d = np.abs(z[:, None] - prev)
    at = np.flatnonzero(own >= 0)
    d[at, own[at]] = np.inf
    b = np.where(own >= 0, np.minimum(half, d.min(axis=1, initial=np.inf)) / 2.0, half)
    cols = [np.zeros_like(b), b]
    while (b < half).any():
        b = np.minimum(half, b + b)
        cols.append(b)
    offs = np.stack(cols, axis=1)
    lo, hi = offs[:, :-1], offs[:, 1:]
    keep = hi > lo  # rows are non-decreasing; equal breaks give no panel
    r = np.broadcast_to(np.arange(seg.size)[:, None], lo.shape)[keep]  # half of each panel
    lo, hi = lo[keep], hi[keep]
    fixed = (lo == 0.0) & (own[r] >= 0)
    done = [(r[fixed], lo[fixed], hi[fixed])]
    r, lo, hi = r[~fixed], lo[~fixed], hi[~fixed]
    for _ in range(40):
        if not r.size:
            break
        # midpoint clearance in offset coordinates, as the factors are formed:
        # absolute ones round a close approach to a prevertex to 0
        mid = 0.5 * (lo + hi)
        near = np.hypot(z.real[r, None] - prev + (mid * ray[r].real)[:, None],
                        (z.imag[r] + mid * ray[r].imag)[:, None])
        fits = hi - lo <= near.min(axis=1)
        done.append((r[fits], lo[fits], hi[fits]))
        r, lo, hi, mid = r[~fits], lo[~fits], hi[~fits], mid[~fits]
        r, lo, hi = np.concatenate((r, r)), np.concatenate((lo, mid)), np.concatenate((mid, hi))
    done.append((r, lo, hi))
    r, lo, hi = (np.concatenate(c) for c in zip(*done))
    order = np.lexsort((hi, lo, end[r], seg[r]))
    return seg[r][order], end[r][order], lo[order], hi[order]


class _SegmentPanels:
    """Panels of a batch of segments, built once and evaluated at any node
    count for every exponent row.

    The panels of all segments are graded at once by ``_graded_panels``,
    each half from its own end a, and flattened into entries, each with its
    rule index and a row mask: a Gauss-Legendre panel is one entry feeding
    every row, a Gauss-Jacobi end panel one entry per row, with the rule of
    that row's absorbed exponent (exponent 0 gives the Legendre rule).
    Every factor is formed from the panel's own end, (a - s_m) + u * ray
    with ray = +unit out of z0 and -unit out of z1, so a prevertex near
    either end keeps its distance u exact, and every Jacobi panel starts at
    offset 0, so its rule weights (1 + x) alone.

    With ``derivatives`` each row e is followed by the M rows e - delta_m,
    whose integrands are that of e over (z - s_m), on the same entries and
    rules as e, so no rule is built for them.  Such a row is not integrable
    on a segment with a Jacobi end at s_m: the (R (M+1), S) boolean
    ``valid`` masks it there, its sums are meaningless and _doubled, given
    ``valid``, reads it as 0."""

    def __init__(self, prev, rows, z0, z1, i0, i1, derivatives=False):
        r_count, m_count = rows.shape
        width = m_count + 1 if derivatives else 1
        valid = np.ones((z0.size, r_count, width), bool)
        if derivatives:
            for ends in (i0, i1):
                at = np.flatnonzero(ends >= 0)
                valid[at, :, 1 + ends[at]] = False
        self.valid = valid.reshape(z0.size, r_count * width).T
        self.derivatives = derivatives
        self.rows = rows.T
        direction = z1 - z0
        length = np.hypot(direction.real, direction.imag)
        safe = np.where(length > 0.0, length, 1.0)  # per part: complex division rounds differently
        unit = direction.real / safe + 1j * (direction.imag / safe)
        # the ends of segment i are origins 2i (z0, ray +unit) and 2i + 1 (z1, ray -unit)
        point = np.column_stack((z0, z1)).ravel()
        self.re, self.im = point.real[:, None] - prev, point.imag
        self.ray = np.column_stack((unit, -unit)).ravel()
        seg, end, lo, hi = _graded_panels(prev, z0, z1, unit, length, i0, i1)
        origin = 2 * seg + end
        own = np.column_stack((i0, i1)).ravel()[origin]  # prevertex at the panel's end
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
        mask = np.concatenate((np.ones((free.size, r_count), bool), row[:, None] == np.arange(r_count)))
        self.mask = np.repeat(mask, width, axis=1)
        self.rules, self.rule = np.unique(e, return_inverse=True)

    def sums(self, n, active):
        """(R, S) panel sums with n nodes per panel for the active segments,
        R counting the derivative rows; the entries of inactive segments
        are zero.  Each block of entries takes one node array, one log
        matrix, one matmul pair and one exp, plus, for the derivative rows,
        one exp of the factor logs and one batched matmul."""
        m_count, r_count = self.rows.shape
        total = np.zeros((active.size, self.valid.shape[0]), complex)
        keep = np.flatnonzero(active[self.seg])
        if not keep.size:  # no panels: only segments of zero length
            return total.T
        x, w = (np.array(c) for c in zip(*(_rule(n, 0.0, e) for e in self.rules.tolist())))
        step = max(1, _BLOCK // (n * m_count))
        for b in range(0, keep.size, step):
            k = keep[b:b + step]
            o, rule = self.origin[k], self.rule[k]
            u = self.lo[k, None] + self.h[k, None] * (x[rule] + 1.0)
            ray = self.ray[o, None]
            mag, arg = _factor_logs(self.re[o, None, :] + (u * ray.real)[..., None],
                                    (self.im[o, None] + u * ray.imag)[..., None])
            jac = np.flatnonzero(self.absorbed[k] >= 0)  # the absorbed factor is in the rule
            mag[jac, :, self.absorbed[k[jac]]] = arg[jac, :, self.absorbed[k[jac]]] = 0.0
            logs = (mag.reshape(-1, m_count) @ self.rows
                    + 1j * (arg.reshape(-1, m_count) @ self.rows)).reshape(k.size, n, r_count)
            values = np.exp(logs)
            vals = np.einsum("pnr,pn->pr", values, w[rule])
            if self.derivatives:  # rows e - delta_m: the integrand of e over (z - s_m)
                weighted = (values * w[rule][..., None]).transpose(0, 2, 1)
                vals = np.concatenate((vals[..., None], weighted @ np.exp(-mag - 1j * arg)),
                                      axis=2).reshape(k.size, -1)
            vals = self.factor[k, None] * vals
            np.add.at(total, self.seg[k], np.where(self.mask[k], vals, 0.0))
        return total.T


class IntervalPlan(_SegmentPanels):
    """The shared panels of real intervals (s_j, s_{j+1}): segments with
    Gauss-Jacobi panels at both ends, for one exponent row or a stack, and
    with ``derivatives`` the rows e - delta_m of _SegmentPanels.
    Every point of an interval is nearer its ends than any other prevertex,
    so its graded panels are never halved."""

    def __init__(self, prev, exps, j, derivatives=False):
        prev, j = np.asarray(prev, float), np.asarray(j, int).ravel()
        super().__init__(prev, np.atleast_2d(np.asarray(exps, float)),
                         prev[j] + 0j, prev[j + 1] + 0j, j, j + 1, derivatives)

    integrate_abs = _SegmentPanels.sums


def interval_abs_integral(prev, exps, j):
    """Modulus integrals over real intervals (s_j, s_{j+1}), certified by
    node doubling to relative accuracy 1e-12.

    ``j`` is one interval index or an array of them, ``exps`` one exponent
    row or an (R, M) stack of rows.  The integrand has constant argument
    on an interval, so each value is the modulus of one contour integral
    of the shared kernel along it, measured from its own end on either
    half.  Returns the values with the row axis of a stack followed by the
    shape of ``j``, a scalar for one row and index; raises
    QuadratureFailure if a doubling test never passes.
    """
    prev = np.asarray(prev, float)
    exps = np.asarray(exps, float)
    j = np.asarray(j, int)
    plan = IntervalPlan(prev, exps, j)
    value = _doubled(plan.integrate_abs, j.size, _REL_TOL, 0.0,
                     lambda i: f"interval ({prev[j.flat[i]]}, {prev[j.flat[i] + 1]})")
    return np.abs(value).reshape(exps.shape[:-1] + j.shape)[()]


def interval_jacobian(prev, exps, j):
    """Complex integrals I_j over real intervals (s_j, s_{j+1}) and their
    derivatives dI_j/ds_m with respect to every prevertex, from one kernel
    call.

    ``j`` is an array of interval indices, ``exps`` one exponent row e or
    an (B, M) stack.  For a prevertex m that is not an end of the interval,

        dI_j/ds_m = -e_m * integral of (t - s_m)^(e_m - 1) prod_{i != m} (t - s_i)^e_i,

    the integral of the row e - delta_m on the interval's own panels, which
    shares the base row's Gauss-Jacobi rules (IntervalPlan with
    ``derivatives``); that row is masked out on the two intervals it would
    make non-integrable.  The two end derivatives follow from translation,
    sum_m dI/ds_m = 0, and scaling about s_j,
    sum_m (s_m - s_j) dI/ds_m = (1 + sum e) I; centring the scaling at s_j
    avoids the cancellation of sum_m s_m dI/ds_m on thin tuples.  Base rows
    are certified to 1e-12 relative, derivative rows to 1e-10: at 1e-12
    they reach the rounding floor on thin tuples.  Returns
    (I, dI/ds) of shapes (B, n) and (B, M, n) for a stack, (n,) and (M, n)
    for one row; raises QuadratureFailure if a doubling test never passes.
    """
    prev = np.asarray(prev, float)
    exps = np.asarray(exps, float)
    base = np.atleast_2d(exps)
    j = np.asarray(j, int).ravel()
    b_count, m_count = base.shape
    n, cols = j.size, np.arange(j.size)
    plan = IntervalPlan(prev, base, j, derivatives=True)
    tol = np.full((b_count, m_count + 1), 1e-10)
    tol[:, 0] = _REL_TOL
    value = _doubled(plan.integrate_abs, n, tol.reshape(-1, 1), 0.0,
                     lambda i: f"interval ({prev[j[i]]}, {prev[j[i] + 1]})", plan.valid)
    value = value.reshape(b_count, m_count + 1, n)
    total, deriv = value[:, 0], -base[:, :, None] * value[:, 1:]
    scaled = (1.0 + base.sum(axis=1))[:, None] * total
    moment = np.einsum("mn,bmn->bn", prev[:, None] - prev[j], deriv)
    deriv[:, j + 1, cols] = (scaled - moment) / (prev[j + 1] - prev[j])
    deriv[:, j, cols] = -deriv.sum(axis=1)
    return total.reshape(exps.shape[:-1] + (n,)), deriv.reshape(exps.shape[:-1] + (m_count, n))


def segment_integral(prev, exps, z0, z1, sing0=None, sing1=None):
    """Contour integrals of the product along straight segments [z0, z1]
    in the closed UHP, for one exponent row or a stack of them.

    ``z0`` and ``z1`` broadcast against each other (and against
    ``sing0``/``sing1``) to the segments; ``exps`` is one row of exponents
    or an (R, M) stack of rows.  ``sing0``/``sing1`` name the prevertex
    index sitting exactly at the respective endpoint of each segment, None
    or a negative index where there is none; those ends get Gauss-Jacobi
    panels, one rule per row, the rest Gauss-Legendre panels no longer than
    their clearance to the nearest prevertex, shared by all rows.  Every
    segment and row is certified by its own node-doubling test to 1e-11
    relative plus 1e-15 absolute; a segment that never passes raises
    QuadratureFailure naming it.

    Returns the integrals with the broadcast segment shape, preceded by
    the row axis for a stack of rows; a scalar for one segment and row.
    """
    prev = np.asarray(prev, float)
    exps = np.asarray(exps, float)
    rows = np.atleast_2d(exps)
    z0, z1, i0, i1 = np.broadcast_arrays(
        np.asarray(z0, complex), np.asarray(z1, complex),
        np.asarray(-1 if sing0 is None else sing0, int),
        np.asarray(-1 if sing1 is None else sing1, int))
    shape = z0.shape
    z0, z1, i0, i1 = (a.ravel() for a in (z0, z1, i0, i1))
    finite = np.isfinite(z0) & np.isfinite(z1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"segment [{z0[i]}, {z1[i]}] has a non-finite endpoint")

    panels = _SegmentPanels(prev, rows, z0, z1, i0, i1)
    value = _doubled(panels.sums, z0.size, 1e-11, 1e-15,
                     lambda i: f"segment [{z0[i]}, {z1[i]}]")
    return value.reshape(exps.shape[:-1] + shape)[()]


def arc_integral(prev, exps, center_idx, radius, th0, th1):
    """Integral along the circular arc z = s_c + radius * e^{i theta},
    certified like segment_integral.  No library path uses arcs; the
    benchmark tracer (perfbench/tracer.py) still looks this name up."""
    prev = np.asarray(prev, float)
    exps = np.asarray(exps, float)
    c = prev[center_idx]

    def arc_sum(n):
        x, w = _rule(n, 0.0, 0.0)
        th = th0 + (th1 - th0) * (x + 1.0) / 2.0
        zs = c + radius * np.exp(1j * th)
        vals = product_value(prev, exps, zs)
        dz = 1j * radius * np.exp(1j * th)
        return (th1 - th0) / 2.0 * (w @ (vals * dz))

    value = _doubled(lambda n, active: np.array([[arc_sum(n)]]), 1, 1e-11, 1e-15,
                     lambda i: f"arc around index {center_idx}")
    return complex(value[0, 0])
