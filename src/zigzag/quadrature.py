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
panels of all segments at once, as arrays, and flattens them into entries
that each carry their rule and the exponent rows they feed; its ``sums``
evaluates the nodes of all pending entries in blocks of about 2^14
node x prevertex entries, with one log(z - s_m) matrix per block serving
every row.  ``segment_integral`` returns the contour integrals;
``interval_abs_integral`` the moduli over real intervals (s_j, s_{j+1}),
where the integrand has constant argument.  One node-doubling routine,
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


def _doubled(sums, size, rel_tol: float, abs_tol: float, what):
    """Certify panel sums of ``size`` items by node doubling from
    _BASE_NODES nodes.

    ``sums(n, active)`` returns the (R, size) sums of every row and item
    at n nodes per panel, for the items flagged in the boolean ``active``.
    An item and row passes at the first doubling whose change is within
    rel_tol * |fine| + abs_tol; an item with every row passed drops out of
    later doublings.  Returns the (R, size) values and error estimates;
    raises QuadratureFailure naming ``what(i)`` for an item i that never
    passes.
    """
    n = _BASE_NODES
    coarse = sums(n, np.ones(size, bool))
    value = np.zeros(coarse.shape, coarse.dtype)
    err = np.zeros(coarse.shape)
    pending = np.ones(coarse.shape, bool)
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        fine = sums(n, pending.any(axis=0))
        change = np.abs(fine - coarse)
        ok = pending & (change <= rel_tol * np.abs(fine) + abs_tol)
        np.copyto(value, fine, where=ok)
        np.copyto(err, change, where=ok)
        pending ^= ok
        if not pending.any():
            return value, err
        coarse = fine
    r, i = np.argwhere(pending)[0]
    rel = change[r, i] / max(abs(fine[r, i]), 1e-300)
    raise QuadratureFailure(f"{what(i)} stuck at rel err {rel:.3e} with {n} nodes")


def _graded_panels(prev, z0, z1, unit, length, i0, i1):
    """Panels (segment, lo, hi), in offsets along their segment, of every
    segment of positive length, ordered by segment and offset.

    From each end at a prevertex (index i0 or i1 >= 0) the breaks are
    graded dyadically: the first panel is half the clearance to the
    nearest other prevertex (at most a quarter of the segment), each next
    one as long as the distance back to that end, up to the midpoint; an
    end without a prevertex gives one panel up to the midpoint.  Free
    panels are then halved while longer than the clearance at their
    midpoint, at most 40 times: a straight path may graze a prevertex, and
    40 halvings resolve a closest approach of 1e-12 * length while panels
    still span ~1e4 ulps."""
    seg = np.flatnonzero(length)
    half = length[seg] / 2.0

    def breaks(z, own):
        d = np.abs(z[seg, None] - prev)
        at = np.flatnonzero(own[seg] >= 0)
        d[at, own[seg[at]]] = np.inf
        b = np.where(own[seg] >= 0, np.minimum(half, d.min(axis=1, initial=np.inf)) / 2.0, half)
        cols = [np.zeros_like(b), b]
        while (b < half).any():
            b = np.minimum(half, b + b)
            cols.append(b)
        return np.stack(cols, axis=1)

    offs = np.concatenate((breaks(z0, i0), length[seg, None] - breaks(z1, i1)[:, ::-1]), axis=1)
    lo, hi = offs[:, :-1], offs[:, 1:]
    keep = hi > lo  # rows are non-decreasing; equal breaks give no panel
    s = np.broadcast_to(seg[:, None], lo.shape)[keep]
    lo, hi = lo[keep], hi[keep]
    fixed = (lo == 0.0) & (i0[s] >= 0) | (hi == length[s]) & (i1[s] >= 0)
    done = [(s[fixed], lo[fixed], hi[fixed])]
    s, lo, hi = s[~fixed], lo[~fixed], hi[~fixed]
    for _ in range(40):
        if not s.size:
            break
        # midpoint clearance in offset coordinates, as the factors are formed:
        # absolute ones round a close approach to a prevertex to 0
        mid = 0.5 * (lo + hi)
        near = np.hypot(z0.real[s, None] - prev + (mid * unit[s].real)[:, None],
                        (z0.imag[s] + mid * unit[s].imag)[:, None])
        fits = hi - lo <= near.min(axis=1)
        done.append((s[fits], lo[fits], hi[fits]))
        s, lo, hi, mid = s[~fits], lo[~fits], hi[~fits], mid[~fits]
        s, lo, hi = np.concatenate((s, s)), np.concatenate((lo, mid)), np.concatenate((mid, hi))
    done.append((s, lo, hi))
    s, lo, hi = (np.concatenate(c) for c in zip(*done))
    order = np.lexsort((hi, lo, s))
    return s[order], lo[order], hi[order]


class _SegmentPanels:
    """Panels of a batch of segments, built once and evaluated at any node
    count for every exponent row.

    The panels of all segments are graded at once by ``_graded_panels``
    and flattened into entries, each with its rule index and a row mask: a
    Gauss-Legendre panel is one entry feeding every row, a Gauss-Jacobi end
    panel one entry per row feeding that row alone, since the absorbed
    exponent, hence the rule, differs by row (an absorbed exponent 0 gives
    the Legendre rule, still for its own row).  Factors are formed in
    offset coordinates, (z0 - s_m) + u * unit, so a short segment leaving
    a prevertex keeps its distance u exact."""

    def __init__(self, prev, rows, z0, z1, i0, i1):
        r_count = rows.shape[0]
        self.rows = rows.T
        self.re0 = z0.real[:, None] - prev
        self.im0 = z0.imag
        direction = z1 - z0
        length = np.hypot(direction.real, direction.imag)
        safe = np.where(length > 0.0, length, 1.0)  # per part: complex division rounds differently
        self.unit = direction.real / safe + 1j * (direction.imag / safe)
        seg, lo, hi = _graded_panels(prev, z0, z1, self.unit, length, i0, i1)
        h = (hi - lo) / 2.0
        left = (lo == 0.0) & (i0[seg] >= 0)
        jacobi = left | (hi == length[seg]) & (i1[seg] >= 0)
        jac, free = np.flatnonzero(jacobi), np.flatnonzero(~jacobi)
        # (z - s_end)^e = (r * ray)^e along the ray out of the absorbed end
        end = np.where(left, i0[seg], i1[seg])[jac]
        ray = np.where(left[jac], 1.0, -1.0) * self.unit[seg[jac]]
        e = rows[:, end].T.ravel()  # absorbed exponent of each (panel, row)
        each = np.repeat(jac, r_count)
        factor = h[each] ** (1.0 + e) * np.exp(e * np.repeat(np.log(ray + 0.0), r_count))
        self.seg = np.concatenate((seg[free], seg[each]))
        self.lo = np.concatenate((lo[free], lo[each]))
        self.h = np.concatenate((h[free], h[each]))
        self.end = np.concatenate((np.full(free.size, -1), np.repeat(end, r_count)))
        self.factor = np.concatenate((h[free], factor)) * self.unit[self.seg]
        self.mask = np.concatenate((np.ones((free.size, r_count), bool),
                                    np.tile(np.eye(r_count, dtype=bool), (jac.size, 1))))
        rules = np.zeros((self.seg.size, 2))
        rules[free.size:] = np.column_stack((np.where(left[each], 0.0, e),
                                             np.where(left[each], e, 0.0)))
        self.rules, self.rule = np.unique(rules, axis=0, return_inverse=True)
        self.rule = self.rule.ravel()

    def sums(self, n, active):
        """(R, S) panel sums with n nodes per panel for the active segments;
        the entries of inactive segments are zero.  Each block of entries
        takes one node array, one log matrix, one matmul pair and one exp."""
        m_count, r_count = self.rows.shape
        total = np.zeros((active.size, r_count), complex)
        keep = np.flatnonzero(active[self.seg])
        if not keep.size:  # no panels: only segments of zero length
            return total.T
        x, w = (np.array(c) for c in zip(*(_rule(n, a, b) for a, b in self.rules.tolist())))
        step = max(1, _BLOCK // (n * m_count))
        for b in range(0, keep.size, step):
            k = keep[b:b + step]
            sk, rule = self.seg[k], self.rule[k]
            u = self.lo[k, None] + self.h[k, None] * (x[rule] + 1.0)
            unit = self.unit[sk, None]
            mag, arg = _factor_logs(self.re0[sk, None, :] + (u * unit.real)[..., None],
                                    (self.im0[sk, None] + u * unit.imag)[..., None])
            jac = np.flatnonzero(self.end[k] >= 0)  # the absorbed factor is in the rule
            mag[jac, :, self.end[k[jac]]] = arg[jac, :, self.end[k[jac]]] = 0.0
            logs = (mag.reshape(-1, m_count) @ self.rows
                    + 1j * (arg.reshape(-1, m_count) @ self.rows)).reshape(k.size, n, r_count)
            vals = self.factor[k, None] * np.einsum("pnr,pn->pr", np.exp(logs), w[rule])
            np.add.at(total, sk, np.where(self.mask[k], vals, 0.0))
        return total.T


class IntervalPlan(_SegmentPanels):
    """The shared panels of real intervals (s_j, s_{j+1}): segments with
    Gauss-Jacobi panels at both ends, for one exponent row or a stack.
    Every point of an interval is nearer its ends than any other prevertex,
    so its graded panels are never halved."""

    def __init__(self, prev, exps, j):
        prev, j = np.asarray(prev, float), np.asarray(j, int).ravel()
        super().__init__(prev, np.atleast_2d(np.asarray(exps, float)),
                         prev[j] + 0j, prev[j + 1] + 0j, j, j + 1)

    integrate_abs = _SegmentPanels.sums


def interval_abs_integral(prev, exps, j):
    """Modulus integrals over real intervals (s_j, s_{j+1}), certified by
    node doubling to relative accuracy 1e-12.

    ``j`` is one interval index or an array of them, ``exps`` one exponent
    row or an (R, M) stack of rows.  The integrand has constant argument
    on an interval, so each value is the modulus of one contour integral
    of the shared kernel along it.  Returns (values, error estimates) with
    the row axis of a stack followed by the shape of ``j``, scalars for one
    row and index; raises QuadratureFailure if a doubling test never
    passes.
    """
    prev = np.asarray(prev, float)
    exps = np.asarray(exps, float)
    j = np.asarray(j, int)
    plan = IntervalPlan(prev, exps, j)
    value, err = _doubled(plan.integrate_abs, j.size, _REL_TOL, 0.0,
                          lambda i: f"interval ({prev[j.flat[i]]}, {prev[j.flat[i] + 1]})")
    shape = exps.shape[:-1] + j.shape
    return np.abs(value).reshape(shape)[()], err.reshape(shape)[()]


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
    value, _ = _doubled(panels.sums, z0.size, 1e-11, 1e-15,
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

    value, _ = _doubled(lambda n, active: np.array([[arc_sum(n)]]), 1, 1e-11, 1e-15,
                        lambda i: f"arc around index {center_idx}")
    return complex(value[0, 0])
