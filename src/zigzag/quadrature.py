"""Panel quadrature for products with algebraic endpoint singularities.

Integrands here are of the form prod_m (z - s_m)^{e_m} with real nodes s_m
and exponents e_m > -1.  Singular endpoints are absorbed by Gauss-Jacobi
rules; the rest of a real interval or of a straight segment in the closed
upper half-plane is covered by Gauss-Legendre panels no longer than their
distance to the nearest foreign singularity (the one-half rule of compound
Gauss-Jacobi SC quadrature), so every panel sees an analytic integrand with
a uniformly fat Bernstein ellipse.  A segment between two points of the
closed upper half-plane, not both real, meets the real axis at most at an
endpoint, so no path needs a detour around a prevertex.

``segment_integral`` is one blocked kernel for any number of segments and
exponent rows: it builds each segment's panels once, shares them across
the rows, and evaluates the nodes of all pending panels in blocks of about
2^14 node x prevertex entries, one log(z - s_m) matrix per block serving
every row.  One node-doubling routine, ``_doubled``, certifies every
integral: each segment and row keeps its own test and drops out once
certified, and an interval or an arc is the size-1 case.
"""

from __future__ import annotations

import cmath
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


def _graded_breaks(length: float, clearance: float) -> list[float]:
    """Offsets 0 = b_0 < b_1 < ... <= length covering [0, length] from a
    singular endpoint: first panel no longer than half the clearance to the
    nearest foreign singularity, then dyadic doubling."""
    first = min(length, clearance) / 2.0
    breaks = [0.0, first]
    while breaks[-1] < length:
        h = breaks[-1]  # next panel as long as the distance back to the endpoint
        breaks.append(min(length, breaks[-1] + max(h, first)))
    return breaks


class IntervalPlan:
    """Panel decomposition of one real interval (s_j, s_{j+1}), reusable
    across node-count refinements.

    Works in offset coordinates u = t - s_j so that the distances to the
    two singular endpoints are u and length - u exactly; absolute-position
    cancellation would otherwise cap the accuracy on tiny intervals."""

    def __init__(self, prev, exps, j):
        prev = np.asarray(prev, dtype=float)
        a, b = prev[j], prev[j + 1]
        length = b - a
        others = np.delete(prev, [j, j + 1])
        da = float(np.min(np.abs(others - a))) if others.size else length
        db = float(np.min(np.abs(others - b))) if others.size else length
        half = length / 2.0
        self.left_breaks = _graded_breaks(half, min(da, length))
        self.right_breaks = _graded_breaks(half, min(db, length))
        self.exps, self.j = np.asarray(exps, float), j
        self.length = length
        self.far_offsets = np.delete(prev, [j, j + 1]) - a  # u-coords of others
        self.far_exps = np.delete(self.exps, [j, j + 1])

    def _smooth_log(self, u, include_left=True, include_right=True):
        """sum of exponent-weighted logs at offsets u, minus the absorbed
        endpoint factor(s)."""
        acc = np.zeros_like(u)
        if include_left:
            acc += self.exps[self.j] * np.log(u)
        if include_right:
            acc += self.exps[self.j + 1] * np.log(self.length - u)
        for d, e in zip(self.far_offsets, self.far_exps):
            acc += e * np.log(np.abs(u - d))
        return acc

    def integrate_abs(self, n: int) -> float:
        """Integral of prod |t - s_m|^{e_m} over the interval, n-point panels."""
        ea, eb = self.exps[self.j], self.exps[self.j + 1]
        L = self.length
        total = 0.0

        # left Gauss-Jacobi panel: weight u^{ea}
        u1 = self.left_breaks[1]
        x, w = _rule(n, 0.0, ea)
        h = u1 / 2.0
        u = h * (x + 1.0)
        g = self._smooth_log(u, include_left=False)
        total += h ** (1.0 + ea) * float(w @ np.exp(g))

        # right Gauss-Jacobi panel: weight (L - u)^{eb}
        v1 = self.right_breaks[1]
        x, w = _rule(n, eb, 0.0)
        h = v1 / 2.0
        u = L - h * (1.0 - x)
        g = self._smooth_log(u, include_right=False)
        total += h ** (1.0 + eb) * float(w @ np.exp(g))

        # interior Gauss-Legendre panels
        x, w = _rule(n, 0.0, 0.0)
        cuts = self.left_breaks[1:] + [L - v for v in self.right_breaks[1:]][::-1]
        for c0, c1 in zip(cuts[:-1], cuts[1:]):
            if c1 <= c0:
                continue
            h = (c1 - c0) / 2.0
            u = c0 + h * (x + 1.0)
            g = self._smooth_log(u)
            total += h * float(w @ np.exp(g))
        return total


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


def interval_abs_integral(prev, exps, j):
    """Modulus integral over (s_j, s_{j+1}) with node-doubling certification
    to relative accuracy 1e-12.

    Returns (value, error_estimate); raises QuadratureFailure if the
    doubling test never reaches it.
    """
    plan = IntervalPlan(prev, exps, j)
    value, err = _doubled(lambda n, active: np.array([[plan.integrate_abs(n)]]),
                          1, _REL_TOL, 0.0, lambda i: f"interval ({prev[j]}, {prev[j + 1]})")
    return float(value[0, 0]), float(err[0, 0])


def _segment_panels(z0: complex, z1: complex, prev, sing0, sing1):
    """Break [z0, z1] into panels graded away from singular endpoints and no
    longer than their clearance to the nearest prevertex."""
    length = abs(z1 - z0)
    prev = np.asarray(prev, dtype=float)
    unit = (z1 - z0) / length

    def clearance(zc, own=None):
        d = np.abs(prev - zc)
        if own is not None:
            d = np.delete(d, own)
        return float(np.min(d)) if d.size else length

    left = _graded_breaks(length / 2.0, min(clearance(z0, sing0), length)) if sing0 is not None else [0.0, length / 2.0]
    right = _graded_breaks(length / 2.0, min(clearance(z1, sing1), length)) if sing1 is not None else [0.0, length / 2.0]
    offs = left + [length - u for u in right][::-1]
    offs = sorted(set(offs))
    coarse = list(zip(offs[:-1], offs[1:]))

    panels = []

    # a straight path may graze a prevertex; 40 halvings resolve a closest
    # approach of 1e-12 * length while panels still span ~1e4 ulps
    def refine(lo, hi, depth, protected):
        if protected or depth >= 40 or hi - lo <= clearance(z0 + 0.5 * (lo + hi) * unit):
            panels.append((lo, hi))
            return
        mid = 0.5 * (lo + hi)
        refine(lo, mid, depth + 1, False)
        refine(mid, hi, depth + 1, False)

    last_hi = coarse[-1][1]
    for lo, hi in coarse:
        if hi <= lo:
            continue
        protected = (sing0 is not None and lo == 0.0) or (sing1 is not None and hi == last_hi)
        refine(lo, hi, 0, protected)
    return panels


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


class _SegmentPanels:
    """Panels of a batch of segments, built once and evaluated at any node
    count for every exponent row.

    One entry per Gauss-Legendre panel, and one per Gauss-Jacobi end panel
    and row, since the absorbed exponent, hence the rule, differs by row.
    Factors are formed in offset coordinates, (z0 - s_m) + u * unit, so a
    short segment leaving a prevertex keeps its distance u exact."""

    def __init__(self, prev, rows, z0, z1, i0, i1):
        self.rows = rows.T
        self.re0 = z0.real[:, None] - prev
        self.im0 = z0.imag
        direction = z1 - z0
        self.length = np.abs(direction)
        self.unit = direction / np.where(self.length > 0.0, self.length, 1.0)
        # (rule (alpha, beta), Jacobi end?) -> [(segment, lo, h, absorbed, row, factor)];
        # an absorbed exponent 0 gives the Legendre rule but still one row
        entries = {}
        for i in np.flatnonzero(self.length):
            unit = complex(self.unit[i])
            s0 = int(i0[i]) if i0[i] >= 0 else None
            s1 = int(i1[i]) if i1[i] >= 0 else None
            pieces = _segment_panels(complex(z0[i]), complex(z1[i]), prev, s0, s1)
            last_hi = pieces[-1][1]
            for lo, hi in pieces:
                h = (hi - lo) / 2.0
                if s0 is not None and lo == 0.0:
                    end, ray, left = s0, unit, True
                elif s1 is not None and hi == last_hi:
                    end, ray, left = s1, -unit, False
                else:
                    entries.setdefault(((0.0, 0.0), False), []).append((i, lo, h, -1, -1, h * unit))
                    continue
                # (z - s_end)^e = (r * ray)^e along the ray out of the end
                log_ray = cmath.log(complex(ray.real, ray.imag + 0.0))
                for r, e in enumerate(rows[:, end].tolist()):
                    factor = h ** (1.0 + e) * cmath.exp(e * log_ray) * unit
                    rule = (0.0, e) if left else (e, 0.0)
                    entries.setdefault((rule, True), []).append((i, lo, h, end, r, factor))
        self.groups = []
        for (rule, jacobi), ent in entries.items():
            seg, lo, h, end, row, factor = (np.array(c) for c in zip(*ent))
            self.groups.append((rule, jacobi, seg, lo, h, end, row, factor))

    def sums(self, n, active):
        """(R, S) panel sums with n nodes per panel for the active segments;
        the entries of inactive segments are zero."""
        m_count, r_count = self.rows.shape
        total = np.zeros((r_count, active.size), complex)
        step = max(1, _BLOCK // (n * m_count))
        for rule, jacobi, seg, lo, h, end, row, factor in self.groups:
            keep = np.flatnonzero(active[seg])
            x, w = _rule(n, *rule)
            for b in range(0, keep.size, step):
                k = keep[b:b + step]
                sk, pos = seg[k], np.arange(k.size)
                u = lo[k, None] + h[k, None] * (x + 1.0)
                unit = self.unit[sk, None]
                mag, arg = _factor_logs(self.re0[sk, None, :] + (u * unit.real)[..., None],
                                        (self.im0[sk, None] + u * unit.imag)[..., None])
                if jacobi:  # the absorbed factor is in the rule
                    mag[pos, :, end[k]] = arg[pos, :, end[k]] = 0.0
                logs = (mag.reshape(-1, m_count) @ self.rows
                        + 1j * (arg.reshape(-1, m_count) @ self.rows)).reshape(k.size, n, r_count)
                if jacobi:  # entry k belongs to row[k] alone
                    logs = logs[pos, :, row[k]][..., None]
                    target = row[k, None]
                else:
                    target = np.arange(r_count)[None, :]
                vals = factor[k, None] * np.einsum("pnr,n->pr", np.exp(logs), w)
                np.add.at(total, (target, sk[:, None]), vals)
        return total


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
