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
Every integral is certified by one node-doubling routine, ``_doubled``.
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


def _upper_branch(z):
    """Clamp signed zeros so boundary points take upper half-plane logs."""
    z = np.asarray(z, dtype=complex)
    return z.real + 1j * (z.imag + 0.0)


def product_value(prev, exps, z, skip=()):
    """prod_m (z - s_m)^{e_m} with principal branches, z in closed UHP."""
    z = _upper_branch(np.atleast_1d(z))
    acc = np.zeros(z.shape, dtype=complex)
    for m, (s, e) in enumerate(zip(prev, exps)):
        if m in skip:
            continue
        acc += e * np.log(_upper_branch(z - s))
    return np.exp(acc)


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


def _doubled(value, rel_tol: float, abs_tol: float, what: str):
    """Certify value(n) by node doubling from _BASE_NODES nodes.

    Returns (fine, |fine - coarse|) for the first doubling whose change is
    within rel_tol * |fine| + abs_tol; raises QuadratureFailure naming
    ``what`` otherwise.
    """
    n = _BASE_NODES
    coarse = value(n)
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        fine = value(n)
        err = abs(fine - coarse)
        if err <= rel_tol * abs(fine) + abs_tol:
            return fine, err
        coarse = fine
    raise QuadratureFailure(
        f"{what} stuck at rel err {err / max(abs(fine), 1e-300):.3e} with {n} nodes"
    )


def interval_abs_integral(prev, exps, j):
    """Modulus integral over (s_j, s_{j+1}) with node-doubling certification
    to relative accuracy 1e-12.

    Returns (value, error_estimate); raises QuadratureFailure if the
    doubling test never reaches it.
    """
    plan = IntervalPlan(prev, exps, j)
    return _doubled(plan.integrate_abs, _REL_TOL, 0.0,
                    f"interval ({prev[j]}, {prev[j + 1]})")


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
    """Contour integral of the product along [z0, z1] in the closed UHP.

    ``sing0``/``sing1`` name the prevertex index sitting exactly at the
    respective endpoint, if any; those ends get Gauss-Jacobi panels, the
    rest Gauss-Legendre panels no longer than their clearance to the
    nearest prevertex.  Node doubling certifies the result to 1e-11
    relative plus 1e-15 absolute.
    """
    if not (cmath.isfinite(complex(z0)) and cmath.isfinite(complex(z1))):
        raise DomainError(f"segment [{z0}, {z1}] has a non-finite endpoint")
    prev = np.asarray(prev, float)
    exps = np.asarray(exps, float)
    direction = z1 - z0
    length = abs(direction)
    if length == 0.0:
        return 0.0 + 0j
    unit = direction / length
    panels = _segment_panels(z0, z1, prev, sing0, sing1)
    last_hi = panels[-1][1]

    def absorbed(idx, ray):
        """Exponent and phase of (z - s_idx)^e = (r * ray)^e along the ray
        out of a singular endpoint."""
        e = exps[idx]
        return e, np.exp(e * np.log(_upper_branch(np.array([ray]))))[0]

    e0, phase0 = absorbed(sing0, unit) if sing0 is not None else (0.0, 1.0)
    e1, phase1 = absorbed(sing1, -unit) if sing1 is not None else (0.0, 1.0)

    def value(n):
        total = 0.0 + 0j
        for lo, hi in panels:
            h = (hi - lo) / 2.0
            if sing0 is not None and lo == 0.0:
                x, w = _rule(n, 0.0, e0)
                skip, scale = (sing0,), h ** (1.0 + e0) * phase0
            elif sing1 is not None and hi == last_hi:
                x, w = _rule(n, e1, 0.0)
                skip, scale = (sing1,), h ** (1.0 + e1) * phase1
            else:
                x, w = _rule(n, 0.0, 0.0)
                skip, scale = (), h
            zs = z0 + (lo + h * (x + 1.0)) * unit
            total += scale * unit * (w @ product_value(prev, exps, zs, skip=skip))
        return total

    return _doubled(value, 1e-11, 1e-15, f"segment [{z0}, {z1}]")[0]


def arc_integral(prev, exps, center_idx, radius, th0, th1):
    """Integral along the circular arc z = s_c + radius * e^{i theta},
    certified like segment_integral.  No library path uses arcs; the
    benchmark tracer (perfbench/tracer.py) still looks this name up."""
    prev = np.asarray(prev, float)
    exps = np.asarray(exps, float)
    c = prev[center_idx]

    def value(n):
        x, w = _rule(n, 0.0, 0.0)
        th = th0 + (th1 - th0) * (x + 1.0) / 2.0
        zs = c + radius * np.exp(1j * th)
        vals = product_value(prev, exps, zs)
        dz = 1j * radius * np.exp(1j * th)
        return (th1 - th0) / 2.0 * (w @ (vals * dz))

    return _doubled(value, 1e-11, 1e-15, f"arc around index {center_idx}")[0]
