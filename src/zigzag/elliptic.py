"""Extremal lengths of the distinguished curve families via elliptic periods.

Four marked boundary points of the half-plane have a cross-ratio lambda < 0
after Moebius normalization to (infinity, lambda, 0, 1).  The double cover
of the sphere branched over the four points is a torus whose periods

    omega_1 = 2 * int_(lambda,0) du / sqrt(u(u-1)(u-lambda))   (holomorphic in lambda)
    omega_2 = 2i * int_(0,1)     du / sqrt(u(1-u)(u-lambda))

give the extremal length of the curve family separating (lambda, 0) from
(1, infinity) as 2|omega_1|^2 / det(omega_1, omega_2).  Both integrals
reduce to complete elliptic integrals with complementary parameters, which
are evaluated by Carlson's symmetric-integral duplication algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCrossRatio, DomainError

__all__ = [
    "EllipticData",
    "carlson_rf",
    "cross_ratio_lambda",
    "elliptic_periods",
    "extremal_length_quad",
    "extremal_lengths",
]


@dataclass(frozen=True)
class EllipticData:
    """Cross-ratio and the period basis of the branched torus."""

    lam: float
    omega1: complex
    omega2: complex

    @property
    def lattice_ratio(self) -> complex:
        return self.omega2 / self.omega1


_RF_R = 1e-16  # Carlson's r: the series' truncation error stays below it


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson symmetric elliptic integral R_F(x, y, z) by duplication.

    Arguments nonnegative, at most one zero.  The complete elliptic
    integral of parameter m is K(m) = R_F(0, 1-m, 1).  Duplication stops
    by Carlson's criterion (Numer. Algorithms 10, 1995): once
    4^-n (3 r)^(-1/6) max|A_0 - x_0| < |A_n|, with A_n the mean of the
    duplicated arguments, the fifth-order series errs by less than
    r = 1e-16; its variables X = (A_0 - x_0) / (4^n A_n) are formed from
    the first mean, with no cancellation.
    """
    if min(x, y, z) < 0.0 or sorted((x, y, z))[1] == 0.0:
        raise DomainError(f"R_F needs nonnegative arguments, at most one zero: {(x, y, z)}")
    a = (x + y + z) / 3.0
    dx, dy = a - x, a - y
    q = (3.0 * _RF_R) ** (-1.0 / 6.0) * max(abs(dx), abs(dy), abs(a - z))
    scale = 1.0  # 4^-n
    while scale * q >= abs(a):
        lam = math.sqrt(x) * math.sqrt(y) + math.sqrt(y) * math.sqrt(z) + math.sqrt(z) * math.sqrt(x)
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        scale *= 0.25
    X, Y = dx * scale / a, dy * scale / a
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    series = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    return series / math.sqrt(a)


def cross_ratio_lambda(x1, x2, x3, x4) -> float:
    """Image of x2 under the Moebius map sending (x1, x3, x4) to
    (infinity, 0, 1); always negative for ordered real x1 < x2 < x3 < x4.

    One argument may be math.inf, at the first or last slot.
    """
    pts = [x1, x2, x3, x4]
    infinite = [i for i, x in enumerate(pts) if math.isinf(x)]
    if len(infinite) > 1:
        raise DegenerateCrossRatio("at most one point may be infinite")
    if infinite and infinite[0] not in (0, 3):
        raise DegenerateCrossRatio("an infinite point must be first or last")
    finite = [x for x in pts if not math.isinf(x)]
    if len(set(finite)) != len(finite):
        raise DegenerateCrossRatio(f"coincident points in {pts}")
    if any(b <= a for a, b in zip(finite, finite[1:])):
        raise ValueError(f"points must be strictly increasing: {pts}")
    if infinite == [0]:
        lam = (x2 - x3) / (x4 - x3)
    elif infinite == [3]:
        lam = (x2 - x3) / (x2 - x1)
    else:
        lam = (x2 - x3) * (x4 - x1) / ((x2 - x1) * (x4 - x3))
    return float(lam)


def elliptic_periods(lam: float) -> EllipticData:
    """Period basis (omega_1, omega_2) of the torus branched over
    (lambda, 0, 1, infinity), positively oriented: Im(omega2/omega1) > 0,
    omega_1 -> 2*pi as lambda -> 0-.
    """
    if not lam < 0.0:
        raise DomainError(f"need lambda < 0, got {lam}")
    eps = -lam
    scale = 2.0 / math.sqrt(1.0 + eps)
    # K(m) = R_F(0, 1 - m, 1), with each complementary parameter 1 - m formed
    # directly: 1 - eps/(1+eps) and 1 - 1/(1+eps) lose all digits by
    # cancellation as eps -> infinity and eps -> 0
    omega1 = 2.0 * scale * carlson_rf(0.0, 1.0 / (1.0 + eps), 1.0)
    omega2 = 2.0j * scale * carlson_rf(0.0, eps / (1.0 + eps), 1.0)
    return EllipticData(lam, complex(omega1), complex(omega2))


def extremal_length_quad(lam: float) -> float:
    """Extremal length 2|omega_1|^2 / det(omega_1, omega_2) of the model
    quadrilateral with cross-ratio lambda < 0."""
    data = elliptic_periods(lam)
    det = (np.conj(data.omega1) * data.omega2).imag
    return float(2.0 * abs(data.omega1) ** 2 / det)


def extremal_lengths(prev) -> tuple[float, ...]:
    """Extremal-length vector E(1), ..., E(p-1) of a prevertex tuple.

    E(k) = 2 * extremal_length_quad(lambda(s_{k-1}, s_k, s_{k+1}, s_{k+2}))
    with s_{p+1} = infinity.  Empty for genus <= 1.  Each cross-ratio is
    formed from the tuple's gaps g_a, g_b, g_c between the four points,
    lambda = -g_b (g_a + g_b + g_c) / (g_a g_c), or -g_b / g_a when the last
    point is infinite, so a gap far below the prevertices keeps its digits.
    """
    p, g = prev.genus, (1.0, *prev.free)  # g[j] = s_{j+1} - s_j
    out = []
    for k in range(1, p):
        g_a, g_b = g[k - 1], g[k]
        if k + 2 > p:
            lam = -g_b / g_a
        else:
            g_c = g[k + 1]
            lam = -g_b * (g_a + g_b + g_c) / (g_a * g_c)
        out.append(2.0 * extremal_length_quad(lam))
    return tuple(out)
