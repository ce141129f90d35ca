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


_RF_TOL = 1e-14  # relative spread of the duplicated arguments at which to stop


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson symmetric elliptic integral R_F(x, y, z) by duplication.

    Arguments nonnegative, at most one zero.  The complete elliptic
    integral of parameter m is K(m) = R_F(0, 1-m, 1).
    """
    if min(x, y, z) < 0.0 or sorted((x, y, z))[1] == 0.0:
        raise DomainError(f"R_F needs nonnegative arguments, at most one zero: {(x, y, z)}")
    for _ in range(200):
        lam = math.sqrt(x) * math.sqrt(y) + math.sqrt(y) * math.sqrt(z) + math.sqrt(z) * math.sqrt(x)
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu = (x + y + z) / 3.0
        if max(abs(x - mu), abs(y - mu), abs(z - mu)) <= _RF_TOL * mu:
            break
    X, Y = 1.0 - x / mu, 1.0 - y / mu
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    series = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    return series / math.sqrt(mu)


def _ellipk(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention."""
    return carlson_rf(0.0, 1.0 - m, 1.0)


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
    omega1 = 2.0 * scale * _ellipk(eps / (1.0 + eps))
    omega2 = 2.0j * scale * _ellipk(1.0 / (1.0 + eps))
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
    with s_{p+1} = infinity.  Empty for genus <= 1.
    """
    p = prev.genus
    out = []
    for k in range(1, p):
        xs = [prev.value(k - 1), prev.value(k), prev.value(k + 1)]
        x4 = math.inf if k + 2 > p else prev.value(k + 2)
        lam = cross_ratio_lambda(xs[0], xs[1], xs[2], x4)
        out.append(2.0 * extremal_length_quad(lam))
    return tuple(out)
