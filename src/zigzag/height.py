"""Height function on the moduli cell and the reflexive-zigzag solve.

The height of a zigzag compares the extremal-length vectors of its two
complementary domains,

    D = sum_j [exp(1/E_ne(j)) - exp(1/E_sw(j))]^2 + [E_ne(j) - E_sw(j)]^2,

and vanishes exactly at reflexive zigzags, where the two prevertex tuples
coincide.  Genus 0 and 1 are single points with D = 0.  Higher genus is
solved for a prevertex tuple shared by both Schwarz-Christoffel maps by
one plain Newton iteration with an exact Jacobian, to the tolerance that
also ends the parameter solves in ``scmap``.  Each Newton point takes the
residual and its Jacobian for both patterns from one fill of the solve's
interval layout and one 12-node sum; the point the solve returns is
certified by 12 against 24 nodes on that plan.  The top genus is solved
directly from equal sides, with no nested parameter solve and no lower
genus: the paper's handle insertion from genus p-1 is its existence
argument by continuation, not a step of the computation.  D of the
result is the certificate, and the smallest singular value of the
Jacobian at the solution certifies that the zero is isolated.  D takes
the NE and SW parameter problems cold, as one stacked Newton solve with
one layout, filled once per Newton point for both members, each on its
own exponent row, and one certificate once neither steps; the first
failure of either ends it, and each tuple is bit for bit that of its
solve alone (scmap.solve_parameter_problems).  The
record keeps what Newton did: max|F| at every Newton point, one fill
each, from its 12-node sum but for the last, which is the certified
max|F| at the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotReflexive
from .geometry import ZigzagParams, canonicalize
from .scmap import (Prevertices, _log_ratio_system, _log_ratios, _mapped, _newton_batch,
                    ne_pattern, solve_parameter_problems, sw_pattern)
from .elliptic import extremal_lengths

__all__ = [
    "SolutionRecord",
    "height",
    "height_parts",
    "minimize",
    "continuation_solve",
]

_D_TOL = 1e-10  # the height certificate: a solve is converged iff D < _D_TOL


@dataclass(frozen=True)
class SolutionRecord:
    """A zigzag with both prevertex solutions and its height diagnostics."""

    zigzag: ZigzagParams
    prev_ne: Prevertices
    prev_sw: Prevertices
    ext_ne: tuple[float, ...]
    ext_sw: tuple[float, ...]
    height: float
    converged: bool
    # max|F| at every Newton point of the shared-prevertex solve, strictly
    # decreasing to at most 1e-12: each from one 12-node sum but the last,
    # the certified max|F| at the solution (empty without unknowns, and
    # when loaded from a file written before the history was stored)
    residuals: tuple[float, ...] = ()
    # smallest singular value of the exact Jacobian of F at the shared
    # solution (NaN without unknowns): nonzero certifies an isolated zero
    sigma_min: float = math.nan


def _height_from_ext(ext_ne, ext_sw) -> float:
    total = 0.0
    for en, es in zip(ext_ne, ext_sw):
        total += (math.exp(1.0 / en) - math.exp(1.0 / es)) ** 2
        total += (en - es) ** 2
    return total


def height_parts(z: ZigzagParams):
    """Solve both parameter problems cold, as one stacked Newton solve
    with the NE and SW patterns as its members, and return
    (prev_ne, prev_sw, ext_ne, ext_sw, D)."""
    z = canonicalize(z)
    p = z.genus
    prev_ne, prev_sw = solve_parameter_problems(z, (ne_pattern(p, z.turn_order),
                                                    sw_pattern(p, z.turn_order)))
    ext_ne = extremal_lengths(prev_ne)
    ext_sw = extremal_lengths(prev_sw)
    return prev_ne, prev_sw, ext_ne, ext_sw, _height_from_ext(ext_ne, ext_sw)


def height(z: ZigzagParams) -> float:
    """The height D(z) >= 0; zero exactly at reflexive zigzags."""
    return height_parts(z)[4]


def minimize(z0: ZigzagParams) -> SolutionRecord:
    """Solve for the reflexive zigzag near z0 by one shared-prevertex solve.

    A zigzag is reflexive exactly when its NE and SW maps share one
    prevertex tuple.  The unknowns are the log-gaps u of that shared tuple,
    and the residual compares the side-length ratios of both patterns,

        F(u) = log(ne[1:]/ne[0]) - log(sw[1:]/sw[0]),

    solved to max|F| <= 1e-12 by the plain Newton iteration that solves the
    parameter problem, from the same seed: gaps proportional to the sides
    of z0, u = log(l[1:]/l[0]), with no nested parameter solve.  Each
    Newton point takes F and its exact Jacobian for both patterns from one
    fill of the solve's layout and one 12-node sum, uncompared; the point
    Newton returns is certified by 12 against 24 nodes on its plan, and
    the NE sides, the Jacobian and its smallest singular value, stored as
    the isolation certificate, are taken from those certified values.
    Genus 0 and 1 have no unknowns.  The zigzag is read off the normalized
    NE sides; the stacked cold NE and SW parameter solves of height_parts
    then give D as an independent certificate, and the record is converged iff
    D < 1e-10, a bar some 16 orders above the D of a solution; the record
    stores D for any stricter bar.  It keeps max|F| at every Newton point,
    as the solver returns it: each entry but the last from one 12-node
    sum, and the last the certified max|F| at the solution.
    """
    z = canonicalize(z0)
    p, k = z.genus, z.turn_order
    residuals: tuple[float, ...] = ()
    sigma_min = math.nan
    if p >= 2:
        rows = np.stack((ne_pattern(p, k).exponents, sw_pattern(p, k).exponents))

        def shared(sides, ratios, J):  # both patterns share one kernel plan
            return ratios[:, 0] - ratios[:, 1], J[:, 0] - J[:, 1], sides[:, 0]

        log_ratios = _log_ratio_system(rows, 1)
        [(_, history, (_, jac, ne))] = _newton_batch(lambda u: _mapped(log_ratios(u), shared),
                                                     _log_ratios(np.asarray(z.side_lengths))[None],
                                                     f"shared-prevertex solve from {z}")
        residuals = tuple(history)
        z = canonicalize(ZigzagParams(p, k, tuple(ne)))
        sigma_min = float(np.linalg.svd(jac, compute_uv=False)[-1])
    prev_ne, prev_sw, ext_ne, ext_sw, d = height_parts(z)
    return SolutionRecord(z, prev_ne, prev_sw, ext_ne, ext_sw, d, d < _D_TOL, residuals,
                          sigma_min)


def continuation_solve(p: int, k: int = 2) -> SolutionRecord:
    """The certified reflexive zigzag of genus p and turn order k.

    One shared-prevertex solve by minimize from equal sides.  The name is
    the paper's: it reaches genus p by continuation, inserting a handle
    (geometry.add_handle) into the genus p-1 solution, which proves the
    zigzag exists; the equal-sides seed lands on the same zigzag without
    solving the lower genera.  Raises NotReflexive if the certificate D is
    not below 1e-10, and ValueError (from ZigzagParams) for p < 0 or
    k < 2; solver errors propagate unchanged.
    """
    record = minimize(ZigzagParams(p, k, (1.0,) * p))
    if not record.converged:
        raise NotReflexive(f"height {record.height:.3e} not below {_D_TOL:.1e}")
    return record
