"""Panel quadrature for products with algebraic endpoint singularities.

Integrands are prod_m (z - s_m)^{e_m} with real nodes s_m and exponents
e_m > -1.  A singular end takes a Gauss-Jacobi rule (``_rule``); the
rest of a path takes Gauss-Legendre panels no longer than their
distance to the nearest other singularity, the one-half rule of
compound Gauss-Jacobi SC quadrature (Driscoll & Trefethen,
Schwarz-Christoffel Mapping, ch. 3), each half of a path graded from its
own end, as SCPACK integrates each half of a path (Trefethen 1980).  A
segment between two points of the closed upper half-plane, not both
real, meets the real axis at most at an end, so no path needs a detour
around a prevertex.  A fixed node count set by the tolerance, 12 nodes
per panel with 24 to compare, serves every integrand, as in Driscoll &
Trefethen's SC Toolbox, with no adaptive doubling past it.

One blocked kernel computes every integral:

- ``_doublings`` and ``_dyadic`` place the dyadic breaks of every end,
  graded for segments by ``_graded_panels`` and in closed form for real
  intervals by ``IntervalLayout``;
- ``_SegmentPanels`` flattens panels into entries, each with its rule
  and row mask, and one block loop, ``_summed``, adds them in complex
  arithmetic (``sums``) or, on a real interval, in real arithmetic
  (``IntervalPlan.integrate_abs``); ``bound`` is its a priori error;
- ``IntervalLayout`` holds what the plans of one stack of tuples share,
  and an ``IntervalPlan`` is one fill of it at the tuples' gaps;
- ``_certified`` is the one comparison of 12- against 24-node sums.

The entry points are ``interval_abs_integral`` (certified lengths of the
images of real intervals), ``IntervalLayout.point`` (a Newton point's
integrals and derivatives, certified later), ``segment_integral``
(contour integrals, proven a priori or compared) and ``product_value``.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureFailure

_BASE_NODES = 12
_REL_TOL = 1e-12
_SEGMENT_TOL = 1e-11, 1e-15  # relative and absolute, per segment and row
_THETAS = (0.3, 0.45, 0.6, 0.75, 0.85, 0.95)  # ellipse sizes theta d_min / h tried per entry
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # the least normal gap IntervalPlan takes


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


def _certified(coarse, fine, rel_tol, abs_tol: float, what):
    """Certify panel sums by one comparison: ``coarse`` and ``fine``, the
    (R, S) sums of every row and item at 12 and at 24 nodes per panel
    (_BASE_NODES and its double), else QuadratureFailure.

    Every (row, item) pair must change by at most rel_tol * |fine| +
    abs_tol; a pair that no entry feeds is exactly 0 at both counts and
    passes.  Returns ``fine``; raises QuadratureFailure naming ``what(i)``
    for the first item i with a failing pair.
    """
    change = np.abs(fine - coarse)
    failed = ~(change <= rel_tol * np.abs(fine) + abs_tol)
    if failed.any():
        i, r = np.argwhere(failed.T)[0]
        rel = change[r, i] / max(abs(fine[r, i]), 1e-300)
        raise QuadratureFailure(
            f"{what(i)} stuck at rel err {rel:.3e} with {2 * _BASE_NODES} nodes")
    return fine


def _doublings(b, reach):
    """The number n of free panels [b 2^i, min(reach, b 2^(i+1))], i < n,
    of ends with first break b > 0 and reach >= b: the least n >= 0 with
    b 2^n >= reach, read off the binary exponents of b and reach."""
    (m_r, e_r), (m_b, e_b) = np.frexp(reach), np.frexp(b)
    return e_r - e_b + (m_b < m_r)


def _steps(count):
    """(end, i) of every free panel of ends with ``count`` of them, in order."""
    end = np.arange(count.size).repeat(count)
    return end, np.arange(end.size) - (count.cumsum() - count).repeat(count)


def _dyadic(b, reach, end, i):
    """(lo, hi) of the free panels (end, i): [b 2^i, min(reach, b 2^(i+1))],
    lo placed exactly by np.ldexp."""
    lo = np.ldexp(b[end], i)
    return lo, np.minimum(reach[end], lo + lo)


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
    end, up to the reach (_doublings and _dyadic, as for an interval); an
    end without a prevertex gives one panel up to its reach.  A first
    panel that rounds to 0, at a prevertex end whose reach is a few
    subnormals, would give a negative count and raises DomainError.  Free
    panels are then halved while longer than the clearance at their
    midpoint, at most 40 times: a straight path may graze a prevertex,
    and 40 halvings resolve a closest approach of 1e-12 * length while
    panels still span ~1e4 ulps.  A whole segment,
    an end of reach L whose other end has reach 0, is one panel [0, L]
    built directly: _segment_reach has already found it no longer than
    its midpoint clearance, the test the halving would repeat.  Only the
    segments of segment_integral are graded here; on a real interval no
    panel is ever halved, and IntervalPlan places the same dyadic breaks
    with no clearance test."""
    o = np.flatnonzero(reach)  # one row per end that makes panels
    seg, end = o // 2, o % 2
    whole = reach[o ^ 1] == 0.0  # a whole segment: one panel [0, L], checked by _segment_reach
    reach = reach[o]
    at = np.flatnonzero(own[o] >= 0)
    d = np.hypot(re[o[at]], im[o[at], None])
    d[np.arange(at.size), own[o[at]]] = np.inf
    b = reach.copy()
    b[at] = np.minimum(reach[at], d.min(axis=1, initial=np.inf)) / 2.0
    if not (b > 0.0).all():  # a first break of 0 would give a negative count
        i = seg[np.argmin(b > 0.0)]
        raise DomainError(f"segment {i} is too short to grade from the prevertex at its end: "
                          "its first panel rounds to 0")
    r, i = _steps(_doublings(b, reach))  # the end row of each free panel
    lo, hi = _dyadic(b, reach, r, i)
    r = np.concatenate((np.arange(b.size), r))  # each end's first panel [0, b] first
    lo, hi = np.concatenate((np.zeros_like(b), lo)), np.concatenate((b, hi))
    fixed = ((lo == 0.0) & (own[o[r]] >= 0)) | whole[r]
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


def _jacobi_entries(jac, own, rows, group):
    """The Gauss-Jacobi entries of panels at origins ``jac``, whatever the
    panels' lengths: each panel once per row, with the rule of that row's
    exponent at the origin's prevertex ``own``.  ``rows`` is a (G, R, M)
    stack of exponent rows and ``group`` the index into it of each segment.

    Returns a dict of their origin, absorbed prevertex, row mask, the
    exponent e and power 1 + e of the absorbed factor (z - s_own)^e =
    (u ray)^e, and rule among ``rules``, the distinct exponents with the 0
    of the free panels' Gauss-Legendre rule (``zero`` its index);
    ``stacked`` if there are rows per group, for _entries."""
    r_count = rows.shape[1]
    row = np.arange(jac.size * r_count) % r_count
    jac = jac.repeat(r_count)
    each = own[jac]
    e = rows[group[jac >> 1], row, each]
    rules = np.sort(np.concatenate(((0.0,), e)))
    rules = rules[np.concatenate(((True,), rules[1:] != rules[:-1]))]
    return {"origin": jac, "absorbed": each, "mask": row[:, None] == np.arange(r_count),
            "exponent": e, "power": 1.0 + e, "rules": rules, "rule": np.searchsorted(rules, e),
            "zero": np.searchsorted(rules, 0.0), "stacked": rows.shape[0] > 1}


def _entries(free, jacobi, group, free_mask):
    """The entries of a batch of panels, as far as they do not depend on
    where the panels' breaks fall: the free panels from origins ``free``,
    in order, with the row mask ``free_mask``, then the Gauss-Jacobi
    entries ``jacobi`` (_jacobi_entries).  ``group`` is the index of each
    segment into the stack of rows.  With rows per group, the entries of
    each group are gathered in that order (a stable sort), so a group's
    entries are those of a call on its segments alone, in the same order;
    with one group nothing moves.

    Returns (order, power, entries): the gather from panels to entries, to
    apply to (the free panels' values, those of each Jacobi entry); the
    power of each entry's absorbed factor (1 on a free entry), for its
    factor; and the plan attributes of the entries as a dict: origin, seg,
    absorbed (-1 for a free entry), the row mask, rules and rule."""
    origin = np.concatenate((free, jacobi["origin"]))
    order = np.argsort(group[origin >> 1], kind="stable") if jacobi["stacked"] else slice(None)
    origin, f = origin[order], free.size
    power = np.concatenate((np.ones(f), jacobi["power"]))[order]
    return order, power, {
        "origin": origin, "seg": origin >> 1,
        "absorbed": np.concatenate((np.full(f, -1), jacobi["absorbed"]))[order],
        "mask": np.concatenate((free_mask, jacobi["mask"]))[order],
        "rules": jacobi["rules"] if origin.size else jacobi["rules"][:0],
        "rule": np.concatenate((np.full(f, jacobi["zero"]), jacobi["rule"]))[order],
    }


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
    ``_graded_panels`` from that same table, each end up to its reach (an
    IntervalPlan places the same dyadic breaks with no clearance test and
    keeps the rest), and flattened into entries (_entries), each with its
    rule index and a row mask: a Gauss-Legendre panel is one entry feeding
    every row, a Gauss-Jacobi end panel one entry per row, with the rule of
    that row's absorbed exponent (exponent 0 gives the Legendre rule).
    Every factor is formed from the panel's own end, (a - s_m) + u * ray,
    so a prevertex near either end keeps its distance u exact, and every
    Jacobi panel starts at offset 0, so its rule weights (1 + x) alone.
    ``sums``
    evaluates the factors in complex arithmetic, as a segment off the real
    axis needs; IntervalPlan.integrate_abs evaluates an interval's in real
    arithmetic, and both run the one block loop ``_summed``.

    ``rows`` is one (R, M) stack of exponent rows for every segment; an
    IntervalPlan may instead give each tuple its own rows.  ``self.rows``
    holds them as a (G, M, R) stack and segment i takes rows[group[i]]."""

    def __init__(self, re, im, unit, reach, own, rows):
        self.s_count = unit.size
        self.re, self.im, self.ray = re, im, _ends(unit, -unit)
        seg, end, lo, hi = _graded_panels(re, im, self.ray, reach, own)
        origin = 2 * seg + end
        jacobi = (lo == 0.0) & (own[origin] >= 0)
        free = ~jacobi
        self.rows, self.group = rows[None].transpose(0, 2, 1), np.zeros(unit.size, int)
        jac = _jacobi_entries(origin[jacobi], own, rows[None], self.group)
        order, power, entries = _entries(origin[free], jac, self.group,
                                         np.ones((free.sum(), rows.shape[0]), bool))
        self.__dict__.update(entries)
        top = hi[jacobi].repeat(rows.shape[0])
        self.lo = np.concatenate((lo[free], np.zeros(top.size)))[order]
        self.h = (np.concatenate((hi[free] - lo[free], top)) / 2.0)[order]
        # the phase ray^e of each Jacobi entry's absorbed factor (u ray)^e
        phase = np.exp(jac["exponent"] * np.log(self.ray[jac["origin"]] + 0.0))
        phase = np.concatenate((np.ones(free.sum(), complex), phase))[order]
        self.factor = self.h ** power * phase * unit[self.seg]

    def _blocks(self, step):
        """The entries in blocks of at most ``step``, each a list of pieces
        (start, stop, g): runs of entries that share the rows of group g.
        Each group's entries are cut into pieces of ``step`` from its
        first, the blocks a call on its segments alone would take; a block
        holds consecutive pieces while they fit, so a stack of small groups
        is one block and still one matmul per piece."""
        edges = [0, self.seg.size]
        if len(self.rows) > 1:  # each group's entries are one run (_entries)
            group = self.group[self.seg]
            edges[1:1] = (np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()
        blocks = []
        for start, stop in zip(edges, edges[1:]):
            g = int(self.group[self.seg[start]])
            for b in range(start, stop, step):
                piece = (b, min(b + step, stop), g)
                if blocks and piece[1] - blocks[-1][0][0] <= step:
                    blocks[-1].append(piece)
                else:
                    blocks.append([piece])
        return blocks

    _batches = None  # each sum builds its blocks as it takes them

    def _batches_at(self, n):
        """The blocks of a sum with n nodes per panel, of about _BLOCK node
        x prevertex entries each: (k, x1, seg, mask, block) for the entries
        k, a slice, with the (K, n) nodes x + 1 of each entry's rule, their
        seg and row mask, and what the block routine reads of them, block =
        (pieces, w, origin, ray, jac, absorbed): the pieces (start, stop,
        rows) of _by_piece, counted from the block's first entry, the (K, n)
        weights of each entry's rule, the entries' origin and ray, and the
        Jacobi entries jac among them with the prevertex each absorbed.
        Segment panels build them as the sum takes them; the plans of one
        interval layout share a ``_batches`` memo wherever their panel
        counts agree (IntervalLayout), and build them at the first such
        sum."""
        step = max(1, _BLOCK // (n * self.rows.shape[1]))
        if self._batches is None:
            return self._built(n, step)
        batches = self._batches.get((n, step))
        if batches is None:
            batches = self._batches[(n, step)] = list(self._built(n, step))
        return batches

    def _built(self, n, step):
        """The blocks of _batches_at, one at a time."""
        if not self.seg.size:  # no panels: only segments of zero length
            return
        x, w = (np.array(c) for c in zip(*(_rule(n, e) for e in self.rules.tolist())))
        for pieces in self._blocks(step):
            first = pieces[0][0]
            k = slice(first, pieces[-1][1])
            rule, origin, absorbed = self.rule[k], self.origin[k], self.absorbed[k]
            jac = np.flatnonzero(absorbed >= 0)  # the absorbed factor is in the rule
            local = [(b - first, stop - first, self.rows[g]) for b, stop, g in pieces]
            yield k, x[rule] + 1.0, self.seg[k], self.mask[k], (
                local, w[rule], origin, self.ray[origin, None], jac, absorbed[jac])

    def _complex_block(self, block, u, factor):
        """One log matrix, one matmul pair, one exp and two batched matmuls
        per block: the (2, K, R) sums of the K entries, factor sum_k w_k
        f(z_k), stacked on their moduli sums, |factor| sum_k w_k |f(z_k)|."""
        pieces, w, origin, ray, jac, absorbed = block
        r_count = pieces[0][2].shape[1]
        mag, arg = _factor_logs(self.re[origin, None, :] + (u * ray.real)[..., None],
                                (self.im[origin, None] + u * ray.imag)[..., None])
        mag[jac, :, absorbed] = arg[jac, :, absorbed] = 0.0
        values = np.empty((mag.shape[0] * mag.shape[1], r_count), complex)
        values.real, values.imag = _by_piece(mag, pieces), _by_piece(arg, pieces)
        values = np.exp(values, out=values).reshape(u.shape[0], u.shape[1], r_count)
        w = w[:, None, :]
        return np.stack((factor * np.matmul(w, values)[:, 0],
                         np.abs(factor) * np.matmul(w, np.abs(values))[:, 0]))

    def _summed(self, n, block_sums, total):
        """``total`` plus the n-node sums of every block, each entry's added
        to its segment on the second last axis: ``block_sums(block, u,
        factor)`` returns the (..., K, R) sums of the block's K entries at
        their nodes u, times their factors; the row mask zeroes the pairs
        an entry does not feed, and np.add.at adds the entries in order, so
        each segment sums its entries in entry order."""
        for k, x1, seg, mask, block in self._batches_at(n):
            vals = block_sums(block, self.lo[k, None] + self.h[k, None] * x1, self.factor[k, None])
            np.add.at(total, (..., seg, slice(None)), np.where(mask, vals, 0.0))
        return total

    def sums(self, n):
        """(R, S) panel sums with n nodes per panel, in complex arithmetic,
        and the (R, S) sums of their entries' moduli, |factor| sum_k w_k
        |f(z_k)| per entry, the scale of their rounding (bound)."""
        total = np.zeros((2, self.s_count, self.mask.shape[1]), complex)
        total = self._summed(n, self._complex_block, total)
        return total[0].T, total[1].real.T

    def bound(self, n, moduli):
        """(R, S) bound on the error of the n-node sums of every segment and
        row: the sum over the segment's entries of an a priori truncation
        bound, plus a rounding term scaled by ``moduli``, the sums of the
        entries' moduli that ``sums(n)`` returns with them.

        Truncation (Trefethen, Approximation Theory and Approximation
        Practice, Thms 8.2 and 19.3; SIAM Rev. 50, 2008): an n-node Gauss
        rule for a positive weight of mass mu0 on [-1, 1], 2 for
        Gauss-Legendre and 2^(1+e) / (1+e) for the Jacobi weight (1 + x)^e,
        integrates a g analytic in the Bernstein ellipse E_rho with |g| <= M
        there to within 4 mu0 M rho^(-2n) / (1 - 1/rho).  An entry's panel
        has centre c and half-length h, and g is the product of its row's
        factors (z - s_m)^e_m but the absorbed one, at distances d_m =
        |c - s_m| from c, the least d_min.  For theta in _THETAS, E_rho with
        semi-axis a = theta d_min / h > 1, rho = a + sqrt(a^2 - 1), lies
        within theta d_min of c, so g is analytic there and, with x_m =
        theta d_min / d_m <= theta, log|g| <= sum_m e_m log d_m + sum_{e_m
        < 0} |e_m| x_m / (1 - x_m) + sum_{e_m > 0} e_m x_m, from log(1 - x)
        >= -x / (1 - x) and log(1 + x) <= x.  For real exponents |g| is
        that product of moduli on every branch, so the continuation below
        the real axis is bounded too.  The least of these bounds over theta,
        times |factor| = h^(1+e), bounds the entry; a theta with a <= 1
        gives none, and an entry with no theta is unbounded (inf).

        Rounding, a first-order model after Rump (Acta Numerica 19, 2010):
        forming d_m = (o - s_m) + u ray from the panel's origin o errs by
        about eps (|o - s_m| + |u|) / |d_m| relative, log|d_m| and arg d_m
        by eps (|log|d_m|| + pi + 2), their row sum by an ulp of each term,
        and exp, the weights and the n-term sum by n + 8 ulps.  So a node's
        value errs by eps kappa relative, kappa = n + 8 + sum_m |e_m|
        (|log d_m| + 6 + 2 (|o - s_m| + lo + 2h) / d_m) over the factors in
        g, taken at the centre (a node is no nearer s_m than d_m / 2), and
        the sum by eps kappa times its moduli sum |factor| sum_k w_k
        |f(z_k)|; a segment takes the largest kappa of its entries.  Its
        row sum of M terms may err by up to M - 1 ulps of each in the worst
        case, so this is a model, not a bound.  On the resolution-24 meshes
        of genus 2 to 160, |S_n - S_96| is at most 0.12 of the whole bound
        at n = 4 to 24, and against mpmath it holds on every test segment."""
        origin, ray, mid = self.origin, self.ray[self.origin], self.lo + self.h
        d = np.hypot(self.re[origin] + (mid * ray.real)[:, None],
                     (self.im[origin] + mid * ray.imag)[:, None])
        jac = np.flatnonzero(self.absorbed >= 0)
        d[jac, self.absorbed[jac]] = np.inf  # in the rule, not in g
        d_min = d.min(axis=1, initial=np.inf)
        far = np.isfinite(d)
        rows = self.rows[0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = np.divide(d_min[:, None], d, out=np.zeros_like(d), where=far)
            log_d = np.log(d, out=np.zeros_like(d), where=far)
            log_g = log_d @ rows
            grow, shrink = q @ np.maximum(rows, 0.0), np.maximum(-rows, 0.0)
            power = 1.0 + self.rules[self.rule]
            scale = np.log(4.0 * 2.0 ** power / power) + power * np.log(self.h)  # 4 mu0 |factor|
            best = np.full(self.mask.shape, np.inf)
            for theta in _THETAS:
                a = theta * d_min / self.h
                log_rho = np.arccosh(np.maximum(a, 1.0))
                x = theta * q
                log_b = ((scale - 2 * n * log_rho - np.log1p(-np.exp(-log_rho)))[:, None]
                         + log_g + theta * grow + (x / (1.0 - x)) @ shrink)
                best = np.minimum(best, np.where((a > 1.0)[:, None], log_b, np.inf))
            entry = np.where(self.mask, np.exp(best), 0.0)
            reach = (np.abs(self.re[origin]) + np.abs(self.im[origin])[:, None]
                     + (self.lo + 2.0 * self.h)[:, None]) / d
            kappa = n + 8.0 + np.where(far, np.abs(log_d) + 6.0 + 2.0 * reach, 0.0) @ np.abs(rows)
        total, worst = np.zeros((2, self.s_count, self.mask.shape[1]))
        np.add.at(total, self.seg, entry)
        np.maximum.at(worst, self.seg, np.where(self.mask, kappa, 0.0))
        return total.T + _EPS * worst.T * moduli

    def _of(self, keep):
        """These panels restricted to the segments ``keep`` (S,) bool,
        renumbered in order: the same entries, offsets and factors."""
        sub = copy.copy(self)
        kept = keep[self.seg]
        for name in ("origin", "absorbed", "mask", "rule", "lo", "h", "factor"):
            setattr(sub, name, getattr(self, name)[kept])
        sub.seg, sub.s_count = (np.cumsum(keep) - 1)[self.seg[kept]], int(keep.sum())
        return sub


def _by_piece(a, pieces):
    """The products a[start:stop] @ rows of the entries of each piece
    (start, stop, rows), as rows of one array, the entries' trailing axes
    before the last flattened: one matmul per piece, so each piece's
    product is the one its entries would give as a block alone."""
    m_count = a.shape[-1]
    if len(pieces) == 1:  # no copy for a block of one group
        return a.reshape(-1, m_count) @ pieces[0][2]
    return np.concatenate([a[b:e].reshape(-1, m_count) @ rows for b, e, rows in pieces])


class IntervalLayout:
    """What the interval plans of one stack of tuples share whatever their
    gaps: IntervalPlan(gaps, exps, j, derivatives) is ``IntervalLayout(
    gaps.shape, exps, j, derivatives)`` filled once, and a Newton solve
    builds one layout and fills it at each of its points.

    ``shape`` is that of the gaps, (M-1,) for one tuple or (T, M-1) for a
    stack; ``exps``, ``j`` and ``derivatives`` are as for IntervalPlan.
    The layout holds the interval ends, their tuples and outer neighbours,
    the masks that take each end's offsets as partial sums of its tuple's
    gaps, the exponent rows, the Jacobi entries with their exponents and
    rules (_jacobi_entries), the derivative rows' mask, and for ``point``
    the maps that unpack its Jacobian.  The panel counts of the ends are
    all that the entries of a plan take from its gaps (the
    free entries, their order among the Jacobi ones, the mask and the
    blocks of its sums): these are built once per vector of counts, at
    its first fill, and shared by every plan of the layout with those
    counts, of which a solve meets one to three.  A fill then computes
    only what moves with the gaps: the offsets, each end's reach, first
    break and panel count, and the entries' offsets, half-lengths and
    factors, bit for bit those of a fresh IntervalPlan.  A layout lives
    as long as its holder, a Newton system; none is kept from one solve to
    the next.

    Raises ValueError for intervals of the wrong shape or outside 0..M-2,
    or rows per tuple that do not match the stack; a fill raises
    DomainError for the gaps IntervalPlan rejects."""

    def __init__(self, shape, exps, j, derivatives=False):
        exps, j, self._shape = np.asarray(exps, float), np.asarray(j, int), tuple(shape)
        self._row_shape, self._j_shape = _row_shape(exps), j.shape
        t_count, m1 = self._stack = self._shape if len(self._shape) == 2 else (1,) + self._shape
        if len(self._shape) == 1:  # one tuple is a stack of one
            j = j[None]
        if j.ndim == 0 or j.shape[0] != t_count:
            raise ValueError(f"a stack of {t_count} gap tuples needs intervals of shape "
                             f"({t_count}, ...), got {j.shape}")
        tup = np.arange(j.shape[0]).repeat(j[0].size if j.size else 0)  # tuple row
        j = j.ravel()
        if j.min(initial=0) < 0 or j.max(initial=-1) >= m1:
            raise ValueError(f"interval index {j[(j < 0) | (j >= m1)][0]} outside 0..{m1 - 1}")
        if exps.ndim == 3:  # rows per tuple
            if exps.shape[0] != t_count:
                raise ValueError(f"a stack of {t_count} gap tuples needs exponent rows of "
                                 f"shape ({t_count}, R, M) or (R, M), got {exps.shape}")
            rows, group = exps, tup
        else:  # one stack of rows shared by every tuple
            rows, group = np.atleast_2d(exps)[None], np.zeros(j.size, int)
        r_count, m_count = rows.shape[1:]
        self._ends, self._owner = (j[:, None] + (0, 1)).ravel(), tup.repeat(2)  # s_j, s_{j+1}
        ray = np.ones(self._ends.size)
        ray[1::2] = -1.0
        self._rows, self._plan = rows, {
            "rows": rows.transpose(0, 2, 1), "group": group, "tup": tup, "j": j,
            "derivatives": derivatives, "s_count": j.size, "im": np.zeros(self._ends.size),
            "ray": ray}
        # A fill pads each tuple's gaps by inf on both sides, none past its
        # ends.  Each end's offsets s_a - s_m are partial sums of its own
        # tuple's gaps taken outward from a, nearest gap first, from a 0 in
        # place of a pad: upward over the gaps above a, then downward over
        # those below it, reversed, in the two halves of _outward.  Each end
        # reaches half its interval's gap; its outer neighbour is the next
        # gap out, or a pad: indices into the padded gaps, flattened.
        a = self._ends[:, None]
        self._outward = np.concatenate((np.arange(-1, m1) >= a, np.arange(m1, -1, -1) < a))
        at = tup * (m1 + 2) + j
        self._reach, self._outer = (at + 1).repeat(2), (at[:, None] + (0, 2)).ravel()
        self._none = np.full((t_count, 1), np.inf)
        self._by_count, self._zeros = {}, np.zeros(self._ends.size * r_count)
        self._jacobi = _jacobi_entries(np.arange(self._ends.size), self._ends, rows, group)
        if derivatives:
            width, s = m_count + 1, np.arange(j.size)
            valid = np.ones((j.size, r_count, width), bool)
            valid[s, :, 1 + j] = valid[s, :, 2 + j] = False
            self._valid = valid.reshape(j.size, r_count * width)
            self._jacobi["mask"] = (np.repeat(self._jacobi["mask"], width, axis=1)
                                    & self._valid[self._jacobi["origin"] >> 1])
            # point: the rows e of each interval, (R, M, S), and 1 + sum e, (R, S)
            self._neg_e = -rows[group].transpose(1, 2, 0)
            self._growth = (1.0 + rows.sum(axis=-1))[group].T
            self._lower = np.arange(m_count - 1)[:, None] < j  # gaps below each interval
            self._cols = np.arange(j.size)

    def _structure(self, count):
        """(free, steps, order, power, entries) of the panel counts
        ``count`` of the ends, built at the first fill with them: the end of
        each free panel and its index among that end's panels, and what
        _entries returns, with the derivative rows' mask."""
        key = count.tobytes()
        found = self._by_count.get(key)
        if found is None:
            free, steps = _steps(count)
            mask = (self._valid[free >> 1] if self._plan["derivatives"]
                    else np.ones((free.size, self._rows.shape[1]), bool))
            order, power, entries = _entries(free, self._jacobi, self._plan["group"], mask)
            entries["_batches"] = {}  # the blocks of its sums, shared by its fills
            found = self._by_count[key] = free, steps, order, power, entries
        return found

    def fill(self, gaps):
        """The IntervalPlan of this layout at ``gaps``, of its shape."""
        plan = IntervalPlan.__new__(IntervalPlan)
        self._fill(plan, gaps)
        return plan

    def _fill(self, plan, gaps):
        gaps = np.asarray(gaps, float)
        if gaps.shape != self._shape:
            raise ValueError(f"the layout takes gaps of shape {self._shape}, got {gaps.shape}")
        gaps = gaps.reshape(self._stack)
        padded = np.concatenate((self._none, gaps, self._none), axis=1)
        near = padded[self._owner]
        near = np.where(self._outward, np.concatenate((near[:, :-1], near[:, :0:-1])), 0.0)
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            sums = np.cumsum(near, axis=1)
        offsets = sums[self._owner.size:, ::-1] - sums[:self._owner.size]
        # with every gap at least tiny the sums only grow, so the largest
        # is finite if all are
        if not (gaps.min(initial=np.inf) >= _TINY and sums.max(initial=0.0) < np.inf):
            self._refuse(gaps, offsets)
        padded = padded.ravel()
        reach = padded[self._reach] / 2.0
        b = np.minimum(reach, padded[self._outer]) / 2.0
        free, steps, order, power, entries = self._structure(_doublings(b, reach))
        lo, hi = _dyadic(b, reach, free, steps)
        plan.__dict__.update(self._plan, **entries)
        plan.gaps, plan.re = gaps, offsets
        plan.lo = np.concatenate((lo, self._zeros))[order]
        plan.h = (np.concatenate((hi - lo, b.repeat(self._rows.shape[1]))) / 2.0)[order]
        plan.factor = plan.h ** power

    def _refuse(self, gaps, offsets):
        """DomainError naming the first bad tuple and its first bad gap or
        partial sum."""
        bad_gap, bad_sum = ~(gaps >= _TINY), ~np.isfinite(offsets)
        bad = bad_gap.any(axis=1)
        bad[self._owner[bad_sum.any(axis=1)]] = True
        t = np.argmax(bad)
        if bad_gap[t].any():
            i = np.argmax(bad_gap[t])
            what = f"gap {i} is {gaps[t, i]}"
        else:
            e, m = np.argwhere(bad_sum & (self._owner == t)[:, None])[0]
            what = f"partial sum s_{self._ends[e]} - s_{m} is {offsets[e, m]}"
        raise DomainError("interval gaps must be positive normal floats with finite "
                          f"partial sums: tuple {t}, {what}")

    def point(self, gaps):
        """One point of a Newton iteration at ``gaps``, from one fill of
        this layout, which must have derivative rows: (values, certify).

        ``values`` is (I, g dI/dg), the real integrals I_j of the moduli of
        the integrands over the layout's intervals (s_j, s_{j+1}) and their
        signed derivatives g_i dI_j/dg_i in the log of every gap of the
        interval's own tuple (_unpack), from one sum at _BASE_NODES (12)
        nodes per panel, with no comparison.
        ``certify()`` sums the same plan at twice that, each time it is
        called (a Newton solve calls it at most once per point), compares
        the two on every interval and row, to 1e-12 relative, and returns
        the certified (I, g dI/dg), or raises QuadratureFailure naming the
        first failing interval; so a solve certifies the point it returns
        without building its plan again.
        I has the row axis of a stack of rows followed by the shape of
        ``j``, g dI/dg the gap axis i of length M-1 inserted before the
        shape of ``j``.  The fill raises DomainError for the gaps
        IntervalPlan rejects."""
        plan = self.fill(gaps)
        scale = plan.gaps[plan.tup].T  # the gaps of each interval's tuple, (M-1, S)
        coarse = plan.integrate_abs(_BASE_NODES)

        def certify():
            fine = plan.integrate_abs(2 * _BASE_NODES)
            return self._unpack(_certified(coarse, fine, _REL_TOL, 0.0, plan.name), scale)

        return self._unpack(coarse, scale), certify

    def _unpack(self, value, scale):
        """The real (I, g dI/dg) of ``point`` from the (R(M+1), S) real sums
        ``value`` of a fill whose tuples have the gaps ``scale``.

        For a prevertex m that is not an end of the interval, I_j being the
        integral of prod_i |t - s_i|^e_i,

            dI_j/ds_m = -e_m * integral of prod_i |t - s_i|^e_i / (t - s_m),

        the sum of the row e - delta_m on the interval's own panels, signed
        by its real 1/(t - s_m) and sharing the base row's Gauss-Jacobi
        rules (IntervalPlan with ``derivatives``); that row reads exactly 0
        on the two intervals it would make non-integrable.  A gap g_i moves
        the prevertices above it, so by translation invariance dI_j/dg_i =
        -sum_{m <= i} dI_j/ds_m below the interval and sum_{m > i} dI_j/ds_m
        above it: neither sum holds an end, so no end derivatives of size
        I/g cancel next to a tiny gap.  The interval's own gap follows from
        homogeneity, sum_i g_i dI/dg_i = (1 + sum e) I."""
        b_count, m_count, s_count = self._neg_e.shape
        j, cols = self._plan["j"], self._cols
        value = value.reshape(b_count, m_count + 1, s_count)
        total, ds = value[:, 0], self._neg_e * value[:, 1:]  # dI/ds_m, 0 at the ends
        below = np.cumsum(ds, axis=1)[:, :-1]  # sum over m <= i, for gap i
        above = np.cumsum(ds[:, ::-1], axis=1)[:, -2::-1]  # sum over m > i
        dlog = scale * np.where(self._lower, -below, above)
        dlog[:, j, cols] = 0.0
        dlog[:, j, cols] = self._growth * total - dlog.sum(axis=1)
        return (total.reshape(self._row_shape + self._j_shape),
                dlog.reshape(self._row_shape + (m_count - 1,) + self._j_shape))


class IntervalPlan(_SegmentPanels):
    """The shared panels of real intervals (s_j, s_{j+1}) of a (T, M-1)
    stack of tuples with gaps s_{m+1} - s_m: segments with Gauss-Jacobi
    panels at both ends, for one exponent row or a stack.  ``j`` has shape
    (T, ...), row t indexing intervals of tuple t; one (M-1,) tuple is a
    stack of one.  ``exps`` is one row or an (R, M) stack shared by every
    tuple, or a (T, R, M) stack that gives tuple t its own rows exps[t]:
    then each tuple is summed against its own R rows alone, where a shared
    stack of all T R rows would sum every row on every tuple.  Each end's
    offsets are partial sums of its own tuple's gaps, each end reaches
    half the gap and the direction is exactly +1, so every interval is
    built exactly as from its tuple alone and a gap far smaller than the
    prevertices keeps its full relative accuracy.  A plan is one fill of
    an IntervalLayout: this constructor builds the layout and fills it
    once, a Newton solve fills one layout at each of its points.

    The breaks follow in closed form from two gaps per end, with no
    clearance test: partial sums of positive gaps round monotonically, so
    the nearest other prevertex to an end of an interval with gap g is
    one gap away, its far end or its outer neighbour (gap g_{j-1} below
    s_j, g_{j+1} above s_{j+1}, none at the ends of the tuple).  Its
    Jacobi panel is [0, b], b = min(g/2, neighbour)/2, and its free panels
    are [b 2^i, min(g/2, b 2^(i+1))] for i < n, the least n with
    b 2^n >= g/2: the dyadic breaks of _doublings and _dyadic, which grade
    the ends of segments too, so _graded_panels gives the interval the
    same breaks bit for bit; its halving never fires on one.  It raises
    ValueError for an interval index outside 0..M-2 and DomainError,
    naming the first bad tuple and its first bad gap or partial sum,
    unless every gap is at least the least normal float,
    np.finfo(float).tiny, and every offset finite.  Only then is b
    positive and every point of an interval nearer its ends than any
    other prevertex: a subnormal gap can round b to 0, a zero, negative or
    infinite gap puts no prevertex where the breaks assume it, and a NaN
    gap integrates to 0.  Near that floor it accepts gaps it cannot
    always integrate: gaps of about 1e-300 against negative exponents
    overflow a sum to inf, and a Jacobi panel a few subnormals long can
    read h^(1+e) * integrand = 0 * inf = NaN.  The certificate
    (_certified) refuses both with QuadratureFailure, not DomainError.

    On an interval every factor t - s_m is real and keeps one sign, negative
    exactly for m > j, the factor (u * -1)^e_{j+1} that the Jacobi panel at
    s_{j+1} absorbs included.  So ``integrate_abs`` sums in real arithmetic
    the integral of prod |t - s_m|^e_m, from log|t - s_m| with no arctan2
    and the real factor h^(1+e) of each entry, in the block loop that sums
    segments (_summed).  With ``derivatives`` each
    row e is followed by the M rows e - delta_m, whose integrands are that
    of e times the real, signed 1/(t - s_m), on the same entries and rules
    as e, so no rule is built for them; only intervals have such rows.  A
    row e - delta_m is not integrable on an interval ending at s_m: the
    entry row mask drops it from every entry of that interval, so it sums
    to exactly 0 there at any node count."""

    def __init__(self, gaps, exps, j, derivatives=False):
        IntervalLayout(np.shape(gaps), exps, j, derivatives)._fill(self, gaps)

    def name(self, i):
        """The i-th interval, with its tuple row and its gap."""
        t, j = self.tup[i], self.j[i]
        return f"interval ({j}, {j + 1}) of tuple {t}, gap {self.gaps[t, j]}"

    def _real_block(self, block, u, factor):
        """One log|d| matrix, one real matmul per piece and one exp per
        block, plus for the derivative rows one reciprocal and one real
        batched matmul: the (K, R) real sums of the moduli, signed by 1/d
        on the derivative rows, times the entries' factors."""
        pieces, w, origin, ray, jac, absorbed = block
        r_count = pieces[0][2].shape[1]
        d = self.re[origin, None, :] + (u * ray)[..., None]
        d[jac, :, absorbed] = 1.0  # in the rule: log|d| = 0
        mag = np.log(np.abs(d))
        values = np.exp(_by_piece(mag, pieces)).reshape(u.shape[0], -1, r_count)
        vals = np.einsum("pnr,pn->pr", values, w)
        if self.derivatives:  # rows e - delta_m: the integrand of e times the real, signed 1/d
            weighted = (values * w[..., None]).transpose(0, 2, 1)
            vals = np.concatenate((vals[..., None], weighted @ (1.0 / d)), axis=2)
            vals = vals.reshape(u.shape[0], -1)
        return factor * vals

    def integrate_abs(self, n):
        """(R, S) real interval sums with n nodes per panel, R counting the
        derivative rows: the integrals of the moduli of the integrands,
        never negative on a base row, from the block loop of the segment
        sums (_summed) with the real block routine."""
        return self._summed(n, self._real_block, np.zeros((self.s_count, self.mask.shape[1]))).T


def _row_shape(exps):
    """The row axes of an exponent array: () for one row, (R,) for an
    (R, M) stack shared by every tuple or a (T, R, M) stack per tuple."""
    return exps.shape[1:-1] if exps.ndim == 3 else exps.shape[:-1]


def interval_abs_integral(gaps, exps, j):
    """Lengths of the images of real intervals (s_j, s_{j+1}), the
    integrals of the moduli of the integrands, certified to relative
    accuracy 1e-12 by 12 against 24 nodes: the plan's sums at both counts
    pass _certified, the one comparison IntervalLayout.point and
    segment_integral make too.

    ``gaps`` holds the gaps s_{m+1} - s_m of one tuple or of a (T, M-1)
    stack of tuples, a family in one call; ``j`` is one interval index or
    an array of them, of shape (T, ...) for a stack, whose row t indexes
    intervals of tuple t, each value equal, bit for bit, to that of the
    call on tuple t alone; ``exps`` is one exponent row, an (R, M) stack
    shared by every tuple or a (T, R, M) stack of R rows per tuple, each
    tuple's values then bit for bit those of its call alone with exps[t].
    Returns the row axis R of a stack followed by the shape of ``j``, a
    scalar for one row and index; raises QuadratureFailure naming the
    interval, its tuple row and its gap if an interval and row change by
    more than that from 12 to 24 nodes or read inf or NaN (gaps near the
    least normal float, IntervalPlan), and DomainError or ValueError for
    the gaps or indices IntervalPlan rejects.
    """
    exps, j = np.asarray(exps, float), np.asarray(j, int)
    plan = IntervalPlan(gaps, exps, j)
    sums = _certified(plan.integrate_abs(_BASE_NODES), plan.integrate_abs(2 * _BASE_NODES),
                      _REL_TOL, 0.0, plan.name)
    return sums.reshape(_row_shape(exps) + j.shape)[()]


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


def _segment_panels(prev, rows, z0, z1):
    """The _SegmentPanels of the segments [z0, z1], (S,) arrays of finite
    ends, for the (R, M) exponent rows ``rows`` (segment_integral)."""
    direction = z1 - z0
    length = np.hypot(direction.real, direction.imag)
    safe = np.where(length > 0.0, length, 1.0)  # per part: complex division rounds differently
    unit = direction.real / safe + 1j * (direction.imag / safe)
    point = _ends(z0, z1)
    near = np.abs(point[:, None] - prev) < 1e-15
    own = np.where(near.any(axis=1), np.argmax(near, axis=1), -1)  # the prevertex at each end
    re, im = point.real[:, None] - prev, point.imag
    return _SegmentPanels(re, im, unit, _segment_reach(re, im, unit, length, own), own, rows)


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
    (reach (L/2, L/2)), as an interval is.

    Every segment is summed at 12 nodes per panel and certified to 1e-11
    relative plus 1e-15 absolute on every row.  A segment whose a priori
    bound (_SegmentPanels.bound: truncation plus rounding, summed over its
    entries) meets that tolerance returns its 12-node sums.  The few whose
    bound misses, far-field chords among many prevertices or paths that
    graze one, are summed again at 24 nodes on the same panels, their
    entries alone, and certified by 12 against 24 nodes (_certified): they
    return the 24-node sums, else QuadratureFailure names the segment.  A
    non-finite end, or a segment from a prevertex so short that its first
    panel rounds to 0, raises DomainError.

    Returns the integrals with the broadcast segment shape, preceded by
    the row axis for a stack of rows; a scalar for one segment and row.
    """
    prev = np.asarray(prev, float)
    exps = np.asarray(exps, float)
    z0, z1 = np.broadcast_arrays(np.asarray(z0, complex), np.asarray(z1, complex))
    shape = z0.shape
    z0, z1 = z0.ravel(), z1.ravel()
    finite = np.isfinite(z0) & np.isfinite(z1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"segment [{z0[i]}, {z1[i]}] has a non-finite endpoint")

    panels = _segment_panels(prev, np.atleast_2d(exps), z0, z1)
    value, moduli = panels.sums(_BASE_NODES)
    rel_tol, abs_tol = _SEGMENT_TOL
    missed = ~(panels.bound(_BASE_NODES, moduli) <= rel_tol * np.abs(value) + abs_tol).all(axis=0)
    if missed.any():
        i = np.flatnonzero(missed)
        fine = panels._of(missed).sums(2 * _BASE_NODES)[0]
        value[:, i] = _certified(value[:, i], fine, rel_tol, abs_tol,
                                 lambda m: f"segment [{z0[i[m]]}, {z1[i[m]]}]")
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
