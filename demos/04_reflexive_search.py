"""Solving for a reflexive zigzag and certifying it by the height function.

The height D compares the extremal-length vectors of the two domains and
vanishes exactly when the domains are conformally equivalent by a
vertex-preserving map, that is, when both share one prevertex tuple.
Each genus is solved on its own, from equal sides, for that shared tuple
by the plain Newton iteration that also solves each parameter problem,
with no nested parameter solve.  The paper reaches genus p by inserting a
handle into the genus p-1 solution; that continuation proves the zigzag
exists, and the computation does not need it.  The Jacobian is exact,
taken with F from one quadrature kernel call per Newton point, and
converges quadratically.
D of the result, from two cold parameter solves, is the certificate; the
smallest singular value of the Jacobian at the solution shows the zero
is isolated.
"""

import numpy as np

import zigzag as zz

print(__doc__)

print("Height profile across the genus-2 moduli interval:")
print(f"  {'l_0':>6}  {'D':>12}")
for l0 in np.linspace(0.30, 0.75, 10):
    d = zz.height(zz.ZigzagParams(2, 2, (l0, 1 - l0)))
    bar = "#" * int(min(40, 2 + 8 * np.log10(1 + d * 1e6)))
    print(f"  {l0:>6.3f}  {d:>12.3e}  {bar}")
print()

print("Independent solves of genus 0 to 3:")
records = {p: zz.continuation_solve(p, 2) for p in range(4)}
for p, rec in records.items():
    print(f"  genus {p}: D = {rec.height:.3e}  sides {np.round(rec.zigzag.side_lengths, 6)}")
print()

rec = records[2]
print("Genus-2 Newton residual history (max|F| per Newton point, one kernel call each):")
for step, norm in enumerate(rec.residuals, start=1):
    print(f"  {step:>5}  {norm:>12.3e}")
print(f"  smallest singular value of the Jacobian at the solution {rec.sigma_min:.4f}")
print()

print("At the solution both prevertex tuples coincide:")
print(f"  NE {np.round(rec.prev_ne.values, 9)}")
print(f"  SW {np.round(rec.prev_sw.values, 9)}")
