"""Half-plane uniformization of the two complementary domains.

Each side of a zigzag bounds one of two complementary plane domains, and
each domain is the image of the upper half-plane under a map whose
derivative is a product prod (t - s_m)^(+-(k-1)/k) over a symmetric
prevertex tuple.  The parameter problem places the free prevertices so
that the developed side lengths match the zigzag's.
"""

import numpy as np

import zigzag as zz

print(__doc__)

z = zz.ZigzagParams(2, 2, (0.5, 0.5))
print(f"zigzag: genus 2, sides {z.side_lengths}")
for pat in (zz.ne_pattern(2), zz.sw_pattern(2)):
    prev = zz.solve_parameter_problem(z, pat)
    print(f"  {pat.orientation} exponents {np.round(pat.exponents, 3)}")
    print(f"     prevertices {np.round(prev.values, 8)}")
    sides = [zz.side_length(prev, pat, j) for j in range(2)]
    print(f"     developed side ratio {sides[1] / sides[0]:.12f} (target 1)")
print()
print("The two tuples differ: this zigzag is not reflexive. The height")
print("function measures exactly that discrepancy (see demo 04).")
print()

print("Periods of the developed sides turn by right angles for k = 2:")
prev = zz.solve_parameter_problem(z, zz.sw_pattern(2))
per = zz.periods(prev, zz.sw_pattern(2))
for j, a in enumerate(per):
    print(f"  a_{j} = {a:+.6f}   |a_{j}| = {abs(a):.6f}")
print()

print("forward_map sends prevertices to the normalized vertex chain.")
print("The minus pattern follows the chain in vertex order, the plus")
print("pattern traverses it backwards (mirror congruence):")
prev1 = zz.Prevertices(1, ())  # genus 1 has no free gap: s = (-1, 0, 1)
for pat in (zz.sw_pattern(1), zz.ne_pattern(1)):
    images = [zz.forward_map(prev1, pat, s) for s in prev1.values]
    print(f"  {pat.orientation}: {np.round(images, 6)}")
