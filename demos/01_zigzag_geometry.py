"""Symmetric zigzags and their moduli.

A genus-p zigzag is a properly embedded arc made of 2p+2 alternating
segments: an infinite entry ray, 2p finite sides, an infinite exit ray.
Its shape, up to similarity, is determined by the p positive lengths of
the finite sides on one half; the mirror half follows from the diagonal
symmetry P_j = i * conj(P_{-j}).
"""

import numpy as np

import zigzag as zz

print(__doc__)

print("The genus-1 zigzag is unique up to similarity:")
chain = zz.build_vertices(zz.ZigzagParams(1, 2, (1.0,)))
print(f"  vertices  {chain.vertices}")
print(f"  rays      in {chain.ray_in:+.3f}, out {chain.ray_out:+.3f}")
print()

print("Genus 3 with side lengths (0.2, 0.5, 0.3); note the staircase:")
z = zz.ZigzagParams(3, 2, (0.2, 0.5, 0.3))
chain = zz.build_vertices(z)
for j in range(-3, 4):
    v = chain.vertex(j)
    print(f"  P_{j:+d} = {v.real:+.4f} {v.imag:+.4f}i")
print()

print("Moduli coordinates are scale free; canonical lengths sum to one:")
print(f"  (2, 5, 3)  ->  {zz.canonicalize(zz.ZigzagParams(3, 2, (2, 5, 3))).side_lengths}")
print(f"  distance to the boundary strata: {zz.stratum_distance(z):.3f}")
print()

print("For turn order k > 2 the segments are no longer axis parallel.")
print("Genus 1, k = 3 (the classical order-5 Enneper end generalization):")
chain3 = zz.build_vertices(zz.ZigzagParams(1, 3, (1.0,)))
for j in range(-1, 2):
    v = chain3.vertex(j)
    print(f"  P_{j:+d} = {v.real:+.4f} {v.imag:+.4f}i")
dirs = np.diff(np.asarray(chain3.vertices))
print(f"  turn angle between sides: {np.degrees(np.angle(chain3.ray_out / dirs[-1])):.1f} deg")
print()

print("Handle insertion, the paper's continuation step, grows a solved genus by one:")
parent = zz.continuation_solve(1, 2)
grown = zz.add_handle(parent, 0.05)
print(f"  genus-1 solution + eps=0.05  ->  genus-2 zigzag {np.round(grown.side_lengths, 6)}")
