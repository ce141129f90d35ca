"""The logarithmic asymmetry that forces reflexive zigzags to exist.

When two prevertices coalesce, the adjacent developed period picks up a
delta*log(delta) correction whose coefficient couples to the collapsing
period with a universal sign: +1 for one domain and -1 for the other,
because the zigzag turns opposite ways at the shared vertex.  The two
domains therefore degenerate at genuinely different rates, which is what
makes the height function proper.
"""

import numpy as np

import zigzag as zz

print(__doc__)

rec = zz.continuation_solve(3, 2)
deltas = np.geomspace(1e-6, 1e-4, 9)
j = 1
members = zz.make_coalescing_family(rec.prev_ne, j, deltas)

print(f"collapsing the gap above s_{j + 1} of the solved genus-3 tuple:")
print(f"  {'delta':>10}  {'|a_1| (NE)':>14}  {'|b_1| (SW)':>14}")
for d, member in zip(deltas, members):
    a = zz.side_length(member, zz.ne_pattern(3), j)
    b = zz.side_length(member, zz.sw_pattern(3), j)
    print(f"  {d:>10.1e}  {a:>14.10f}  {b:>14.10f}")

c0n, c1n, rn = zz.coalescence_log_fit(deltas, members, zz.ne_pattern(3), j)
c0s, c1s, rs = zz.coalescence_log_fit(deltas, members, zz.sw_pattern(3), j)
print()
print("holomorphic-plus-log decomposition  a_j ~ c0 + q d + c1 (log d / pi) a_{j+1}:")
print(f"  NE: c1 = {c1n.real:+.6f}   (residual {rn:.1e})")
print(f"  SW: c1 = {c1s.real:+.6f}   (residual {rs:.1e})")
print()
print("Note the opposite signs: the logarithmic corrections cannot cancel,")
print("so the height function blows up along every boundary approach.")
