"""From reflexive zigzags to minimal surfaces.

At a reflexive zigzag the two half-plane integrands combine into
Weierstrass data (g, dh) whose three coordinate differentials have purely
imaginary periods, so the immersion is well defined.  This script builds
the data for genus 0, 1, 2, verifies the period identities, and writes
OBJ meshes of the fundamental half-plane sheet.
"""

import math
import os

import numpy as np

import zigzag as zz
from zigzag.io import write_obj

print(__doc__)

os.makedirs("out", exist_ok=True)

for p in (0, 1, 2):
    rec = zz.continuation_solve(p, 2)
    wd = zz.build_weierstrass(rec)
    report = zz.verify_periods(wd)
    deg, total, winding = zz.curvature_summary(wd)
    name = {0: "Enneper", 1: "Chen-Gackstatter", 2: "genus-2 minimal"}[p]
    print(f"genus {p} ({name} surface):")
    print(f"  period check      worst error {report.max_error():.2e}")
    print(f"  Gauss map degree  {deg}")
    print(f"  total curvature   {total / math.pi:.0f} pi")
    print(f"  winding order     {winding}")
    radius = 1.5 * wd.prevertices.values[-1] + 0.5  # the largest prevertex is s_p
    mesh = zz.generate_mesh(wd, radius, 24)
    path = f"out/surface_p{p}.obj"
    write_obj(path, mesh)
    print(f"  mesh              {len(mesh.triangles)} triangles -> {path}")
    print()

print("The genus-1 branched torus is square:")
rec1 = zz.continuation_solve(1, 2)
print(f"  omega2/omega1 = {zz.lattice_ratio(zz.build_weierstrass(rec1))}")
print()

print("A sampled point of the Enneper immersion vs the closed form")
print("(they agree up to a fixed similarity):")
wd0 = zz.build_weierstrass(zz.continuation_solve(0, 2))
t = 1.0 + 0.7j
X = zz.evaluate_surface(wd0, t, 0.5j)
print(f"  X({t}) = {np.round(X, 8)}")
