"""Sweep the circle family attached to a torus and watch periodicity break.

Every stationary surface comes with a one-parameter family sharing the same
deformed connection.  The parameter multiplies the frequencies, so lattice
periodicity survives only at special values; the evaluator reports the period
defect per generator.
"""

import numpy as np

from hamstat import FamilyEvaluator, immerse, standard_torus

spec = standard_torus(1.0, 1.0).spec

print(" lambda                defect(g1)   defect(g2)")
for theta in np.linspace(0.0, np.pi / 2, 7):
    lam = np.exp(1j * theta)
    member = FamilyEvaluator(spec, lam)
    d1 = member.period_defects["g1"]
    d2 = member.period_defects["g2"]
    print(f" exp({theta:5.3f}i)          {d1:10.3e}  {d2:10.3e}")

# the unit parameter reproduces the original immersion exactly
member1 = FamilyEvaluator(spec, 1.0)
zs = spec.lattice.grid(6)
print("\nfamily at 1 vs direct evaluation:",
      f"{np.max(np.abs(member1(zs) - immerse(spec, zs))):.2e}")

# the opposite parameter is the point reflection of the surface
member_m = FamilyEvaluator(spec, -1.0)
print("family at -1 vs point reflection:",
      f"{np.max(np.abs(member_m(zs) + immerse(spec, zs))):.2e}")
