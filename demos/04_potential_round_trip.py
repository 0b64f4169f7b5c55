"""Round-trip a torus through its holomorphic potential.

The extended lift of a torus factorizes into a negative part (an explicit
exponential of the holomorphic half-angle) and a positive part; the negative
factor's derivative is the potential: one constant for the angle and two
holomorphic functions for the spinor.  Integrating the potential back and
projecting onto the real form recovers the immersion.
"""

import time

import numpy as np

from hamstat import (SpecLift, dpw_reconstruct, immerse, potential_extract,
                     rhombic_torus, standard_torus)

for golden in (standard_torus(1.0, 1.0), rhombic_torus()):
    spec = golden.spec
    lift = SpecLift(spec)

    t0 = time.perf_counter()
    pot = potential_extract(lift, nsamples=128)
    print(f"{golden.name}: angle constant c = {pot.c(0.0):.6f}")
    zs = np.array([0.1 + 0.05j, 0.4 + 0.3j])
    print(f"   spinor data a(z) = {np.round(pot.a(zs), 4)}")
    print(f"   spinor data b(z) = {np.round(pot.b(zs), 4)}")

    reconstructed = dpw_reconstruct(pot, nsamples=128, lattice=spec.lattice)
    grid = spec.lattice.grid(16)
    err = np.max(np.abs(reconstructed.immersion(grid)
                        - (immerse(spec, grid) - immerse(spec, 0.0))))
    print(f"   round-trip error over a 16x16 grid: {err:.2e} "
          f"({time.perf_counter() - t0:.1f}s)\n")
