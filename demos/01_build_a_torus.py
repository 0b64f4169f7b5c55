"""Build a stationary Lagrangian torus from lattice data, step by step.

The recipe: pick a lattice, pick an angle slope in its dual, enumerate the
admissible circle frequencies, attach complex coefficients, and evaluate the
closed-form immersion.  Everything is linear once the slope is fixed.
"""

import numpy as np

from hamstat import (Lattice, TorusSpec, enumerate_frequencies, immerse,
                     periodicity_class, regularity_scan, standard_torus)

# --- 1. the square lattice and the simplest slope --------------------------
lattice = Lattice.square()
beta0 = 1 + 1j
freqs = enumerate_frequencies(lattice, beta0)
print(f"slope {beta0}: {len(freqs)} admissible frequencies -> {list(freqs)}")
print("periodicity class:", periodicity_class(lattice, beta0).value)

# --- 2. coefficients pi on the conjugate pair give the product of circles --
spec = TorusSpec.build(lattice, beta0,
                       {np.conj(beta0) / 2: np.pi, -np.conj(beta0) / 2: np.pi})
golden = standard_torus(1.0, 1.0)
zs = lattice.grid(8)
err = np.max(np.abs(immerse(spec, zs) - golden.closed_form(zs)))
print(f"spec evaluation vs product-of-circles closed form: {err:.2e}")

# --- 3. a richer slope: twelve lattice points on the circle of radius 5 ----
rich = enumerate_frequencies(lattice, 6 + 8j)
print(f"slope 6+8i carries {len(rich)} frequencies; the moduli space has "
      f"dimension {2 * len(rich) + 5}")
rng = np.random.default_rng(1)
coeffs = {g: complex(rng.normal(), rng.normal()) for g in list(rich)[:5]}
fancy = TorusSpec.build(lattice, 6 + 8j, coeffs)
min_u = regularity_scan(fancy, 64)
print(f"random five-frequency surface: min |u| = {min_u:.3f} "
      f"(immersed: {min_u > 0})")

# --- 4. specs serialize to JSON for the command-line tools ------------------
print("\nspec as JSON:")
print(spec.to_json(indent=2)[:260], "...")
