"""Stationary Lagrangian torus toolbox.

Builds doubly periodic Hamiltonian stationary Lagrangian surfaces in R^4
from lattice Fourier data, verifies their geometric identities numerically,
factorizes the associated twisted loops (Iwasawa / Birkhoff), round-trips
surfaces through holomorphic potentials, and integrates the commuting flows
of polynomial Killing fields.
"""

from .algebra import omega
from .lattices import (Lattice, PeriodicityClass, enumerate_frequencies,
                       period_lattice, periodicity_class)
from .weierstrass import (FamilyEvaluator, TorusSpec, family_samples, immerse,
                          regularity_scan, spinor_u)
from .tori import castro_urbano, rhombic_torus, standard_torus
from .checks import (check_conformal, check_flatness, check_harmonic_angle,
                     check_lagrangian, check_mean_curvature, run_suite)
from .loops import (HolomorphicPotentialData, SpecLift, TwistedLoop, birkhoff,
                    dpw_reconstruct, iwasawa, potential_extract)
from .finitetype import (KillingField, formal_killing, lax_integrate,
                         lax_project, polynomial_condition, r_op,
                         rhombic_killing_seed, standard_torus_killing_seed)

__version__ = "1.0.0"
