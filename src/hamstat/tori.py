"""Golden torus constructors: product-of-circles tori, the hexagonal-lattice
example, and the one-parameter-isometry family parametrized by four integers.

Each constructor returns both a :class:`TorusSpec` and an independent
closed-form evaluator so spec-driven evaluation can be cross-checked against
a second derivation of the same surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoRealSolution
from .lattices import Lattice, _dual_circle, sort_frequencies
from .weierstrass import TorusSpec

__all__ = ["GoldenTorus", "standard_torus", "rhombic_torus",
           "CastroUrbanoData", "castro_urbano"]


@dataclass(frozen=True)
class GoldenTorus:
    name: str
    spec: TorusSpec
    closed_form: Callable


def standard_torus(w1: float, w2: float) -> GoldenTorus:
    """Product of two circles of radii prescribed by the rectangle periods.

    Spec data: beta0 = 1/w1 + i/w2 on the lattice w1 Z + i w2 Z with the two
    conjugate-slope coefficients equal to pi.
    """
    if w1 <= 0 or w2 <= 0:
        raise ValueError("periods must be positive")
    lat = Lattice(w1, 1j * w2)
    beta0 = 1.0 / w1 + 1j / w2
    half_conj = np.conj(beta0) / 2.0
    spec = TorusSpec.build(lat, beta0,
                           {half_conj: np.pi + 0j, -half_conj: np.pi + 0j})

    def closed_form(z):
        z = np.asarray(z, dtype=complex)
        x, y = z.real, z.imag
        return np.stack([w1 * np.sin(2 * np.pi * x / w1),
                         -w1 * np.cos(2 * np.pi * x / w1),
                         w2 * np.sin(2 * np.pi * y / w2),
                         -w2 * np.cos(2 * np.pi * y / w2)], axis=-1)

    return GoldenTorus("standard", spec, closed_form)


def rhombic_torus() -> GoldenTorus:
    """Hexagonal-dual-lattice torus with beta0 = 2 and unit coefficients on
    the two sixth-root frequencies; genuinely periodic, not a cover."""
    omega = np.exp(1j * np.pi / 3.0)
    dual = Lattice(1.0, omega)          # this is the DUAL lattice
    lat = dual.dual()
    spec = TorusSpec.build(lat, 2.0, {omega: 1.0 + 0j, omega ** 2: 1.0 + 0j})

    sqrt3 = np.sqrt(3.0)

    def closed_form(z):
        z = np.asarray(z, dtype=complex)
        x, y = z.real, z.imag
        cy = np.cos(np.pi * y * sqrt3)
        sy = np.sin(np.pi * y * sqrt3)
        e1 = (np.cos(2 * np.pi * x) * np.cos(np.pi * x)
              + np.sin(2 * np.pi * x) * np.sin(np.pi * x + np.pi / 3.0))
        e2 = (np.sin(2 * np.pi * x) * np.cos(np.pi * x)
              - np.cos(2 * np.pi * x) * np.sin(np.pi * x + np.pi / 3.0))
        return (2.0 / (np.pi * sqrt3)) * np.stack(
            [cy * e1, cy * e2, sy * e1, sy * e2], axis=-1)

    return GoldenTorus("rhombic", spec, closed_form)


@dataclass(frozen=True)
class CastroUrbanoData:
    """Candidate package for the integer-parametrized isometry-invariant
    family: angles, lattice, slope, the full circle of dual points, the
    candidate frequencies with per-point coset membership, and the phase
    constraints tying opposite coefficients."""

    p: int
    q: int
    r: int
    s: int
    alpha: float
    beta: float
    lattice: Lattice
    phi0: complex
    circle_points: tuple           # dual-lattice points with |v| = |phi0|
    candidates: tuple              # (gamma, in_coset, excluded) triples
    degenerate_rectangular: bool

    def constrain_coefficients(self, seed: dict) -> dict:
        """Extend coefficients on ``gamma`` / ``conj(gamma)`` seeds to their
        negatives with the locked phases; other keys pass through."""
        gamma = np.exp(1j * self.beta) / (2 * np.pi)
        out = dict(seed)
        for g, a in seed.items():
            if abs(g - gamma) < 1e-12:
                out[-gamma] = -np.exp(-1j * (self.beta + self.alpha)) * np.conj(a)
            elif abs(g - np.conj(gamma)) < 1e-12:
                out[-np.conj(gamma)] = (np.exp(1j * (self.beta - self.alpha))
                                        * np.conj(a))
        return out

    def build_spec(self, seed: dict) -> TorusSpec:
        coeffs = self.constrain_coefficients(seed)
        return TorusSpec.build(self.lattice, self.phi0, coeffs)


def castro_urbano(p: int, q: int, r: int, s: int) -> CastroUrbanoData:
    """Solve sin(alpha) = (r/s) sin(beta), cos(alpha) = (p/q) cos(beta) and
    assemble the lattice/slope/frequency package.

    The circle of radius |phi0| through the slope carries eight dual-lattice
    points (four more than generic); candidate frequencies are their halves,
    each reported with its coset membership rather than assumed admissible.
    """
    if min(p, q, r, s) <= 0:
        raise NoRealSolution("parameters must be positive integers")
    rp, rq = r / s, p / q
    if abs(rp - rq) < 1e-15:
        # sin and cos scale equally: alpha = beta, the rectangular limit
        cos2 = None
    else:
        cos2 = (1.0 - rp ** 2) / (rq ** 2 - rp ** 2)
    if cos2 is None:
        beta = np.arctan(1.0)
        alpha = beta
    else:
        if not 0.0 < cos2 < 1.0:
            raise NoRealSolution(
                f"ratios r/s={rp}, p/q={rq} admit no angle pair")
        beta = float(np.arccos(np.sqrt(cos2)))
        alpha = float(np.arctan2(rp * np.sin(beta), rq * np.cos(beta)))
    if not (0 <= alpha <= beta < np.pi / 2):
        raise NoRealSolution(f"solved angles alpha={alpha}, beta={beta} out of range")

    lat = Lattice(q * np.pi / np.cos(beta), 1j * s * np.pi / np.sin(beta))
    dual = lat.dual()
    phi0 = np.exp(1j * alpha) / np.pi
    # slope must be the dual point with integer coordinates (p, r)
    expected = p * dual.g1 + r * dual.g2
    if abs(phi0 - expected) > 1e-9:
        raise NoRealSolution("slope does not land on the (p, r) dual point")

    circle = sort_frequencies(_dual_circle(lat, dual, 0.0, abs(phi0), 1e-9))
    half = phi0 / 2.0
    cands = []
    for v in circle:
        g = v / 2.0
        in_coset = bool(dual.contains(g - half))
        excluded = bool(abs(g - half) < 1e-12 or abs(g + half) < 1e-12)
        cands.append((g, in_coset, excluded))
    return CastroUrbanoData(
        p=p, q=q, r=r, s=s, alpha=alpha, beta=beta, lattice=lat, phi0=phi0,
        circle_points=circle, candidates=tuple(cands),
        degenerate_rectangular=bool(abs(alpha - beta) < 1e-12))
