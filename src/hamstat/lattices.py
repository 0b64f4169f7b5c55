"""Planar lattices, dual lattices, and circle-frequency enumeration.

A lattice is stored by two complex generators.  Frequencies of doubly
periodic angle data live on the coset ``beta0/2 + dual`` intersected with the
circle of radius ``|beta0/2|`` (minus the two resonant points); enumeration
uses an integer bounding box, complete because the coset coordinates of any
circle point are bounded by twice the circle radius times the generator
lengths.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (DegenerateLattice, EmptySpectrum, FrequencyBoxTooLarge,
                     SlopeNotInDualLattice)

__all__ = [
    "Lattice", "FrequencySet", "PeriodicityClass", "PeriodReport",
    "enumerate_frequencies", "periodicity_class", "period_lattice",
    "integer_span_lattice", "sort_frequencies",
]


def _as_real(value) -> float:
    if isinstance(value, str):
        return float(Fraction(value))
    return float(value)


def _as_complex(value) -> complex:
    """Accept complex literals, (re, im) pairs, or exact fraction strings."""
    if isinstance(value, (list, tuple)):
        return complex(_as_real(value[0]), _as_real(value[1]))
    if isinstance(value, str):
        return complex(value)
    return complex(value)


@dataclass(frozen=True)
class Lattice:
    """Rank-2 lattice in C spanned by g1, g2."""

    g1: complex
    g2: complex

    def __post_init__(self):
        g1, g2 = complex(self.g1), complex(self.g2)
        if not (cmath.isfinite(g1) and cmath.isfinite(g2)):
            raise ValueError(f"lattice generators {g1}, {g2} must be finite")
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        # |area| < 1e-14 max(|g1|, |g2|)^2, tested on the generators scaled
        # by their largest coordinate, where no square or product overflows
        scale = max(abs(g1.real), abs(g1.imag), abs(g2.real), abs(g2.imag))
        if scale == 0.0:
            raise DegenerateLattice("both generators are zero")
        a, b = g1 / scale, g2 / scale
        if abs((a.conjugate() * b).imag) < 1e-14 * max(abs(a), abs(b)) ** 2:
            raise DegenerateLattice(f"generators {g1}, {g2} are collinear")

    @classmethod
    def square(cls) -> "Lattice":
        return cls(1.0, 1j)

    @classmethod
    def from_config(cls, data) -> "Lattice":
        """Build from {"g1": ..., "g2": ...}; coordinates may be decimals or
        exact fraction strings such as "3/2"."""
        return cls(_as_complex(data["g1"]), _as_complex(data["g2"]))

    def basis_matrix(self) -> np.ndarray:
        """Columns are the generators as R^2 vectors."""
        return np.array([[self.g1.real, self.g2.real],
                         [self.g1.imag, self.g2.imag]])

    def diameter(self) -> float:
        return float(max(abs(self.g1), abs(self.g2),
                         abs(self.g1 + self.g2), abs(self.g1 - self.g2)))

    def coords(self, v) -> np.ndarray:
        """Coordinates of points v in the generator basis."""
        v = np.asarray(v, dtype=complex)
        m = np.linalg.inv(self.basis_matrix())
        stacked = np.stack([v.real, v.imag], axis=-1)
        return stacked @ m.T

    def contains(self, v, tol: float = 1e-9):
        """Whether each point has integer coordinates within tol."""
        c = self.coords(v)
        return np.all(np.abs(c - np.round(c)) <= tol, axis=-1)

    def point(self, n: int, m: int) -> complex:
        return n * self.g1 + m * self.g2

    def dual(self) -> "Lattice":
        """Generators with <gi*, gj> = delta_ij (2x2 inverse transpose)."""
        inv_t = np.linalg.inv(self.basis_matrix()).T
        # huge or tiny generators can push the inverse out of the normal
        # float range, where the dual would be garbage (or collinear)
        normal = (inv_t == 0) | (np.abs(inv_t) >= np.finfo(float).tiny)
        if not np.all(normal & np.isfinite(inv_t)):
            raise DegenerateLattice(
                f"generators {self.g1}, {self.g2} have no dual basis in the "
                f"normal float range")
        return Lattice(complex(inv_t[0, 0], inv_t[1, 0]),
                       complex(inv_t[0, 1], inv_t[1, 1]))

    def grid(self, n: int) -> np.ndarray:
        """n x n fundamental-domain samples."""
        s = np.arange(n) / n
        ss, tt = np.meshgrid(s, s, indexing="ij")
        return ss * self.g1 + tt * self.g2

    def is_sublattice_of(self, other: "Lattice", tol: float = 1e-9) -> bool:
        return bool(np.all(other.contains(np.array([self.g1, self.g2]), tol)))

    def same_lattice(self, other: "Lattice", tol: float = 1e-9) -> bool:
        return self.is_sublattice_of(other, tol) and other.is_sublattice_of(self, tol)


class PeriodicityClass(Enum):
    TRULY_PERIODIC = "truly-periodic"
    ANTI_PERIODIC = "anti-periodic"


@dataclass(frozen=True)
class FrequencySet:
    """Circle points of the shifted dual coset attached to a slope beta0."""

    beta0: complex
    points: tuple
    lattice: Lattice

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def contains_point(self, gamma, tol: float = 1e-9) -> bool:
        return any(abs(gamma - p) <= tol for p in self.points)


def _require_slope(lattice: Lattice, beta0: complex, tol: float) -> Lattice:
    if not math.isfinite(math.hypot(beta0.real, beta0.imag)):
        raise SlopeNotInDualLattice(f"beta0 = {beta0} has no finite modulus")
    dl = lattice.dual()
    if abs(beta0) < tol:
        raise SlopeNotInDualLattice("beta0 must be nonzero")
    if not dl.contains(beta0, tol):
        raise SlopeNotInDualLattice(f"beta0 = {beta0} is not a dual-lattice point")
    return dl


def sort_frequencies(points):
    """Deterministic order: by argument, then modulus."""
    return tuple(sorted((complex(p) for p in points),
                        key=lambda g: (np.angle(g), abs(g))))


# integer candidates enumerate_frequencies may scan (a 16 MB complex array at
# the cap); the largest box any test, demo or benchmark pool needs is
# 131 x 131 = 17,161
MAX_SEARCH_BOX = 2 ** 20


def enumerate_frequencies(lattice: Lattice, beta0, tol: float = 1e-9) -> FrequencySet:
    """All gamma in beta0/2 + dual with |gamma| = |beta0/2|, gamma != +-beta0/2.

    The coordinate of a coset offset v in the dual basis is <g_primal, v>,
    so |coord| <= |g_primal| * 2R bounds the integer search box.  A box of
    more than ``MAX_SEARCH_BOX`` candidates raises `FrequencyBoxTooLarge`
    before anything is allocated.
    """
    beta0 = complex(beta0)
    dl = _require_slope(lattice, beta0, tol)
    half = beta0 / 2.0
    radius = abs(half)
    # sides clipped at the cap, so an overflowing slope never reaches ceil as inf
    n_max = math.ceil(min(2.0 * radius * abs(lattice.g1), MAX_SEARCH_BOX)) + 1
    m_max = math.ceil(min(2.0 * radius * abs(lattice.g2), MAX_SEARCH_BOX)) + 1
    if (2 * n_max + 1) * (2 * m_max + 1) > MAX_SEARCH_BOX:
        raise FrequencyBoxTooLarge(
            f"beta0 = {beta0} needs a frequency search box of more than "
            f"{MAX_SEARCH_BOX} candidates on this lattice")
    ns, ms = np.meshgrid(np.arange(-n_max, n_max + 1),
                         np.arange(-m_max, m_max + 1), indexing="ij")
    cand = half + ns * dl.g1 + ms * dl.g2
    keep = np.abs(np.abs(cand) - radius) <= tol
    keep &= np.abs(cand - half) > tol
    keep &= np.abs(cand + half) > tol
    return FrequencySet(beta0, sort_frequencies(cand[keep]), lattice)


def periodicity_class(lattice: Lattice, beta0, tol: float = 1e-9) -> PeriodicityClass:
    """Truly periodic iff beta0/2 is itself a dual-lattice point."""
    beta0 = complex(beta0)
    dl = _require_slope(lattice, beta0, tol)
    if dl.contains(beta0 / 2.0, tol):
        return PeriodicityClass.TRULY_PERIODIC
    return PeriodicityClass.ANTI_PERIODIC


def _integer_row_basis(rows: np.ndarray) -> list[np.ndarray]:
    """Basis of the integer row span of a k x 2 integer matrix.

    Gcd elimination on the first column, then gcd of the leftover second
    column; only unimodular row operations are used, so the span is exact.
    """
    live = [r.astype(np.int64) for r in rows if r[0] != 0 or r[1] != 0]
    with_x = [r for r in live if r[0] != 0]
    no_x = [r for r in live if r[0] == 0]
    while len(with_x) > 1:
        with_x.sort(key=lambda r: abs(int(r[0])))
        pivot = with_x[0]
        reduced = [pivot]
        for r in with_x[1:]:
            r = r - (r[0] // pivot[0]) * pivot   # |r[0]| drops below |pivot[0]|
            if r[0] != 0:
                reduced.append(r)
            elif r[1] != 0:
                no_x.append(r)
        with_x = reduced
    basis = []
    if with_x:
        basis.append(with_x[0])
    if no_x:
        g = int(np.gcd.reduce([abs(int(r[1])) for r in no_x]))
        if g:
            basis.append(np.array([0, g], dtype=np.int64))
    return basis


def integer_span_lattice(vectors, base: Lattice, tol: float = 1e-9):
    """Lattice generated over Z by the given base-lattice points.

    Returns ``(lattice_or_None, rank)``.
    """
    coords = base.coords(np.asarray(vectors, dtype=complex))
    rounded = np.round(coords)
    if coords.size and np.max(np.abs(coords - rounded)) > tol:
        raise ValueError("vectors are not lattice points of the base lattice")
    basis = _integer_row_basis(rounded.astype(np.int64))
    if len(basis) < 2:
        return None, len(basis)
    g1 = base.point(int(basis[0][0]), int(basis[0][1]))
    g2 = base.point(int(basis[1][0]), int(basis[1][1]))
    return Lattice(g1, g2), 2


@dataclass(frozen=True)
class PeriodReport:
    delta: Lattice | None
    delta_dual: Lattice | None
    rank: int
    multiple_cover: bool


def period_lattice(spec, tol: float = 1e-9) -> PeriodReport:
    """Period lattice of a torus spec: the dual of the lattice generated by
    all ``gamma +- beta0/2`` over the active frequencies.

    ``multiple_cover`` is set when the period lattice strictly contains the
    spec lattice, i.e. the parametrization covers a smaller torus.
    """
    gammas = [g for g, a in spec.items() if abs(a) > 0]
    if not gammas:
        raise EmptySpectrum("no nonzero Fourier coefficient in the spec")
    half = spec.beta0 / 2.0
    dl = spec.lattice.dual()
    gens = []
    for g in gammas:
        gens.append(g - half)
        gens.append(g + half)
    span, rank = integer_span_lattice(gens, dl, tol)
    if rank < 2 or span is None:
        return PeriodReport(None, None, rank, False)
    delta = span.dual()
    cover = (spec.lattice.is_sublattice_of(delta, tol)
             and not delta.same_lattice(spec.lattice, tol))
    return PeriodReport(delta, span, rank, cover)
