"""Planar lattices, dual lattices, and circle-frequency enumeration.

A lattice is stored by two complex generators.  Frequencies of doubly
periodic angle data live on the coset ``beta0/2 + dual`` intersected with the
circle of radius ``|beta0/2|`` (minus the two resonant points); one integer
box scan finds the points of a dual coset on a circle, complete because the
coset coordinates of any circle point are bounded by the generator lengths
times the circle radius plus the offset's modulus.
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
    "AffineGrid", "affine_grid", "Lattice", "PeriodicityClass",
    "PeriodReport", "enumerate_frequencies", "periodicity_class",
    "period_lattice", "integer_span_lattice", "sort_frequencies",
]


def _not_bool(value):
    """The value, unless it is a bool (TypeError): float() and complex()
    read JSON true and false as 1 and 0."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return value


def _as_real(value) -> float:
    if isinstance(value, str):
        return float(Fraction(value))
    return float(_not_bool(value))


def parse_pair(value) -> complex:
    """re + i im of a [re, im] list of two numbers or exact fraction
    strings; ValueError for anything else."""
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(_as_real(value[0]), _as_real(value[1]))
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"expected a [re, im] pair, got {value!r}")


def parse_integer(value, what: str) -> int:
    """An integral JSON number (2.0 reads as 2); ValueError for a bool, a
    string, a fraction, NaN or an infinity."""
    if (isinstance(value, float) and value.is_integer()
            or isinstance(value, int) and not isinstance(value, bool)):
        return int(value)
    raise ValueError(f"{what} {value!r} is not an integer")


class AffineGrid(np.ndarray):
    """A read-only grid z0 + i u + j v marked ``affine``: adding or
    subtracting a 0-d scalar keeps the mark, and every other operation
    (views, copies, other ufuncs) returns an unmarked array."""

    affine = False

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(x):
            return x.view(np.ndarray) if isinstance(x, AffineGrid) else x

        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        shift = (ufunc in (np.add, np.subtract) and method == "__call__"
                 and not kwargs and min(map(np.ndim, inputs)) == 0
                 and any(getattr(x, "affine", False) for x in inputs))
        return _mark(result) if shift else result


def _mark(z) -> AffineGrid:
    grid = z.view(AffineGrid)
    grid.affine = True
    grid.flags.writeable = False
    return grid


def affine_grid(rows, cols) -> AffineGrid:
    """The grid rows[:, None] + cols[None, :] of two evenly spaced
    sequences, marked affine."""
    return _mark(np.asarray(rows)[:, None] + np.asarray(cols)[None, :])


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
        """Build from {"g1": [re, im], "g2": [re, im]}, each pair read by
        `parse_pair`: its parts may be decimals or fraction strings such as
        "3/2"."""
        return cls(parse_pair(data["g1"]), parse_pair(data["g2"]))

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

    def grid(self, n: int) -> AffineGrid:
        """n x n fundamental-domain samples."""
        s = np.arange(n) / n
        return affine_grid(s * self.g1, s * self.g2)

    def is_sublattice_of(self, other: "Lattice") -> bool:
        return bool(np.all(other.contains(np.array([self.g1, self.g2]))))

    def same_lattice(self, other: "Lattice") -> bool:
        return self.is_sublattice_of(other) and other.is_sublattice_of(self)


class PeriodicityClass(Enum):
    TRULY_PERIODIC = "truly-periodic"
    ANTI_PERIODIC = "anti-periodic"


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


# integer candidates a dual-circle scan may take (a 16 MB complex array at
# the cap); the largest box any test, demo or benchmark pool needs is
# 131 x 131 = 17,161
MAX_SEARCH_BOX = 2 ** 20


def _dual_circle(lattice: Lattice, dual: Lattice, offset: complex,
                 radius: float, tol: float) -> np.ndarray:
    """The points offset + n g1* + m g2* of the coset of ``dual`` (the dual
    of ``lattice``) within tol of the circle |v| = radius.

    The coordinate of v - offset along g_i* is <g_i, v - offset>, so
    |coord| <= |g_i| (radius + |offset|) bounds the integer search box.  A
    box of more than ``MAX_SEARCH_BOX`` candidates raises
    `FrequencyBoxTooLarge` before anything is allocated.
    """
    reach = radius + abs(offset)
    # sides clipped at the cap, so an overflowing reach never meets ceil as inf
    n_max = math.ceil(min(reach * abs(lattice.g1), MAX_SEARCH_BOX)) + 1
    m_max = math.ceil(min(reach * abs(lattice.g2), MAX_SEARCH_BOX)) + 1
    if (2 * n_max + 1) * (2 * m_max + 1) > MAX_SEARCH_BOX:
        raise FrequencyBoxTooLarge(
            f"the dual circle of radius {radius} needs a search box of more "
            f"than {MAX_SEARCH_BOX} candidates on this lattice")
    ns, ms = np.meshgrid(np.arange(-n_max, n_max + 1),
                         np.arange(-m_max, m_max + 1), indexing="ij")
    cand = offset + ns * dual.g1 + ms * dual.g2
    return cand[np.abs(np.abs(cand) - radius) <= tol]


def enumerate_frequencies(lattice: Lattice, beta0, tol: float = 1e-9) -> tuple:
    """All gamma in beta0/2 + dual with |gamma| = |beta0/2|, gamma != +-beta0/2,
    as a `sort_frequencies` tuple; `FrequencyBoxTooLarge` when the scan's box
    passes the cap."""
    beta0 = complex(beta0)
    dl = _require_slope(lattice, beta0, tol)
    half = beta0 / 2.0
    cand = _dual_circle(lattice, dl, half, abs(half), tol)
    return sort_frequencies(cand[(np.abs(cand - half) > tol)
                                 & (np.abs(cand + half) > tol)])


def periodicity_class(lattice: Lattice, beta0, tol: float = 1e-9) -> PeriodicityClass:
    """Truly periodic iff beta0/2 is itself a dual-lattice point."""
    beta0 = complex(beta0)
    dl = _require_slope(lattice, beta0, tol)
    if dl.contains(beta0 / 2.0, tol):
        return PeriodicityClass.TRULY_PERIODIC
    return PeriodicityClass.ANTI_PERIODIC


def integer_span_lattice(vectors, base: Lattice):
    """Lattice generated over Z by the given base-lattice points.

    Returns ``(lattice_or_None, rank)``.  The rounded coordinates, as Python
    ints, reduce by unimodular row operations to the Hermite rows (a, b),
    (0, c): Euclid folds each row into the pivot (a, b) on the first column,
    and c is the gcd of what is left in the second.
    """
    coords = base.coords(np.asarray(vectors, dtype=complex))
    rounded = np.round(coords)
    if coords.size and np.max(np.abs(coords - rounded)) > 1e-9:
        raise ValueError("vectors are not lattice points of the base lattice")
    a = b = c = 0
    for n, m in rounded.reshape(-1, 2).tolist():
        n, m = int(n), int(m)
        while n:
            q = a // n
            a, b, n, m = n, m, a - q * n, b - q * m
        c = math.gcd(c, m)
    rank = (a != 0) + (c != 0)
    if rank < 2:
        return None, rank
    return Lattice(a * base.g1 + b % c * base.g2, c * base.g2), 2


@dataclass(frozen=True)
class PeriodReport:
    delta: Lattice | None
    delta_dual: Lattice | None
    rank: int
    multiple_cover: bool


def period_lattice(spec) -> PeriodReport:
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
    span, rank = integer_span_lattice(gens, dl)
    if span is None:
        return PeriodReport(None, None, rank, False)
    delta = span.dual()
    cover = (spec.lattice.is_sublattice_of(delta)
             and not delta.same_lattice(spec.lattice))
    return PeriodReport(delta, span, rank, cover)
