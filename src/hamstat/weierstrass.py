"""Closed-form Fourier construction of Hamiltonian stationary Lagrangian
tori, and the circle family deforming them.

Everything is evaluated from exact Fourier formulas.  A spec consists of a
lattice, an angle slope ``beta0`` in the dual lattice, and complex
coefficients on the circle frequency set; the immersion is the corresponding
combination of the two closed-form basis surfaces per frequency.  Finite
differences never enter here; they are reserved for the verification module.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import EPS, LI_EPS_BAR, PI_MINUS, PI_PLUS
from .errors import MonodromyWarning, ResonantFrequency
from .lattices import Lattice, enumerate_frequencies, periodicity_class, PeriodicityClass
from .numerics import TWO_PI, dot_r2

__all__ = [
    "TorusSpec", "beta_eval", "basis_A", "basis_B", "immerse",
    "spinor_u", "spinor_ab", "regularity_scan", "RegularityReport",
    "associated_family", "FamilyEvaluator", "holomorphic_angle",
]

_KEY_DECIMALS = 9
# largest coefficient modulus: the metric determinant of the checks grows as
# its fourth power, which must stay finite with room for a 1e6 scale from
# the frequencies and the derivatives
_MAX_MODULUS = np.finfo(float).max ** 0.25 / 1e6


def _key(gamma: complex):
    return (round(gamma.real, _KEY_DECIMALS), round(gamma.imag, _KEY_DECIMALS))


def _merge(freqs, vecs):
    """Mode table with the rows of equal rounded frequency summed, in order of
    first occurrence; each row keeps the first exact frequency of its group.

    A mode table is a frequency array (K,) and a vector array (K, ...): the
    term vecs[j] exp(2 pi i <freqs[j], z>) per row.
    """
    groups: dict = {}
    for i, f in enumerate(freqs.tolist()):
        groups.setdefault(_key(f), []).append(i)
    heads = [rows[0] for rows in groups.values()]
    out = vecs[heads]
    for j, rows in enumerate(groups.values()):
        for i in rows[1:]:
            out[j] += vecs[i]
    return freqs[heads], out


@dataclass
class TorusSpec:
    """Lattice + slope + circle Fourier coefficients of a doubly periodic
    solution; basepoint fixed at the origin.

    Frequencies are kept exactly; the rounded key is only a merge index.
    """

    lattice: Lattice
    beta0: complex
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.beta0 = complex(self.beta0)
        pairs = list(self.coeffs.items() if isinstance(self.coeffs, dict)
                     else self.coeffs)
        gammas, coeffs = _merge(
            np.array([complex(g) for g, _ in pairs], dtype=complex),
            np.array([complex(a) for _, a in pairs], dtype=complex))
        self.coeffs = {_key(g): (g, a)
                       for g, a in zip(gammas.tolist(), coeffs.tolist())}

    @classmethod
    def build(cls, lattice, beta0, pairs, validate: bool = True,
              tol: float = 1e-9) -> "TorusSpec":
        spec = cls(lattice, beta0,
                   dict(pairs) if not isinstance(pairs, dict) else pairs)
        if validate:
            spec.validate(tol)
        return spec

    def validate(self, tol: float = 1e-9):
        freq = enumerate_frequencies(self.lattice, self.beta0, tol)
        for g, a in self.items():
            if not np.isfinite(a):
                raise ValueError(f"coefficient {a} at frequency {g} is not finite")
            if math.hypot(a.real, a.imag) > _MAX_MODULUS:
                raise ValueError(f"coefficient {a} at frequency {g} has a "
                                 f"modulus above {_MAX_MODULUS:.1e}, where "
                                 "the metric overflows the float range")
            if not freq.contains_point(g, 10 * tol):
                raise ValueError(f"coefficient frequency {g} is not in the "
                                 f"circle set for beta0 = {self.beta0}")
        return self

    def items(self):
        return [(g, a) for g, a in self.coeffs.values()]

    def gammas(self):
        return [g for g, _ in self.coeffs.values()]

    def coefficient(self, gamma: complex) -> complex:
        entry = self.coeffs.get(_key(complex(gamma)))
        return entry[1] if entry is not None else 0.0 + 0.0j

    def periodicity(self) -> PeriodicityClass:
        return periodicity_class(self.lattice, self.beta0)

    # --- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "lattice": {"g1": [self.lattice.g1.real, self.lattice.g1.imag],
                        "g2": [self.lattice.g2.real, self.lattice.g2.imag]},
            "beta0": [self.beta0.real, self.beta0.imag],
            "coefficients": [
                {"gamma": [g.real, g.imag], "re": a.real, "im": a.imag}
                for g, a in self.items()],
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_dict(cls, data: dict, validate: bool = True) -> "TorusSpec":
        lat = Lattice.from_config(data["lattice"])
        beta0 = complex(data["beta0"][0], data["beta0"][1])
        pairs = {complex(c["gamma"][0], c["gamma"][1]): complex(c["re"], c["im"])
                 for c in data["coefficients"]}
        return cls.build(lat, beta0, pairs, validate=validate)

    @classmethod
    def from_json(cls, text: str, validate: bool = True) -> "TorusSpec":
        return cls.from_dict(json.loads(text), validate=validate)


def beta_eval(spec: TorusSpec, z):
    """Lagrangian angle lift 2*pi*<beta0, z> (basepoint at 0)."""
    return TWO_PI * dot_r2(spec.beta0, np.asarray(z, dtype=complex))


def holomorphic_angle(beta0: complex):
    """h with 2*Re(h) the angle and h(0) = 0: h(z) = pi*conj(beta0)*z.

    The unique holomorphic function vanishing at the basepoint whose real
    part is half the angle; its imaginary part is the harmonic conjugate.
    """
    c = np.pi * np.conj(beta0)

    def h(z):
        return c * np.asarray(z, dtype=complex)

    h.derivative = c
    return h


# a 2-D input within this many ulps (of its largest corner) of the affine grid
# through its corners takes the separable path; lattice grids and their
# finite-difference shifts sit within about 1.3
_GRID_ULPS = 8
# a C^4 row times this is the row pair (P+ vec, P- vec) of the two L_i
# eigenspaces, as one (K, 8) product
_SPLIT = np.concatenate([PI_PLUS, PI_MINUS]).T


def _affine_frame(z):
    """``(z0, u, v)`` when the 2-D array ``z`` is the grid z0 + i u + j v,
    else None.

    The steps are read off the far ends of the first column and row, so
    their error does not grow along the grid; one pass then checks every
    point against its affine value.
    """
    n1, n2 = z.shape
    if n1 < 2 or n2 < 2:
        return None
    z0 = z[0, 0]
    u = (z[-1, 0] - z0) / (n1 - 1)
    v = (z[0, -1] - z0) / (n2 - 1)
    scale = max(abs(z0), abs(z[-1, 0]), abs(z[0, -1]), abs(z[-1, -1]))
    dev = z - (np.arange(n1) * u)[:, None]
    dev -= (np.arange(n2) * v + z0)[None, :]
    tol = _GRID_ULPS * np.finfo(float).eps * scale
    if not np.max(np.abs(dev.view(float))) <= tol:     # NaN falls back too
        return None
    return z0, u, v


def _grid_sum(freqs, vecs, frame, shape):
    """The mode sum on the affine grid z0 + i u + j v of the given shape.

    Each wave factors as e(z0) e(i u) e(j v), so the grid costs K (n1 + n2)
    exponentials and one (n1, K) @ (K, 4 n2) product.
    """
    z0, u, v = frame
    n1, n2 = shape
    if n1 < n2:     # the (K, n2, 4) factor below stays on the shorter side
        return _grid_sum(freqs, vecs, (z0, v, u), (n2, n1)).swapaxes(0, 1)
    rows = np.exp(2j * np.pi * np.outer(np.arange(n1), dot_r2(freqs, u)))
    cols = np.exp(2j * np.pi * np.outer(dot_r2(freqs, v), np.arange(n2)))
    weights = np.exp(2j * np.pi * dot_r2(freqs, z0))[:, None] * vecs
    out = rows @ (cols[:, :, None] * weights[:, None, :]).reshape(len(freqs), -1)
    return out.reshape(n1, n2, vecs.shape[1])


def _mode_sum(freqs, vecs, z):
    """Sum of vecs[j] exp(2 pi i <freqs[j], z>) over the rows of a mode
    table, shape ``z.shape + (4,)``.

    A 2-D ``z`` that is an affine grid (a lattice grid or a shift of one) is
    summed separably by `_grid_sum`; every other input runs the loop.
    """
    z = np.asarray(z, dtype=complex)
    frame = _affine_frame(z) if z.ndim == 2 and len(freqs) else None
    if frame is not None:
        return _grid_sum(freqs, vecs, frame, z.shape)
    out = np.zeros(z.shape + (4,), dtype=complex)
    # one component at a time: a (z, 4) temporary per mode would raise the
    # peak memory of large inputs
    for delta, vec in zip(freqs, vecs):
        wave = np.exp(2j * np.pi * dot_r2(delta, z))
        for k in range(4):
            out[..., k] += wave * vec[k]
    return out


def _basis_column(gamma: complex, beta0: complex):
    denom = beta0 ** 2 - 4.0 * gamma ** 2
    if abs(denom) < max(1e-12, 1e-12 * abs(beta0) ** 2):
        raise ResonantFrequency(
            f"gamma = {gamma} resonates with beta0 = {beta0}; the primitive "
            "is only pseudo-periodic")
    return np.array([-1j * gamma, -beta0 / 2.0, gamma, -1j * beta0 / 2.0]) / denom


def _basis_sum(pairs, beta0, z):
    """sum over (gamma, a) of Re(a) A_gamma + Im(a) B_gamma.

    With w_gamma = exp(-2 pi i <gamma, z>) column_gamma, A and B are the
    rotated real and imaginary parts of (4/pi) w_gamma, and
    Re(a) Re(w) + Im(a) Im(w) = Re(conj(a) w).  The rotation
    exp(theta L_i), theta = pi <beta0, z>, is real and equals
    e^(i theta) P+ + e^(-i theta) P-, so it moves inside the real part as
    the modes -gamma +- beta0/2: one mode sum and one real part serve all
    terms.
    """
    beta0 = complex(beta0)
    half = beta0 / 2.0
    terms = [(complex(g), complex(a)) for g, a in pairs if a != 0]
    gammas = np.array([g for g, _ in terms], dtype=complex)
    cols = np.array([np.conj(a) * (4.0 / np.pi) * _basis_column(g, beta0)
                     for g, a in terms]).reshape(-1, 4)
    freqs = (np.array([half, -half]) - gammas[:, None]).ravel()
    return _mode_sum(freqs, (cols @ _SPLIT).reshape(-1, 4), z).real


def basis_A(gamma, beta0, z):
    """Closed-form basis immersion attached to a frequency (real part)."""
    return _basis_sum([(gamma, 1.0)], beta0, z)


def basis_B(gamma, beta0, z):
    """Companion basis immersion (imaginary part)."""
    return _basis_sum([(gamma, 1j)], beta0, z)


def immerse(spec: TorusSpec, z):
    """X = sum over frequencies of Re(a) A + Im(a) B, shape (..., 4)."""
    return _basis_sum(spec.items(), spec.beta0, z)


def _u_modes(spec: TorusSpec):
    """Fourier modes of the spinor field u as a mode table (freqs, vecs).

    A coefficient a at gamma gives a eps at gamma and
    (2i conj(gamma) / beta0) conj(a) L_i eps_bar at -gamma.  Spec frequencies
    are distinct, so after the merge the rows still come in pairs
    (delta, -delta) at 2j and 2j + 1: the table is closed under negation.
    """
    terms = [(g, a) for g, a in spec.items() if a != 0]
    gammas = np.array([g for g, _ in terms], dtype=complex)
    vecs = np.empty((len(terms), 2, 4), dtype=complex)
    vecs[:, 0] = np.array([a for _, a in terms], dtype=complex)[:, None] * EPS
    vecs[:, 1] = np.array([(2j * np.conj(g) / spec.beta0) * np.conj(a)
                           for g, a in terms], dtype=complex)[:, None] * LI_EPS_BAR
    return _merge(np.stack([gammas, -gammas], axis=1).ravel(),
                  vecs.reshape(-1, 4))


def spinor_u(spec: TorusSpec, z):
    """u = e^{-beta L_i / 2} dX/dz, from its exact Fourier modes."""
    return _mode_sum(*_u_modes(spec), z)


def spinor_ab(spec: TorusSpec, z):
    """The two scalar components of u in the (eps, L_i eps_bar) frame."""
    u = spinor_u(spec, z)
    return 2.0 * u[..., 0], 2.0 * u[..., 1]


@dataclass(frozen=True)
class RegularityReport:
    min_abs_u: float
    argmin: complex
    grid_n: int
    cover: str

    @property
    def immersed(self) -> bool:
        return self.min_abs_u > 0.0


def regularity_scan(spec: TorusSpec, grid_n: int) -> RegularityReport:
    """Sampled minimum of |u| over the fundamental domain (advisory only)."""
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    zs = spec.lattice.grid(grid_n)
    norms = np.linalg.norm(spinor_u(spec, zs), axis=-1)
    idx = np.unravel_index(np.argmin(norms), norms.shape)
    cover = ("1" if spec.periodicity() is PeriodicityClass.TRULY_PERIODIC
             else "2")
    return RegularityReport(float(norms[idx]), complex(zs[idx]), grid_n, cover)


# --- associated family -------------------------------------------------

_RES_TOL = 1e-12
# elements of one (points, lams * 4) row block of a family batch: blocks this
# small reuse allocator memory, where whole-batch temporaries (megabytes on
# the extraction ring) came back as fresh pages, one page fault per 4 KB
_BLOCK = 1 << 12


def _family_terms(spec: TorusSpec, lams):
    """Terms of the deformed derivative at circle parameter(s) lams: c1
    exp(2 pi i <mu, z>) dz + c2 exp(2 pi i <mu, z>) dz_bar, one per spinor
    mode delta and eigenspace sign sigma, with mu = delta + sigma lams^2
    beta0 / 2.  Returns arrays (delta, mu, c1, c2) over the 2K terms, the
    sign +1 term of each mode first: delta (2K,), mu (2K,) + lams.shape and
    c1, c2 (2K,) + lams.shape + (4,)."""
    lams = np.asarray(lams, dtype=complex)
    shift = lams * lams * spec.beta0 / 2.0
    freqs, vecs = _u_modes(spec)
    minus = np.conj(vecs[np.arange(len(vecs)) ^ 1])     # the row of -delta
    ex = (slice(None),) + (None,) * lams.ndim
    sign = np.tile([1.0, -1.0], len(freqs))
    c1 = (vecs @ _SPLIT).reshape(-1, 4)[ex] / lams[..., None]
    c2 = lams[..., None] * (minus @ _SPLIT).reshape(-1, 4)[ex]
    deltas = np.repeat(freqs, 2)
    return deltas, deltas[ex] + sign[ex] * shift, c1, c2


def _real_part(out, what: str):
    # max |.| from max and min: no array-sized temporaries
    def peak(part):
        return max(float(np.max(part)), -float(np.min(part))) if out.size else 0.0

    imag = peak(out.imag)
    if imag > 1e-8 * (1.0 + peak(out.real)):
        raise ArithmeticError(f"{what} has imaginary residue {imag:.2e}")
    return out.real


class FamilyEvaluator:
    """Circle-parameter deformation of a spec's immersion, evaluated from a
    per-phase table of closed-form primitives.

    Each Fourier mode of the deformed derivative contributes an exponential
    ``exp(2 pi i <mu, z>)`` with a lam-shifted phase mu; the primitive is a
    zero-mean exponential (or a linear term at the isolated resonances).  At
    lam = 1 this reproduces the undeformed immersion exactly.
    """

    def __init__(self, spec: TorusSpec, lam: complex, tol: float = 1e-9,
                 warn: bool = True):
        lam = complex(lam)
        if abs(abs(lam) - 1.0) > 1e-12:
            raise ValueError("family parameter must lie on the unit circle")
        self.spec = spec
        self.lam = lam
        self._build_table()
        self.period_defects = self._monodromy(tol)
        if warn and max(self.period_defects.values()) > tol:
            warnings.warn(
                f"family member lam={lam:.6g} breaks lattice periodicity "
                f"(defect {max(self.period_defects.values()):.3e})",
                MonodromyWarning, stacklevel=3)

    def _build_table(self):
        """Group the terms by phase; exponential primitives go to the
        ``_waves`` mode table, resonant (mu = 0) rows to ``_linear``."""
        _, mu, c1, c2 = _family_terms(self.spec, self.lam)
        mu, c = _merge(mu, np.concatenate([c1, c2], axis=1))
        res = np.abs(mu) <= _RES_TOL
        self._linear = c[res, :4], c[res, 4:]
        mu, c1, c2 = mu[~res], c[~res, :4], c[~res, 4:]
        closed = np.linalg.norm(mu[:, None] * c1 - np.conj(mu)[:, None] * c2,
                                axis=1)
        scale = (np.linalg.norm(c1, axis=1) + np.linalg.norm(c2, axis=1)
                 + 1e-30)
        bad = np.flatnonzero(closed > 1e-8 * scale)
        if bad.size:
            raise ArithmeticError(
                f"phase {mu[bad[0]]} fails closedness ({closed[bad[0]]:.2e}); "
                "family table is inconsistent")
        self._waves = mu, c1 / (1j * np.pi * np.conj(mu))[:, None]

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = _mode_sum(*self._waves, z)
        for c1, c2 in zip(*self._linear):
            out += z[..., None] * c1 + np.conj(z)[..., None] * c2
        return _real_part(out, "family value")

    def _monodromy(self, tol: float) -> dict:
        mu, vecs = self._waves
        defects = {}
        for name, g in (("g1", self.spec.lattice.g1), ("g2", self.spec.lattice.g2)):
            total = float(np.sum(np.abs(np.exp(2j * np.pi * dot_r2(mu, g)) - 1.0)
                                 * np.linalg.norm(vecs, axis=1)))
            for c1, c2 in zip(*self._linear):
                total += np.linalg.norm(g * c1 + np.conj(g) * c2)
            defects[name] = float(total)
        return defects


def associated_family(spec: TorusSpec, lam: complex, z=None, tol: float = 1e-9,
                      warn: bool = True):
    """Deformed immersion at circle parameter lam.

    With ``z`` given, returns the value; otherwise returns the evaluator
    (which carries the per-generator period defects).
    """
    ev = FamilyEvaluator(spec, lam, tol=tol, warn=warn)
    if z is None:
        return ev
    return ev(z)


def family_samples(spec: TorusSpec, z, lams, basepoint_zero: bool = True):
    """Family values on a batch of circle parameters, vectorized over (z, lam).

    Agrees with stacking :class:`FamilyEvaluator` values.  The terms come
    from the same builder but are not grouped by phase.  Each wave factors
    as e(<delta, z>) e(sigma <lam^2 beta0 / 2, z>), e(x) = exp(2 pi i x), and
    the second factor's sign -1 value is the conjugate of its sign +1 one:
    the batch costs one exponential per (mode, point), one cos/sin table
    over (z, lam) and one (z, modes) @ (modes, lam * 4) product per sign.
    A term's columns where mu vanishes (the resonances) take the linear
    primitive instead.  With ``basepoint_zero`` the value at z = 0 is
    subtracted, normalizing the family as an extended lift.

    Returns shape ``z.shape + lams.shape + (4,)``.
    """
    z = np.asarray(z, dtype=complex)
    lams = np.asarray(lams, dtype=complex)
    shape = z.shape + lams.shape + (4,)
    zs, lams = z.ravel(), lams.ravel()
    deltas, mu, c1, c2 = _family_terms(spec, lams)
    if not len(deltas):
        return np.zeros(shape)
    res = np.abs(mu) <= _RES_TOL                               # (2K, lams)
    vec = c1 / np.where(res, 1.0, 1j * np.pi * np.conj(mu))[..., None]
    vec[res] = 0.0
    waves = np.exp(2j * np.pi * dot_r2(deltas[None, ::2], zs[:, None]))
    plus, minus = (vec[s::2].reshape(len(deltas) // 2, -1) for s in (0, 1))
    # e(sigma x), x = <lam^2 beta0 / 2, z>, is e(x) or its conjugate
    arg = TWO_PI * dot_r2(lams * lams * spec.beta0 / 2.0, zs[:, None])
    phase = np.empty(arg.shape + (1,), dtype=complex)
    np.cos(arg, out=phase.real[..., 0])
    np.sin(arg, out=phase.imag[..., 0])
    out = np.empty((len(zs), len(lams), 4), dtype=complex)
    # row blocks, with one reused buffer for the sign -1 product
    step = max(1, _BLOCK // max(1, plus.shape[1]))
    tail = np.empty((min(step, len(zs)),) + out.shape[1:], dtype=complex)
    for lo in range(0, len(zs), step):
        rows = slice(lo, lo + step)
        blk = out[rows]
        rest = tail[:len(blk)]
        np.matmul(waves[rows], plus, out=blk.reshape(len(blk), -1))
        np.matmul(waves[rows], minus, out=rest.reshape(len(blk), -1))
        blk *= phase[rows]
        rest *= np.conj(phase[rows])
        blk += rest
    if res.any():
        cols = res.any(axis=0)
        lin1 = np.where(res[..., None], c1, 0.0)[:, cols].sum(axis=0)
        lin2 = np.where(res[..., None], c2, 0.0)[:, cols].sum(axis=0)
        out[:, cols] += (zs[:, None, None] * lin1
                         + np.conj(zs)[:, None, None] * lin2)
    if basepoint_zero:
        out -= vec.sum(axis=0)
    return _real_part(out.reshape(shape), "family batch")
