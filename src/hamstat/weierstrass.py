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
from dataclasses import dataclass, field

import numpy as np

from .algebra import EPS, LI_EPS_BAR, PI_MINUS, PI_PLUS
from .errors import ResonantFrequency
from .lattices import Lattice, _not_bool, enumerate_frequencies, parse_pair
from .numerics import TWO_PI, dot_r2

__all__ = [
    "TorusSpec", "immerse", "spinor_u", "regularity_scan", "FamilyEvaluator",
    "family_samples",
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
    def build(cls, lattice, beta0, pairs) -> "TorusSpec":
        """The validated spec; the constructor builds an unvalidated one."""
        return cls(lattice, beta0, pairs).validate()

    def validate(self):
        freq = enumerate_frequencies(self.lattice, self.beta0)
        for g, a in self.items():
            if not np.isfinite(a):
                raise ValueError(f"coefficient {a} at frequency {g} is not finite")
            if math.hypot(a.real, a.imag) > _MAX_MODULUS:
                raise ValueError(f"coefficient {a} at frequency {g} has a "
                                 f"modulus above {_MAX_MODULUS:.1e}, where "
                                 "the metric overflows the float range")
            if not any(abs(g - p) <= 1e-8 for p in freq):
                raise ValueError(f"coefficient frequency {g} is not in the "
                                 f"circle set for beta0 = {self.beta0}")
        return self

    def items(self):
        return [(g, a) for g, a in self.coeffs.values()]

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
    def from_dict(cls, data: dict) -> "TorusSpec":
        lat = Lattice.from_config(data["lattice"])
        beta0 = parse_pair(data["beta0"])
        pairs = [(parse_pair(c["gamma"]), complex(_not_bool(c["re"]),
                                                  _not_bool(c["im"])))
                 for c in data["coefficients"]]
        return cls.build(lat, beta0, pairs)

    @classmethod
    def from_json(cls, text: str) -> "TorusSpec":
        return cls.from_dict(json.loads(text))


# a C^4 row times this is the row pair (P+ vec, P- vec) of the two L_i
# eigenspaces, as one (K, 8) product
_SPLIT = np.concatenate([PI_PLUS, PI_MINUS]).T


def _grid_sum(freqs, vecs, frame, shape, real):
    """The mode sum on the affine grid z0 + i u + j v of the given shape,
    or its real part.

    Each wave factors as e(z0) e(i u) e(j v), so the grid costs K (n1 + n2)
    exponentials and one (n1, K) @ (K, 4 n2) product; the real part is one
    real product, [Re rows | Im rows] @ [Re right; -Im right].
    """
    z0, u, v = frame
    n1, n2 = shape
    if n1 < n2:     # the (K, n2, 4) factor below stays on the shorter side
        return _grid_sum(freqs, vecs, (z0, v, u), (n2, n1), real).swapaxes(0, 1)
    rows = np.exp(2j * np.pi * np.outer(np.arange(n1), dot_r2(freqs, u)))
    cols = np.exp(2j * np.pi * np.outer(dot_r2(freqs, v), np.arange(n2)))
    weights = np.exp(2j * np.pi * dot_r2(freqs, z0))[:, None] * vecs
    right = (cols[:, :, None] * weights[:, None, :]).reshape(len(freqs), -1)
    out = (np.concatenate([rows.real, rows.imag], axis=1)
           @ np.concatenate([right.real, -right.imag]) if real else rows @ right)
    return out.reshape(n1, n2, vecs.shape[1])


def _mode_sum(freqs, vecs, z, real=False):
    """Sum of vecs[j] exp(2 pi i <freqs[j], z>) over the rows of a mode
    table, shape ``z.shape + (4,)``, or its real part.

    A grid marked affine (a lattice grid or a scalar shift of one) is summed
    separably by `_grid_sum`, its steps read off the far ends of its first
    column and row so their error does not grow along the grid; every other
    input runs the loop.
    """
    if getattr(z, "affine", False) and min(z.shape) > 1 and len(freqs):
        z0 = z[0, 0]
        frame = (z0, (z[-1, 0] - z0) / (z.shape[0] - 1),
                 (z[0, -1] - z0) / (z.shape[1] - 1))
        return _grid_sum(freqs, vecs, frame, z.shape, real)
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape + (4,), dtype=complex)
    # one component at a time: a (z, 4) temporary per mode would raise the
    # peak memory of large inputs
    for delta, vec in zip(freqs, vecs):
        wave = np.exp(2j * np.pi * dot_r2(delta, z))
        for k in range(4):
            out[..., k] += wave * vec[k]
    return out.real if real else out


def _basis_column(gamma: complex, beta0: complex):
    denom = beta0 ** 2 - 4.0 * gamma ** 2
    if abs(denom) < max(1e-12, 1e-12 * abs(beta0) ** 2):
        raise ResonantFrequency(
            f"gamma = {gamma} resonates with beta0 = {beta0}; the primitive "
            "is only pseudo-periodic")
    return np.array([-1j * gamma, -beta0 / 2.0, gamma, -1j * beta0 / 2.0]) / denom


def immerse(spec: TorusSpec, z):
    """X = sum over (gamma, a) of Re(a) A_gamma + Im(a) B_gamma, shape
    (..., 4), with A_gamma and B_gamma the two basis surfaces of a frequency.

    With w_gamma = exp(-2 pi i <gamma, z>) column_gamma, A and B are the
    rotated real and imaginary parts of (4/pi) w_gamma, and
    Re(a) Re(w) + Im(a) Im(w) = Re(conj(a) w).  The rotation
    exp(theta L_i), theta = pi <beta0, z>, is real and equals
    e^(i theta) P+ + e^(-i theta) P-, so it moves inside the real part as
    the modes -gamma +- beta0/2: one mode sum and one real part serve all
    terms.
    """
    beta0 = spec.beta0
    half = beta0 / 2.0
    terms = [(g, a) for g, a in spec.items() if a != 0]
    gammas = np.array([g for g, _ in terms], dtype=complex)
    cols = np.array([np.conj(a) * (4.0 / np.pi) * _basis_column(g, beta0)
                     for g, a in terms]).reshape(-1, 4)
    freqs = (np.array([half, -half]) - gammas[:, None]).ravel()
    return np.ascontiguousarray(
        _mode_sum(freqs, (cols @ _SPLIT).reshape(-1, 4), z, real=True))


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


def regularity_scan(spec: TorusSpec, grid_n: int) -> float:
    """Sampled minimum of |u| over the fundamental domain (advisory only):
    the surface is immersed at the samples when it is positive."""
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    zs = spec.lattice.grid(grid_n)
    u = spinor_u(spec, zs)
    norms = np.empty(zs.shape)
    # np.linalg.norm's own sum of squares, unrolled over the 4 components,
    # a block of rows at a time so no temporary is the size of u
    step = max(1, _BLOCK // u[0].size)
    for lo in range(0, grid_n, step):
        s = (u[lo:lo + step].conj() * u[lo:lo + step]).real
        norms[lo:lo + step] = np.sqrt(s[..., 0] + s[..., 1] + s[..., 2]
                                      + s[..., 3])
    return float(np.min(norms))


# --- associated family -------------------------------------------------

_RES_TOL = 1e-12
# elements of one (points, lams * 4) row block of a family batch: its complex
# values are made a block at a time and only the real parts kept, so every
# temporary reuses allocator memory, where a whole-batch one (a megabyte on
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


def _peak(part) -> float:
    # max |.| from max and min: no array-sized temporaries
    return max(float(np.max(part)), -float(np.min(part))) if part.size else 0.0


def _real_part(real, imag: float, what: str):
    # imag: the largest |imag| of the whole batch, against its largest |real|
    if imag > 1e-8 * (1.0 + _peak(real)):
        raise ArithmeticError(f"{what} has imaginary residue {imag:.2e}")
    return real


class FamilyEvaluator:
    """Circle-parameter deformation of a spec's immersion, evaluated from a
    per-phase table of closed-form primitives.

    Each Fourier mode of the deformed derivative contributes an exponential
    ``exp(2 pi i <mu, z>)`` with a lam-shifted phase mu; the primitive is a
    zero-mean exponential (or a linear term at the isolated resonances).  At
    lam = 1 this reproduces the undeformed immersion exactly.
    """

    def __init__(self, spec: TorusSpec, lam: complex):
        lam = complex(lam)
        if abs(abs(lam) - 1.0) > 1e-12:
            raise ValueError("family parameter must lie on the unit circle")
        self.spec = spec
        self.lam = lam
        self._build_table()
        self.period_defects = self._monodromy()

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
        out = _mode_sum(*self._waves, z)
        z = np.asarray(z, dtype=complex)
        for c1, c2 in zip(*self._linear):
            out += z[..., None] * c1 + np.conj(z)[..., None] * c2
        return _real_part(out.real, _peak(out.imag), "family value")

    def _monodromy(self) -> dict:
        mu, vecs = self._waves
        defects = {}
        for name, g in (("g1", self.spec.lattice.g1), ("g2", self.spec.lattice.g2)):
            total = float(np.sum(np.abs(np.exp(2j * np.pi * dot_r2(mu, g)) - 1.0)
                                 * np.linalg.norm(vecs, axis=1)))
            for c1, c2 in zip(*self._linear):
                total += np.linalg.norm(g * c1 + np.conj(g) * c2)
            defects[name] = float(total)
        return defects


def family_samples(spec: TorusSpec, z, lams, out=None):
    """Family values on a batch of circle parameters, vectorized over (z, lam).

    Agrees with stacking :class:`FamilyEvaluator` values less their value
    at z = 0, which normalizes the family as an extended lift.  The terms come
    from the same builder but are not grouped by phase.  Each wave factors
    as e(<delta, z>) e(sigma <lam^2 beta0 / 2, z>), e(x) = exp(2 pi i x), and
    the second factor's sign -1 value is the conjugate of its sign +1 one:
    the batch costs one exponential per (mode, point), one cos/sin table
    over (z, lam) and one (z, modes) @ (modes, lam * 4) product per sign.
    A term's columns where mu vanishes (the resonances) take the linear
    primitive instead.  The complex values are made one `_BLOCK` row block
    at a time, and only their real parts are kept.

    Returns shape ``z.shape + lams.shape + (4,)``.  With ``out``, a float
    array of shape (z.size, lams.size, 4), the values are written into it.
    """
    z = np.asarray(z, dtype=complex)
    lams = np.asarray(lams, dtype=complex)
    shape = z.shape + lams.shape + (4,)
    zs, lams = z.ravel(), lams.ravel()
    if out is None:
        out = np.empty((len(zs), len(lams), 4))
    deltas, mu, c1, c2 = _family_terms(spec, lams)
    res = np.abs(mu) <= _RES_TOL                               # (2K, lams)
    vec = c1 / np.where(res, 1.0, 1j * np.pi * np.conj(mu))[..., None]
    vec[res] = 0.0
    waves = np.exp(2j * np.pi * dot_r2(deltas[None, ::2], zs[:, None]))
    plus, minus = (vec[s::2].reshape(len(deltas) // 2, 4 * len(lams))
                   for s in (0, 1))
    # e(sigma x), x = <lam^2 beta0 / 2, z>, is e(x) or its conjugate
    arg = TWO_PI * dot_r2(lams * lams * spec.beta0 / 2.0, zs[:, None])
    phase = np.empty(arg.shape + (1,), dtype=complex)
    np.cos(arg, out=phase.real[..., 0])
    np.sin(arg, out=phase.imag[..., 0])
    cols = res.any(axis=0)
    lin1 = np.where(res[..., None], c1, 0.0)[:, cols].sum(axis=0)
    lin2 = np.where(res[..., None], c2, 0.0)[:, cols].sum(axis=0)
    base = vec.sum(axis=0)
    # row blocks, in two reused buffers, one per sign
    step = max(1, _BLOCK // max(1, plus.shape[1]))
    head, tail = np.empty((2, min(step, len(zs))) + out.shape[1:],
                          dtype=complex)
    imag = 0.0
    for lo in range(0, len(zs), step):
        rows = slice(lo, lo + step)
        blk, rest = head[:len(waves[rows])], tail[:len(waves[rows])]
        np.matmul(waves[rows], plus, out=blk.reshape(len(blk), -1))
        np.matmul(waves[rows], minus, out=rest.reshape(len(blk), -1))
        blk *= phase[rows]
        rest *= np.conj(phase[rows])
        blk += rest
        if cols.any():
            blk[:, cols] += (zs[rows, None, None] * lin1
                             + np.conj(zs[rows])[:, None, None] * lin2)
        blk -= base
        out[rows] = blk.real
        imag = max(imag, _peak(blk.imag))
    return _real_part(out, imag, "family batch").reshape(shape)
