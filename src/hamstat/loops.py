"""Truncated twisted loops, their Iwasawa and Birkhoff factorizations, and
the holomorphic-potential correspondence.

Loops are stored as Fourier coefficients, one per exponent, and manipulated
pointwise on uniform circle samples; conversions go through the FFT.  Every
factorization splits into a rotation problem and a linear projection for the
translation.  A twisted loop's coefficients commute with L_i and lie in the
i^k eigenspaces of tau, so its E+ halves A(lam) (rotation) and p(lam)
(translation) fix it, and `twist_residual` is a loop's distance from the
twisted loop of its halves.  Both factorizations read the halves once, refuse
on that distance, solve on them and make 4x4 coefficients for the slots they
keep only.  The E- halves A(-i lam) and p(i lam) are a quarter turn of the
m-th roots away, so ``nsamples`` must be a multiple of 4.  So do `SpecLift`,
`potential_extract` and `ReconstructedLift`: their loops are twisted,
X(i lam) = tau X(lam), so they work on the first quarter of the circle and
fill the rest with `_twist_fill`.  The reconstruction integrates the
potential in closed form to one surface, the lam = 1 immersion.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import EPS, L_I, L_J, LI_EPS_BAR, PI_MINUS, PI_PLUS
from .errors import (ConvergenceFailure, LoopAliasing, NotInBigCell,
                     OutsideBigCell, PathIntegrationFailure, SingularInput)
from .numerics import (coeff_exponents, loop_coeffs, samples_from_coeffs,
                       unit_lambdas)
from .weierstrass import TorusSpec, family_samples

__all__ = [
    "TwistedLoop", "iwasawa", "birkhoff", "p_real_part",
    "q_minus", "SpecLift", "HolomorphicPotentialData",
    "potential_extract", "dpw_reconstruct", "ReconstructedLift",
]


# --- twisted loop container ---------------------------------------------

@dataclass
class TwistedLoop:
    """Finite Fourier loop with values in the (complexified) motion group.

    ``rot[j]`` and ``trans[j]`` are the coefficients of ``lam**ks[j]``; an
    exponent given twice raises ValueError.
    """

    ks: np.ndarray
    rot: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        self.ks = np.asarray(self.ks, dtype=int)
        self.rot = np.asarray(self.rot, dtype=complex)
        self.trans = np.asarray(self.trans, dtype=complex)
        order = np.argsort(self.ks)
        self.ks, self.rot, self.trans = self.ks[order], self.rot[order], self.trans[order]
        if (twice := self.ks[1:][np.diff(self.ks) == 0]).size:
            raise ValueError(f"exponent {twice[0]} is given twice")

    @property
    def degree(self) -> int:
        return int(np.max(np.abs(self.ks))) if len(self.ks) else 0

    def sample(self, m: int):
        """Rotation and translation samples at the m-th roots of unity."""
        return _on_circle(self.ks, self.rot, m), _on_circle(self.ks, self.trans, m)

    @classmethod
    def from_samples(cls, rot_samples, trans_samples) -> "TwistedLoop":
        return cls.from_coeffs(
            loop_coeffs(np.asarray(rot_samples, dtype=complex)),
            loop_coeffs(np.asarray(trans_samples, dtype=complex)))

    @classmethod
    def from_coeffs(cls, rot_hat, trans_hat) -> "TwistedLoop":
        """Loop from coefficients in FFT slots, trimmed by `_keep`."""
        keep = _keep(np.abs(rot_hat).max(axis=(1, 2)), np.abs(trans_hat).max(axis=1))
        return cls(coeff_exponents(len(keep))[keep], rot_hat[keep], trans_hat[keep])

    def value_at(self, lams):
        lams = np.asarray(lams, dtype=complex)
        powers = lams[..., None] ** self.ks
        rot = np.einsum("...k,kij->...ij", powers, self.rot)
        trans = np.einsum("...k,kj->...j", powers, self.trans)
        return rot, trans

    def compose(self, other: "TwistedLoop", m: int | None = None) -> "TwistedLoop":
        m = m or _pow2(2 * (self.degree + other.degree) + 4)
        r1, t1 = self.sample(m)
        r2, t2 = other.sample(m)
        return TwistedLoop.from_samples(
            r1 @ r2, np.einsum("mij,mj->mi", r1, t2) + t1)

    def twist_residual(self) -> float:
        """Distance from the twisted loop of the E+ halves, on which `iwasawa`
        and `birkhoff` refuse a loop: the larger of the `_halves` sums, 0 when
        each coefficient commutes with L_i and lies in its tau-eigenspace."""
        return max(_halves(self)[1])

    def reality_residual(self) -> float:
        """Max entry of conj(c_k) - c_{-k}, a missing c_{-k} being 0."""
        jm = np.minimum(np.searchsorted(self.ks, -self.ks), len(self.ks) - 1)
        found = self.ks[jm] == -self.ks
        rm = np.where(found[:, None, None], self.rot[jm], 0.0)
        tm = np.where(found[:, None], self.trans[jm], 0.0)
        return _max_abs(np.conj(self.rot) - rm, np.conj(self.trans) - tm)

    def norm(self) -> float:
        return float(np.max(np.abs(self.rot)) + np.max(np.abs(self.trans)))

    # serialization: list of (k, rotation 4x4, translation 4) records
    def to_dict(self) -> dict:
        def c2(z):
            return [float(np.real(z)), float(np.imag(z))]

        return {"coefficients": [
            {"k": int(k),
             "rotation": [[c2(v) for v in row] for row in r],
             "translation": [c2(v) for v in t]}
            for k, r, t in zip(self.ks, self.rot, self.trans)]}

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


_I_POW = np.array([1, 1j, -1, -1j])     # i^k at slot k % 4


def _keep(rot, trans):
    """Slots whose rotation or translation size is over 1e-12 of its part's
    largest (a translation has the units of length), else the first slot."""
    keep = (rot > 1e-12 * rot.max()) | (trans > 1e-12 * trans.max())
    keep[0] |= not keep.any()
    return keep


def _on_circle(ks, coeffs, m: int):
    """Samples at the m-th roots of unity of the loop with coefficients
    ``coeffs`` of distinct exponents ks, placed in their FFT slots;
    ValueError when m cannot resolve the exponents."""
    if m < 2 * int(np.max(np.abs(ks), initial=0)) + 2:
        raise ValueError(f"sample count {m} too small for the loop degree")
    hat = np.zeros((m,) + coeffs.shape[1:], dtype=complex)
    hat[ks % m] = coeffs
    return samples_from_coeffs(hat)


def _max_abs(*arrays) -> float:
    return max(float(np.abs(a).max(initial=0.0)) for a in arrays)


def _quarter(m: int) -> int:
    """m / 4 for a count of loop samples m; ValueError unless 4 divides m."""
    if m % 4:
        raise ValueError(f"sample count {m} is not a multiple of 4")
    return m // 4


def _twist_fill(x):
    """Samples x (..., m, 4) at the m-th roots of unity filled in place from
    their first quarter by the twist X(i lam) = tau X(lam), (x1, x2, x3, x4)
    -> (x3, -x4, -x1, x2), and tau^2 = -1: exact copies and negations."""
    q = x.shape[-2] // 4
    src, dst = x[..., :q, :], x[..., q:2 * q, :]
    dst[..., 0], dst[..., 3] = src[..., 2], src[..., 1]
    np.negative(src[..., 3], out=dst[..., 1])
    np.negative(src[..., 0], out=dst[..., 2])
    np.negative(x[..., :2 * q, :], out=x[..., 2 * q:, :])
    return x


def _pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


# --- spectral factorizations ---------------------------------------------

def _toeplitz(hat, row_exps, col_exps):
    """Block Toeplitz matrix of 2x2 coefficients in FFT slots: block (i, j)
    is the coefficient of lam**(row_exps[i] - col_exps[j])."""
    big = hat[(row_exps[:, None] - col_exps) % len(hat)]
    return big.transpose(0, 2, 1, 3).reshape(2 * len(row_exps), 2 * len(col_exps))


def _mul2(a, b):
    """Product of (..., 2, 2) stacks by broadcast, faster than matmul's."""
    return a[..., :1] * b[..., :1, :] + a[..., 1:] * b[..., 1:, :]


_ADJ_SIGNS = np.array([[1, -1], [-1, 1]])


def _su2(w):
    """The SU(2) element [[w1, -conj(w2)], [w2, conj(w1)]] whose first column
    is the unit vector w."""
    return np.array([[w[0], -np.conj(w[1])], [w[1], np.conj(w[0])]])


def _inv2(b):
    """Inverse of a (..., 2, 2) stack by the adjugate over the determinant.

    Raises SingularInput when a determinant is 0 or not finite, or an entry
    of the inverse overflows, so no NaN or inf is returned.
    """
    with np.errstate(all="ignore"):
        det = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]
        inv = (np.swapaxes(b[..., ::-1, ::-1], -1, -2) * _ADJ_SIGNS
               / det[..., None, None])
    if not (np.isfinite(det).all() and np.isfinite(inv).all()):
        raise SingularInput("2x2 factor is singular or not finite")
    return inv


# --- the E+ halves of a twisted loop -----------------------------------------

# Frame (E+, L_j E+) of C^4, E+ the +i eigenspace of L_i: a twisted lam^k
# rotation coefficient reads diag(C_k, i^-k C_k) in it, C_k = 0 at odd k, and
# a translation (p_k, i^k p_k), p_k = 0 at even k: 6 channels (vec C_k, p_k),
# p in the basis e = sqrt(2) E+.  _READ takes 20 entries to them, and _MAP's
# units and half units back, so each twisted entry is one rounded sum.
_E = np.array([[1, 0], [-1j, 0], [0, 1], [0, -1j]])
_E_PLUS, _LE = _E / np.sqrt(2.0), L_J @ _E
_READ = np.zeros((20, 6), dtype=complex)
_READ[:16, :4], _READ[16:, 4:] = np.kron(_E_PLUS.conj(), _E_PLUS), _E.conj() / 2
_MAP = np.zeros((2, 6, 20), dtype=complex)
_MAP[:, :4, :16] = np.kron(_E, _E.conj()).T / 2, np.kron(_LE, _LE.conj()).T / 2
_MAP[:, 4:, 16:] = _E.T, _LE.T
_TURN = np.array([[np.conj(w)] * 4 + [w] * 2 for w in _I_POW])   # per k % 4
_PARITY = np.array([[1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]])    # even, odd k
_ALPHA = np.array([1, -1j]) / np.sqrt(2.0)    # E+ coordinates of eps, normed
# conj swaps the halves, F^H conj(F) = [[0, Q], [Q^T, 0]] with Q = [[0, -1],
# [1, 0]]: the loop is real on the circle where A(lam) = Q conj(A(-i lam)) Q^T
# (X's entries reversed, with the adjugate's signs) and p(lam) = Q conj(p(i lam))


def _halves(loop: TwistedLoop):
    """A loop's E+ halves (n, 6) and its distances from their twisted loop:
    per part, rotation and translation, the sum over k of the largest entry
    by which a coefficient leaves it."""
    entries = np.concatenate([loop.rot.reshape(-1, 16), loop.trans], axis=1)
    halves = entries @ _READ * _PARITY[loop.ks % 2]
    dist = np.abs(entries - _entries(loop.ks, halves))
    return halves, [float(d.max(axis=1).sum()) for d in np.split(dist, [16], 1)]


def _read_halves(loop: TwistedLoop, m: int, tol: float):
    """A (m, 2, 2) and p (m, 2) sampled from the twisted loop of a loop's E+
    halves, the halves (n, 6), the scale max(1, |loop|) and the loop's
    `twist_residual`.  Raises SingularInput on a coefficient that is not
    finite and, naming the part, on a `_halves` distance over tol * scale;
    ValueError unless 4 | m and m resolves the loop."""
    _quarter(m)
    if not np.isfinite(norm := loop.norm()):
        raise SingularInput("loop coefficients must be finite")
    scale = max(1.0, norm)
    halves, off = _halves(loop)
    for part, d in zip(("rotation loop is not twisted in the L_i commutant",
                        "translation loop is not twisted"), off):
        if d > tol * scale:
            raise SingularInput(f"{part}: its coefficients are off by {d:.2e}")
    s = _on_circle(loop.ks, halves, m)
    return s[:, :4].reshape(m, 2, 2), s[:, 4:], halves, scale, max(off)


def _entries(ks, halves):
    """Entries (n, 20) of the twisted coefficients of E+ halves (n, 6) at ks:
    e part plus L_j e part turned by i^-k (rotation) and i^k (translation)."""
    return halves @ _MAP[0] + (halves * _TURN[ks % 4]) @ _MAP[1]


def _turn(a, p):
    """E+ half A p of samples p turned by E+ block samples A."""
    return a[..., 0] * p[..., :1] + a[..., 1] * p[..., 1:]


def _trimmed(slots):
    """The loop of E+ halves (m, 6) in FFT slots, 4 | m, and its slot mask:
    `_keep` on the largest of their `_entries`, max |x +- i^k y| over (x, y)
    = (C_00, C_11) / 2, (C_01, C_10) / 2 and (p_0, p_1), as each entry is one
    such sum times a unit.  Only kept slots are made."""
    half = (slots * [0.5, 0.5, 0.5, 0.5, 1, 1]).reshape(-1, 4, 6)   # k % 4 rows
    x, wy = half[..., [0, 1, 4]], half[..., [3, 2, 5]] * _I_POW[:, None]
    size = np.maximum(np.abs(x + wy), np.abs(x - wy)).reshape(-1, 3)
    keep = _keep(size[:, :2].max(axis=1), size[:, 2])
    ks = coeff_exponents(len(slots))[keep]
    entries = _entries(ks, slots[keep])
    return TwistedLoop(ks, entries[:, :16].reshape(-1, 4, 4), entries[:, 16:]), keep


# --- translation projections ---------------------------------------------

def q_minus(hat):
    """Exponents -1 .. -(m/2 - 1) of Fourier coefficients in FFT slots."""
    half = len(hat) // 2 + 1
    return np.concatenate([np.zeros_like(hat[:half]), hat[half:]])


def p_real_part(p_hat):
    """Projection of a twisted translation loop onto the real-form part along
    the holomorphic half, 2 Re of the strictly negative half n, on E+
    coefficients in FFT slots: conj(n)_j has E+ half i^j Q conj(n_-j)."""
    m = len(p_hat)
    out = q_minus(p_hat)
    out[1:m // 2] = (_I_POW[np.arange(1, m // 2) % 4, None]
                     * np.conj(p_hat[:m // 2:-1, ::-1]) * [-1, 1])
    return out


# --- Iwasawa factorization ------------------------------------------------

def iwasawa(loop: TwistedLoop, nsamples: int | None = None,
            tol: float = 1e-8) -> tuple[TwistedLoop, TwistedLoop]:
    """Split a complexified twisted loop as (real twisted) . (positive).

    The loop is read once into its E+ halves A, a loop in GL(2, C), and p.
    A = U B (U unitary on the circle, B holomorphic in the disk) is unique up
    to a constant unitary (Pressley-Segal, Loop Groups, ch. 8): B^-1 from one
    QR of A's band (Sayed-Kailath, Numer. Linear Algebra Appl. 8, 2001), U =
    A B^-1 with its imaginary rounding dropped, and a constant pins B(0) to
    the ray stabilizer.  The translation part is ``X = U . P(U^-1 p)``.  The
    factors are made from E+ halves, so their twist residuals read 0 to
    rounding: the twist is measured at entry only, by `_read_halves`.

    ``nsamples`` must be a multiple of 4 and resolve the loop (ValueError).
    A loop off the twisted group or a band with a pivot at rounding raises
    SingularInput, a factor spectrum's top sixteenth of |exponent| over 1e-6
    of its head LoopAliasing, and a product U B off the loop by more than
    tol * max(1, |loop|), or a U off real by more than tol, ConvergenceFailure.
    """
    m = nsamples or _pow2(max(64, 8 * loop.degree))
    a, p, halves, scale, off = _read_halves(loop, m, max(tol, 1e-7))

    # M maps X's exponents m/2 - 2, .., 0 to A X's even ones, both highest
    # first and on 2m slots (no wrap); M^H M is A^H A's Toeplitz section, so
    # R^-1's last block column is B^-1 with B(0) = R_LL, to eps cond(A)
    even = loop.ks[loop.ks % 2 == 0]
    cols = np.arange(m // 2 - 2, -1, -2)
    rows = np.arange(m // 2 - 2 + np.max(even, initial=0),
                     np.min(even, initial=0) - 1, -2)
    pad = np.zeros((2 * m, 2, 2), dtype=complex)
    pad[loop.ks] = halves[:, :4].reshape(-1, 2, 2)
    r = np.linalg.qr(_toeplitz(pad, rows, cols), mode="r")
    piv = np.diag(r)       # a pivot at rounding proves M numerically singular
    if np.min(np.abs(piv)) <= len(r) * np.finfo(float).eps * np.max(np.abs(piv)):
        raise SingularInput("rotation loop is singular: R has a pivot at rounding")
    col = np.linalg.solve(r, np.eye(len(r), 2, 2 - len(r))).reshape(-1, 2, 2)
    x_hat = np.zeros((m, 2, 2), dtype=complex)      # K0 cannot absorb R_LL's
    x_hat[cols] = col * (piv[-2:] / np.abs(piv[-2:]))   # diagonal phases
    b_inv = samples_from_coeffs(x_hat)
    b_hat = loop_coeffs(_inv2(b_inv))

    # pin B(0) to the ray stabilizer by a constant K0 in SU(2): B(0) is
    # diag(C0, C0) in the frame, where eps reads (alpha, -i alpha), so B(0)
    # eps is on the ray through eps when C0 alpha is on the ray through alpha
    v = b_hat[0] @ _ALPHA
    k0 = _su2(v / np.linalg.norm(v)) @ _su2(_ALPHA).conj().T
    b_hat = _mul2(k0.conj().T, b_hat)
    u = _mul2(a, _mul2(b_inv, k0))
    u = 0.5 * (u + np.conj(np.roll(u, m // 4, axis=0))[:, ::-1, ::-1] * _ADJ_SIGNS)
    # U and v = U^-1 p (U^-1 = U^H) by one FFT; v's real part x makes U's
    # translation U x, and the rest is B's
    u_slots = loop_coeffs(np.concatenate(
        [u.reshape(m, 4), _turn(np.conj(np.swapaxes(u, 1, 2)), p)], axis=1))

    edge = np.abs(coeff_exponents(m)) >= 15 * m // 32   # aliasing folds here
    ratio = max(np.abs(h[edge]).max() / np.abs(h).max() for h in (u_slots[:, :4], b_hat))
    if ratio > 1e-6:
        raise LoopAliasing(f"factor spectrum edge at {ratio:.1e} of its head at m = {m}")

    x_hat = p_real_part(u_slots[:, 4:])
    b_slots = np.concatenate([b_hat.reshape(m, 4), u_slots[:, 4:] - x_hat], axis=1)
    u_slots[:, 4:] = loop_coeffs(_turn(u, samples_from_coeffs(x_hat)))
    b_slots[m // 2:, :4] = u_slots[m // 2] = b_slots[m // 2] = 0.0   # B < 0, +-m/2
    (u_loop, u_keep), (b_loop, b_keep) = _trimmed(u_slots), _trimmed(b_slots)

    # the residual: kept halves, sampled by one FFT, against A and p, and the
    # loop's distance ``off`` from them; U is unitary: reality needs no scale
    kept = samples_from_coeffs(np.concatenate(
        [u_slots * u_keep[:, None], b_slots * b_keep[:, None]], axis=1))
    ua, ba = kept[:, :4].reshape(m, 2, 2), kept[:, 6:10].reshape(m, 2, 2)
    resid = max(_max_abs(_mul2(ua, ba) - a,
                         _turn(ua, kept[:, 10:]) + kept[:, 4:6] - p),
                off, scale * u_loop.reality_residual())
    if resid > tol * scale:
        raise ConvergenceFailure(f"factorization residual {resid:.3e} "
                                 f"exceeds tolerance {tol:.1e}")
    return u_loop, b_loop


# --- Birkhoff factorization -----------------------------------------------

_COND_MAX = 1e10         # Toeplitz condition number beyond which birkhoff
                         # reports the complement of the big cell


def birkhoff(loop: TwistedLoop, neg_degree: int | None = None,
             nsamples: int | None = None) -> tuple[TwistedLoop, TwistedLoop]:
    """Split a twisted loop as (negative, = Id at infinity) . (positive).

    The loop is read once into its E+ halves A and p.  G-'s coefficients
    solve the block Toeplitz system of A^-1's, whose condition number beyond
    the threshold signals the complement of the big cell; G-^-1 p splits
    into the negative and nonnegative translation halves.

    The E- system differs from the E+ one by unit phases i^-k only, so only
    the E+ one is solved.  A is even in lambda, so block (i, j) = shat[j - i]
    vanishes unless j - i is even, and the right-hand side has odd block rows
    only: the odd rows and unknowns (exponents -2, -4, ...) form a closed
    system, 48 x 40 at ``neg_degree`` 40, solved by one reduced QR: R has
    its singular values, hence its condition number, and R x = Q^H rhs.  The
    even class (even ``neg_degree``) has the same matrix and rhs 0: it is 0.

    ``nsamples`` must be a multiple of 4 and resolve the loop and
    ``neg_degree`` (ValueError); a loop that is not finite or off the twisted
    group, odd rotation modes included, raises SingularInput.
    """
    n = neg_degree or max(16, 2 * loop.degree)
    m = nsamples or _pow2(max(64, 8 * loop.degree, 4 * n))
    if m < 2 * n + 2:
        raise ValueError(f"sample count {m} too small for the negative "
                         f"degree {n}")
    a, p, _, scale, _ = _read_halves(loop, m, 1e-7)
    plus = loop_coeffs(_inv2(a))

    # block row i holds exponent -1 - i, block column j exponent -1 - j;
    # only the odd rows and columns can be nonzero
    rows = np.arange(1, n + 8, 2)
    cols = np.arange(1, n, 2)
    q, r = np.linalg.qr(_toeplitz(plus, -1 - rows, -1 - cols))
    sv = np.linalg.svd(r, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > _COND_MAX:
        raise OutsideBigCell(f"negative-factor system condition {cond:.3e}")
    rhs = -plus[(-1 - rows) % m].reshape(2 * len(rows), 2)
    half = np.linalg.solve(r, q.conj().T @ rhs)

    # Id plus the exponents k = -2, -4, ..., placed in their FFT slots
    gm_hat = np.zeros((m, 2, 2), dtype=complex)
    gm_hat[0] = np.eye(2)
    gm_hat[m - 1 - cols] = half.reshape(len(cols), 2, 2)
    gm = samples_from_coeffs(gm_hat)
    gm_inv = _inv2(gm)
    # G+ = G-^-1 A and v = G-^-1 p by one FFT; v's negative half, turned by
    # G-, is G-'s translation, the rest G+'s
    gp_slots = loop_coeffs(np.concatenate(
        [_mul2(gm_inv, a).reshape(m, 4), _turn(gm_inv, p)], axis=1))

    # positive factor must be holomorphic: measure the negative leakage
    leak = _max_abs(gp_slots[m // 2:, :4])
    if leak > 1e-7 * scale:
        raise OutsideBigCell(f"positive factor leaks negative modes ({leak:.2e})")

    neg = q_minus(gp_slots[:, 4:])
    gp_slots[:, 4:] -= neg
    gm_slots = np.concatenate([gm_hat.reshape(m, 4), loop_coeffs(
        _turn(gm, samples_from_coeffs(neg)))], axis=1)
    return _trimmed(gm_slots)[0], _trimmed(gp_slots)[0]


# --- lifts and the potential correspondence -------------------------------

class SpecLift:
    """Extended lift of a torus spec: the holomorphic half-angle ``h_fn``,
    h(z) = slope z with slope pi conj(beta0), whose `_frame_phase` is the
    pure-phase rotation factor, and the circle family of immersions,
    sampled on the loop parameter.  2 Re h is the Lagrangian angle and
    h(0) = 0."""

    def __init__(self, spec: TorusSpec):
        self.spec = spec
        self.lattice = spec.lattice
        self.slope = np.pi * np.conj(spec.beta0)

    def h_fn(self, z):
        return self.slope * np.asarray(z, dtype=complex)

    def dh(self, z):
        return np.full(np.shape(z), self.slope, dtype=complex)

    def samples(self, z, m: int):
        """X on the m-th roots of unity, shape (..., m, 4).

        The frame is F = exp(phi L_i), phi = `_frame_phase` of ``h_fn(z)``.
        Normalized as an extended lift: the value at the basepoint is the
        identity, so the family is shifted to vanish at z = 0.  The family is
        twisted, X(i lam) = tau X(lam), so `family_samples` writes it at
        lam_0 .. lam_{m/4 - 1} into the samples in place, through their
        (z.size, m, 4) layout, and `_twist_fill` gives the rest: m must be
        a multiple of 4 (else ValueError).
        """
        q = _quarter(m)
        z = np.asarray(z, dtype=complex)
        x = np.empty((z.size, m, 4))
        family_samples(self.spec, z.ravel(), unit_lambdas(m)[:q], out=x[:, :q])
        return _twist_fill(x).reshape(z.shape + (m, 4))


def _frame_phase(h, lams):
    """Real phase phi of the lift frame exp(phi L_i) = exp((lam^-2 h + lam^2
    conj(h)) L_i / 2) over the loop samples, shape (..., m): on |lam| = 1,
    phi = Re(h / lam^2)."""
    return (np.asarray(h, dtype=complex)[..., None] / lams ** 2).real


@dataclass
class HolomorphicPotentialData:
    """Weierstrass-type data that `dpw_reconstruct` integrates: the half-angle
    h(z) = slope z = 2 c z and the spinor components a and b, Taylor series
    in u = z / radius with the coefficient rows ``coeffs`` (2, K)."""

    slope: complex
    radius: float
    coeffs: np.ndarray

    def h(self, z):
        return self.slope * np.asarray(z, dtype=complex)

    def a(self, z):      # numpy.polynomial loads on the first call
        return np.polynomial.polynomial.polyval(np.asarray(z) / self.radius,
                                                self.coeffs[0])

    def b(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z) / self.radius,
                                                self.coeffs[1])

    def c(self, z):
        return np.full(np.shape(z), 0.5 * self.slope)


def _half_slots(m: int):
    """Roots of the half-angle phases e^{+-i h / (2 lam^2)} over m samples:
    +-lam_j^-2 are e^{-i pi s / m} at s = 4j, 4j + m (mod 2m), multiples of
    g = gcd(4, m), so they are the L = 2m / g roots zeta_k = e^{-2 pi i k / L}
    (k = s / g, natural DFT order).  Returns L and ``pick``, whose row j
    indexes +lam_j^-2 and -lam_j^-2."""
    g = math.gcd(4, m)
    j = np.arange(m)
    return 2 * m // g, np.stack([4 * j, 4 * j + m], axis=1) % (2 * m) // g


def _slot_series(c, size, moments=None):
    """exp(c zeta_k) at the roots zeta_k = e^{-2 pi i k / size}, shape
    c.shape + (size,); or, given ``moments`` (P, R, K) for c (P,), the
    integrals sum_k moments_k int_0^1 t^k exp(c zeta_k t) dt (P, R, size).
    Per block of c's first axis, one FFT of the Taylor terms c^n / n! (times
    sum_k moments_k / (n + k + 1)) up to the first n > C = max|c| with
    C^n / n! < 2^-53 e^C (36.8 > 53 ln 2), so each value is off by about
    eps e^C.  A non-finite c raises PathIntegrationFailure, an e^C that
    overflows LoopAliasing, and a rounding bound of the integrals (eps times
    their terms' absolute sum) above `_ETA_ROUNDING` PathIntegrationFailure."""
    big = max(float(np.max(np.abs(c), initial=0.0)), 1e-300)
    if not math.isfinite(big):
        raise PathIntegrationFailure("potential angle is not finite on the path")
    if big > 709.78:
        raise LoopAliasing(f"e^(|h| / 2) overflows at |h| / 2 = {big:.3g}")
    top = math.floor(big) + 1
    while top * math.log(big) - math.lgamma(top + 1) > big - 36.8:
        top += 1
    factors = np.cumprod(np.r_[1.0, big / np.arange(1, top + 1)])   # C^n / n!
    out = np.empty((c if moments is None else moments[..., 0]).shape + (size,), complex)
    if moments is not None:            # int_0^1 t^k t^n dt = 1 / (n + k + 1)
        kernel = 1.0 / np.add.outer(np.arange(1, moments.shape[-1] + 1),
                                    np.arange(len(factors)))
    fold = -(-len(factors) // size)     # every fold-th bin folds mod size
    step = max(1, _CHUNK // (len(factors) * math.prod(out.shape[1:-1])))
    for lo in range(0, len(c), step):
        blk = slice(lo, lo + step)
        ratio = c[blk] / big                # powers of c / C cannot overflow
        powers = np.empty((len(factors),) + ratio.shape, dtype=complex)
        powers[0] = 1.0
        for n in range(1, len(factors)):
            np.multiply(powers[n - 1], ratio, out=powers[n])
        terms = np.moveaxis(powers, 0, -1) * factors
        if moments is not None:
            bound = np.finfo(float).eps * np.max(
                np.abs(moments[blk]) @ (np.abs(terms) @ kernel.T)[..., None])
            if bound > _ETA_ROUNDING:
                raise PathIntegrationFailure(
                    f"dynamic range: e^(|h| / 2) swamps the potential (path "
                    f"integral rounding bound {bound:.1e} > {_ETA_ROUNDING:.0e})")
            terms = (moments[blk] @ kernel) * terms[:, None]
        out[blk] = np.fft.fft(terms, n=fold * size, axis=-1)[..., ::fold]
    return out


def _lift_w_minus1(lift, z, m: int):
    """Exponent -1 loop coefficient of W = e^{theta L_i} X_lam over z, with
    theta = -h / (2 lam^2): the lam^{+1} projection mean(lam W), taken
    through e^{theta L_i} = e^{i theta} P+ + e^{-i theta} P- so that the
    samples contract (both signs in one product per part of the complex
    weights) before they are rotated.  theta flips sign at i lam and
    tau L_i = -L_i tau, so Y = lam W has Y(i lam) = i tau Y(lam) and
    (i tau)^2 = Id: mean Y = (Id + i tau) S / (2q), S the sum of Y over the
    first q = m/4 roots, the only samples read.  m must be a multiple of 4
    (else ValueError).  Shape (..., 4)."""
    z, q = np.asarray(z, dtype=complex), _quarter(m)
    x = lift.samples(z, m)[..., :q, :]
    size, pick = _half_slots(m)
    # lam e^{-+i theta}, e^{-+i theta} = exp(i h zeta / 2) at the roots zeta
    # of +-lam^-2; the samples are real, so each part of the weights
    # contracts with them in place (a complex product would copy them)
    weights = _slot_series(0.5j * lift.h_fn(z), size)[..., pick[:q].T]
    weights *= unit_lambdas(m)[:q]                            # (..., 2, m/4)
    minus, plus = np.moveaxis(weights.real @ x + 1j * (weights.imag @ x), -2, 0)
    s = plus @ PI_PLUS.T + minus @ PI_MINUS.T
    return (s - 1j * (s @ L_J.T)) / (2 * q)          # tau s = -L_j s


_RING_N = 256           # ring points behind the Taylor series of W_{-1}


def potential_extract(lift, nsamples: int = 64,
                      taylor_radius: float | None = None):
    """Potential data (h, a, b) of an extended lift.

    a and b are twice the z-derivative of the exponent -1 loop coefficient
    W_{-1} of W = e^{-lam^-2 h L_i / 2} X, the translation half of the
    lift's negative Birkhoff factor.  W_{-1} is taken from ``nsamples`` loop
    samples on a 256-point ring of radius ``taylor_radius`` (by default
    1.35 (|g1| + |g2|) of ``lift.lattice``, so the ring scales with the
    domain); one FFT over the ring gives its Taylor series.  A pole inside
    the ring raises :class:`NotInBigCell`.  The slope of h is ``lift.dh``.
    """
    if taylor_radius is None:
        lat = lift.lattice
        taylor_radius = 1.35 * (abs(lat.g1) + abs(lat.g2))
    ring = taylor_radius * unit_lambdas(_RING_N)
    w_m1 = _lift_w_minus1(lift, ring, nsamples)                 # (_RING_N, 4)
    coeffs = _taylor_interpolant(2.0 * w_m1[:, :2], taylor_radius)
    return HolomorphicPotentialData(complex(lift.dh(0.0)), taylor_radius, coeffs)


def _taylor_interpolant(ring_values, radius):
    """Taylor coefficients in u = z / radius of the z-derivatives of functions
    holomorphic on a disk, from samples on |z| = radius along the first axis
    (rows of the result, at least one coefficient each).

    Raises :class:`NotInBigCell` when the coefficients fail to decay, which
    signals a pole inside the sampling circle.  Each series is cut after its
    last coefficient above 1e-14 of its head: past it the coefficients are
    rounding noise (about 1e-16 of the head for lift data).
    """
    coeffs = np.fft.fft(ring_values, axis=0) / len(ring_values)
    n = len(coeffs)
    head = np.max(np.abs(coeffs[:n // 8]), axis=0) + 1e-300
    ratio = np.max(np.max(np.abs(coeffs[-n // 8:]), axis=0) / head)
    if ratio > 1e-6:
        raise NotInBigCell("potential data is not analytic on the sampling "
                           f"disk (coefficient tail ratio {ratio:.2e})")
    big = np.abs(coeffs) > 1e-14 * head
    keep = np.flip(np.logical_or.accumulate(np.flip(big, 0)), 0)   # to the last
    top = max(2, keep.reshape(n, -1).any(axis=1).sum())
    return (coeffs * keep)[1:top].T * np.arange(1, top) / radius  # n c_n u^n-1


# --- reconstruction --------------------------------------------------------

# P+- eps and P+- L_i eps_bar, in the row order (+a, +b, -a, -b) of the path
# integrals that `ReconstructedLift.eta` contracts
_SPLIT_SPIN = np.stack([PI_PLUS @ EPS, PI_PLUS @ LI_EPS_BAR,
                        PI_MINUS @ EPS, PI_MINUS @ LI_EPS_BAR])
_CHUNK = 1 << 16        # elements of one (points, terms) block of a series
_ETA_ROUNDING = 3e-8    # largest rounding bound of eta that is accepted


class ReconstructedLift:
    """The lam = 1 immersion rebuilt from potential data by integrating the
    holomorphic frame and projecting onto the real form.

    eta(z) integrates e^{theta L_i} lam^-1 (a eps + b L_i eps_bar), theta =
    h / (2 lam^2), along 0 -> z in closed form: by e^{theta L_i} = e^{i theta}
    P+ + e^{-i theta} P-, it is S(z, zeta) = int_0^z a(v) e^{i slope v zeta /
    2} dv = sum_n g_n (i slope z zeta / 2)^n / n!, g_n = r sum_k a_k u^{k+1} /
    (n + k + 1), u = z / r, and the same for b, at the roots zeta of +-lam^-2
    (`_slot_series`).  Where e^{|h| / 2} swamps the potential, the series'
    rounding bound exceeds `_ETA_ROUNDING`, which raises PathIntegrationFailure.
    ``nsamples`` must be a multiple of 4 (ValueError); ``immersion`` raises
    LoopAliasing when it is too small for the angle.
    """

    def __init__(self, pot: HolomorphicPotentialData, nsamples: int = 64,
                 lattice=None):
        _quarter(nsamples)
        self.pot = pot
        self.m = nsamples
        self.lattice = lattice

    def eta(self, z):
        """The path integral along 0 -> z at lam_0 .. lam_{m/4 - 1}, shape
        z.shape + (m/4, 4): theta flips sign at i lam and tau maps eps,
        L_i eps_bar to -i times them, so eta at i lam is tau of eta at lam."""
        pot, m, q = self.pot, self.m, self.m // 4
        z = np.asarray(z, dtype=complex)
        u = np.broadcast_to(z.reshape(-1, 1) / pot.radius,
                            (z.size, pot.coeffs.shape[1]))
        moments = (pot.radius * np.cumprod(u, axis=1))[:, None] * pot.coeffs
        size, pick = _half_slots(m)
        sums = _slot_series(0.5j * (pot.slope * z.ravel()), size, moments)
        # (point, lam, +-, a|b): the row order of _SPLIT_SPIN
        acc = (sums[..., pick[:q]].transpose(0, 2, 3, 1).reshape(-1, q, 4)
               @ _SPLIT_SPIN / unit_lambdas(m)[:q, None])
        return acc.reshape(z.shape + (q, 4))

    def immersion(self, z):
        """X = F 2 Re(neg(1)), F = exp(phi L_i), neg(1) the holomorphic half:
        the negative coefficients of w = e^{-phi L_i} eta(z), summed.  phi
        flips sign at i lam, so w(i lam) = tau w(lam) (`_twist_fill`)."""
        m, q = self.m, self.m // 4
        z = np.asarray(z, dtype=complex)
        # pot.h is read per call: tracing may wrap it
        phi = _frame_phase(self.pot.h(z), unit_lambdas(m)[:q])
        cos, sin = np.cos(phi)[..., None], np.sin(phi)[..., None]
        eta = self.eta(z)
        w = np.empty(eta.shape[:-2] + (m, 4), dtype=complex)
        # e^{-phi L_i}: cos(-phi) = cos(phi) and sin(-phi) = -sin(phi) exactly
        np.subtract(cos * eta, sin * (eta @ L_I.T), out=w[..., :q, :])
        what = np.fft.fft(_twist_fill(w), axis=-2) / m
        exps = coeff_exponents(m)
        # aliasing folds the spectrum beyond +-m/2 onto the kept negative
        # half, so the top sixteenth of |exponent| must hold < 1e-6 of it
        edge = np.max(np.abs(what[..., np.abs(exps) >= 15 * m // 32, :]),
                      initial=0.0)
        head = np.max(np.abs(what[..., exps < 0, :]), initial=0.0)
        if edge > 1e-6 * head:
            raise LoopAliasing(f"loop spectrum edge at {edge / head:.1e} of "
                               f"its head: {m} samples cannot resolve the "
                               "angle's range")
        what[..., exps >= 0, :] = 0.0
        x = 2.0 * what.sum(axis=-2).real
        return cos[..., 0, :] * x + sin[..., 0, :] * (x @ L_I.T)


def dpw_reconstruct(pot: HolomorphicPotentialData, nsamples: int = 64,
                    quad_n=None, lattice=None) -> ReconstructedLift:
    """The surface reconstructed from potential data.  ``quad_n`` (the former
    Gauss order) is ignored with a DeprecationWarning, until the benchmark
    contract revision on the ROADMAP drops it."""
    if quad_n is not None:
        warnings.warn("quad_n is ignored", DeprecationWarning, stacklevel=2)
    return ReconstructedLift(pot, nsamples=nsamples, lattice=lattice)
