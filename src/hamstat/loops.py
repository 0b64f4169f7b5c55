"""Truncated twisted loops, their Iwasawa and Birkhoff factorizations, and
the holomorphic-potential correspondence.

Loops are stored as Fourier coefficients and manipulated pointwise on uniform
circle samples; conversions go through the FFT.  The group is the semidirect
product, so every factorization splits into a rotation-part problem and an
explicit linear projection for the translation part.  A twisted rotation loop
is fixed by its E+ block A(lam), a 2x2 loop: its lam^k coefficient is
diag(C_k, i^-k C_k) in the frame (E+, L_j E+).  Both factorizations read the
C_k on entry (`_plus_block`), solve on A (Iwasawa by a QR of its band) and
rebuild 4x4 coefficients on exit (`_from_plus`).  Translations turn by
diag(A(lam), A(-i lam)), whose E- half is a quarter turn of the m-th roots of
unity away, so both need ``nsamples`` to be a multiple of 4.  So do
`SpecLift.samples`, `potential_extract` and `ReconstructedLift`: their loops
are twisted, X(i lam) = tau X(lam), so they work on the first quarter of the
circle and fill the rest with `_twist_fill`.  The potential is a linear angle
and Taylor polynomials, so the reconstruction integrates it in closed form.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (EPS, L_I, L_J, LI_EPS_BAR, PI_MINUS, PI_PLUS,
                      tau_rotation, tau_vector)
from .errors import (ConvergenceFailure, LoopAliasing, NotInBigCell,
                     OutsideBigCell, PathIntegrationFailure, SingularInput)
from .lattices import parse_integer, parse_pair
from .numerics import (coeff_exponents, loop_coeffs, samples_from_coeffs,
                       unit_lambdas)
from .weierstrass import TorusSpec, family_samples, holomorphic_angle

__all__ = [
    "TwistedLoop", "su2_iwasawa", "iwasawa", "birkhoff", "p_real_part",
    "q_minus", "SpecLift", "HolomorphicPotentialData",
    "potential_extract", "dpw_reconstruct", "ReconstructedLift",
]


# --- twisted loop container ---------------------------------------------

@dataclass
class TwistedLoop:
    """Finite Fourier loop with values in the (complexified) motion group.

    ``rot[j]`` and ``trans[j]`` are the coefficients of ``lam**ks[j]``.
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
        """Loop from coefficients in FFT slots (slot j <-> exponent j mod m),
        keeping the slots above 1e-12 times the largest."""
        ks = coeff_exponents(rot_hat.shape[0])
        norms = (np.max(np.abs(rot_hat), axis=(1, 2))
                 + np.max(np.abs(trans_hat), axis=1))
        keep = norms > 1e-12 * max(norms.max(), 1e-300)
        if not np.any(keep):
            keep[0] = True
        return cls(ks[keep], rot_hat[keep], trans_hat[keep])

    def value_at(self, lams):
        lams = np.asarray(lams, dtype=complex)
        powers = lams[..., None] ** self.ks
        rot = np.einsum("...k,kij->...ij", powers, self.rot)
        trans = np.einsum("...k,kj->...j", powers, self.trans)
        return rot, trans

    def matrix5_at(self, lams):
        """Values as 5x5 affine matrices [[rot, trans], [0, 0]]."""
        rot, trans = self.value_at(lams)
        m5 = np.zeros(rot.shape[:-2] + (5, 5), dtype=complex)
        m5[..., :4, :4] = rot
        m5[..., :4, 4] = trans
        return m5

    def compose(self, other: "TwistedLoop", m: int | None = None) -> "TwistedLoop":
        m = m or _pow2(2 * (self.degree + other.degree) + 4)
        r1, t1 = self.sample(m)
        r2, t2 = other.sample(m)
        return TwistedLoop.from_samples(
            r1 @ r2, np.einsum("mij,mj->mi", r1, t2) + t1)

    def twist_residual(self) -> float:
        """Max entry of tau(c_k) - i^k c_k over the coefficients."""
        w = _I_POW[self.ks % 4]
        return _max_abs(tau_rotation(self.rot) - w[:, None, None] * self.rot,
                        tau_vector(self.trans) - w[:, None] * self.trans)

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


def _on_circle(ks, coeffs, m: int):
    """Samples at the m-th roots of unity of the loop with coefficients
    ``coeffs`` of lam**ks, placed in their FFT slots; ValueError when m
    cannot resolve the exponents."""
    if m < 2 * int(np.max(np.abs(ks), initial=0)) + 2:
        raise ValueError(f"sample count {m} too small for the loop degree")
    hat = np.zeros((m,) + coeffs.shape[1:], dtype=complex)
    np.add.at(hat, ks % m, coeffs)
    return samples_from_coeffs(hat)


def _max_abs(*arrays) -> float:
    return max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


def _finite_norm(loop: TwistedLoop) -> float:
    """``loop.norm()``, which is NaN or inf when a coefficient is."""
    norm = loop.norm()
    if not np.isfinite(norm):
        raise SingularInput("loop coefficients must be finite")
    return norm


def _parse_record(rec: dict):
    """(k, rotation, translation) of one serialized coefficient record."""
    return (parse_integer(rec["k"], "exponent"),
            [[parse_pair(v) for v in row] for row in rec["rotation"]],
            [parse_pair(v) for v in rec["translation"]])


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


# --- finite-dimensional Iwasawa (compact factor of SU(2)-type) -----------

def su2_iwasawa(g):
    """Split g in the complexified SU(2)-type factor as (K real, B) with B
    stabilizing the positive ray through the isotropic vector.

    The real factor is rebuilt from the image of that vector: its columns
    are determined by the frame the image spans.
    """
    g = np.asarray(g, dtype=complex)
    xi = g @ EPS
    cols = [2.0 * xi.real, 2.0 * (L_I @ xi).real, -2.0 * xi.imag,
            -2.0 * (L_I @ xi).imag]
    h = np.stack(cols, axis=1)
    norms = np.linalg.norm(h, axis=0)
    r = norms[0]
    if r < 1e-9:
        raise SingularInput("group element maps the ray vector to ~0")
    if np.max(np.abs(norms - r)) > 1e-9 * max(1.0, r):
        raise SingularInput("input is not in the complexified compact factor")
    k = h / r
    b = k.T @ g
    return k, b


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


# --- translation projections ---------------------------------------------

def q_minus(trans_samples):
    """Strictly negative Fourier part of circle samples, as samples."""
    hat = loop_coeffs(trans_samples)
    hat[:len(hat) // 2 + 1] = 0.0     # keep exponents -1 .. -(m/2 - 1)
    return samples_from_coeffs(hat)


def p_real_part(trans_samples):
    """Projection of a twisted translation loop onto the real-form part,
    along the holomorphic half: twice the real part of the strictly
    negative-frequency half."""
    neg = q_minus(trans_samples)
    return neg + np.conj(neg)


# --- the E+ block of a twisted rotation loop -------------------------------

# Frame (E+, L_j E+) of C^4: E+ spans the +i eigenspace of L_i, and L_j E+
# the -i one, since L_j anticommutes with L_i.  A matrix commuting with L_i
# is block diagonal in it, and tau = Ad(L_j) swaps the two blocks, so a
# twisted lam^k coefficient reads diag(C_k, i^-k C_k): the loop is
# diag(A(lam), A(-i lam)) with A its E+ block.
_E_PLUS = np.array([[1, 0], [-1j, 0], [0, 1], [0, -1j]]) / np.sqrt(2.0)
_FRAME = np.concatenate([_E_PLUS, L_J @ _E_PLUS], axis=1)
_TO_FRAME = np.kron(_FRAME.conj(), _FRAME)    # vec M -> vec F^H M F, unitary
# conj swaps the halves, F^H conj(F) = [[0, Q], [Q^T, 0]] with Q = [[0, -1],
# [1, 0]]: on the circle the loop is real where A(lam) = Q conj(A(-i lam)) Q^T,
# and Q X Q^T is X with its entries reversed and the adjugate's signs


def _plus_block(loop: TwistedLoop, m: int, gate: float):
    """(m, 2, 2) samples of a twisted loop's E+ block A, read off its
    coefficients C_k, (m, 4) samples of its translation, ``off``: the
    sum over k of the largest entry by which a coefficient leaves
    diag(C_k, i^-k C_k) with C_k even, which bounds the loop's distance from
    diag(A(lam), A(-i lam)) at every sample, and the C_k at ``loop.ks``.
    Raises SingularInput when ``off`` exceeds ``gate``, and ValueError when
    m is not a multiple of 4 (`_turn` needs it) or cannot resolve the loop.
    """
    _quarter(m)
    blocks = (loop.rot.reshape(-1, 16) @ _TO_FRAME).reshape(-1, 4, 4)
    plus = blocks[:, :2, :2].copy()
    blocks[:, 2:, 2:] -= _I_POW[-loop.ks % 4, None, None] * plus
    blocks[loop.ks % 2 == 0, :2, :2] = 0.0
    off = float(np.sum(np.max(np.abs(blocks), axis=(1, 2))))
    if off > gate:
        raise SingularInput(f"rotation loop is not twisted in the L_i "
                            f"commutant: its coefficients are off by {off:.2e}")
    return _plus_samples(loop.ks, plus, loop.trans, m) + (off, plus)


def _plus_samples(ks, plus, trans, m: int):
    """(m, 2, 2) E+ block and (m, 4) translation samples of the loop whose
    lam**ks coefficients have E+ blocks ``plus`` and translations ``trans``."""
    both = _on_circle(ks, np.concatenate([plus.reshape(-1, 4), trans], axis=1), m)
    return both[:, :4].reshape(m, 2, 2), both[:, 4:]


def _from_plus(plus_hat):
    """4x4 coefficients diag(C_j, i^-j C_j) in the frame of E+ coefficients
    C_j in FFT slots j, whose count is a multiple of 4: the inverse of
    `_plus_block`'s reading."""
    blocks = np.zeros((len(plus_hat), 4, 4), dtype=complex)
    blocks[:, :2, :2] = plus_hat
    blocks[:, 2:, 2:] = _I_POW[-np.arange(len(plus_hat)) % 4, None, None] * plus_hat
    return (blocks.reshape(-1, 16) @ _TO_FRAME.conj().T).reshape(-1, 4, 4)


def _turn(a, trans):
    """Translation samples rotated by diag(A(lam), A(-i lam)) in the frame,
    for E+ block samples A at m roots of unity, m a multiple of 4: the E-
    samples are A rolled a quarter turn."""
    m = len(a)
    pair = np.stack([a, np.roll(a, m // 4, axis=0)], axis=1)     # (m, 2, 2, 2)
    halves = (trans @ _FRAME.conj()).reshape(m, 2, 2)
    return np.einsum("mhij,mhj->mhi", pair, halves).reshape(m, 4) @ _FRAME.T


# --- Iwasawa factorization ------------------------------------------------

def iwasawa(loop: TwistedLoop, nsamples: int | None = None,
            tol: float = 1e-8) -> tuple[TwistedLoop, TwistedLoop]:
    """Split a complexified twisted loop as (real twisted) . (positive).

    The rotation part is its E+ block A, a loop in GL(2, C), whose Iwasawa
    splitting A = U B (U unitary on the circle, B holomorphic in the disk)
    is unique up to a constant unitary (Pressley-Segal, Loop Groups, ch. 8):
    B^-1 from one QR of A's band (Sayed-Kailath, Numer. Linear Algebra Appl.
    8, 2001), U = A B^-1 with its imaginary rounding dropped.  A constant
    correction pins B(0) to the ray stabilizer.  The translation part is the
    explicit projection ``X = F . P(F^{-1} T)``.

    ``nsamples`` must be a multiple of 4 and resolve the loop (ValueError); a
    rotation outside the twisted L_i commutant, or one whose band has a pivot
    at rounding, raises SingularInput, a factor spectrum's top sixteenth of
    |exponent| over 1e-6 of its head LoopAliasing, and a product U B off the
    loop by more than tol * max(1, |loop|), or a U off real by more than tol,
    ConvergenceFailure.
    """
    m = nsamples or _pow2(max(64, 8 * loop.degree))
    scale = max(1.0, _finite_norm(loop))
    a, trans, off, plus = _plus_block(loop, m, max(tol, 1e-7) * scale)

    # M maps X's exponents m/2 - 2, .., 0 to A X's even ones, both highest
    # first and on 2m slots (no wrap); M^H M is A^H A's Toeplitz section, so
    # R^-1's last block column is B^-1 with B(0) = R_LL, to eps cond(A)
    even = loop.ks[loop.ks % 2 == 0]
    cols = np.arange(m // 2 - 2, -1, -2)
    rows = np.arange(m // 2 - 2 + np.max(even, initial=0),
                     np.min(even, initial=0) - 1, -2)
    pad = np.zeros((2 * m, 2, 2), dtype=complex)
    pad[loop.ks] = plus
    r = np.linalg.qr(_toeplitz(pad, rows, cols), mode="r")
    piv = np.diag(r)       # a pivot at rounding proves M numerically singular
    if np.min(np.abs(piv)) <= len(r) * np.finfo(float).eps * np.max(np.abs(piv)):
        raise SingularInput("rotation loop is singular: R has a pivot at rounding")
    col = np.linalg.solve(r, np.eye(len(r), 2, 2 - len(r))).reshape(-1, 2, 2)
    x_hat = np.zeros((m, 2, 2), dtype=complex)      # K0 cannot absorb R_LL's
    x_hat[cols] = col * (piv[-2:] / np.abs(piv[-2:]))   # diagonal phases
    b_inv = samples_from_coeffs(x_hat)
    b_hat = loop_coeffs(_inv2(b_inv))

    # pin B(0) to the ray stabilizer by a constant compact K0; K0 is real
    # and commutes with L_i, so its E+ block is unitary
    b0 = _FRAME @ np.kron(np.eye(2), b_hat[0]) @ _FRAME.conj().T
    k0 = _E_PLUS.conj().T @ su2_iwasawa(b0)[0] @ _E_PLUS
    b_hat = _mul2(k0.conj().T, b_hat)
    u = _mul2(a, _mul2(b_inv, k0))
    u = 0.5 * (u + np.conj(np.roll(u, m // 4, axis=0))[:, ::-1, ::-1] * _ADJ_SIGNS)
    u_hat = loop_coeffs(u)

    edge = np.abs(coeff_exponents(m)) >= 15 * m // 32   # aliasing folds here
    ratio = max(np.max(np.abs(h[edge])) / np.max(np.abs(h)) for h in (u_hat, b_hat))
    if ratio > 1e-6:
        raise LoopAliasing(f"factor spectrum edge at {ratio:.1e} of its head at m = {m}")

    v = _turn(np.conj(np.swapaxes(u, 1, 2)), trans)     # U^-1 = U^H
    x = p_real_part(v)
    ut, bt = loop_coeffs(_turn(u, x)), loop_coeffs(v - x)
    b_hat[m // 2:] = u_hat[m // 2] = ut[m // 2] = bt[m // 2] = 0.0  # B < 0, +-m/2
    u_loop = TwistedLoop.from_coeffs(_from_plus(u_hat), ut)
    b_loop = TwistedLoop.from_coeffs(_from_plus(b_hat), bt)

    # the residual: the kept E+ coefficients against A at the samples, plus
    # A's distance ``off``; U is unitary, so its reality needs no scale
    ua, ut = _plus_samples(u_loop.ks, u_hat[u_loop.ks % m], u_loop.trans, m)
    ba, bt = _plus_samples(b_loop.ks, b_hat[b_loop.ks % m], b_loop.trans, m)
    resid = max(_max_abs(_mul2(ua, ba) - a, _turn(ua, bt) + ut - trans), off,
                scale * u_loop.reality_residual())
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

    The rotation part solves the block Toeplitz system for the negative
    factor's coefficients; a condition number beyond the threshold signals
    the complement of the big cell.  Translations use the +-frequency
    projections of the conjugated translation loop.

    The rotation loop is fixed by its E+ block A (`_plus_block`), so only
    the E+ system is solved, on the coefficients of A^-1: the E- system
    has the same singular values, its rows and columns differing only by
    the unit phases i^-k.  A carries only even powers of lambda, so block
    (i, j) = shat[j - i] vanishes unless j - i is even, and the right-hand
    side only has odd block rows.  The odd rows and odd unknowns (exponents
    -2, -4, ...) form a closed system (48 x 40 at ``neg_degree`` 40); the
    even class has the same matrix (for even ``neg_degree``) and a zero
    right-hand side, so its unknowns are 0 and its condition number is the
    half system's.

    ``nsamples`` must be a multiple of 4 and resolve the loop and
    ``neg_degree`` (ValueError); rotations outside the twisted L_i commutant,
    odd modes included, and non-finite coefficients raise SingularInput.
    """
    n = neg_degree or max(16, 2 * loop.degree)
    m = nsamples or _pow2(max(64, 8 * loop.degree, 4 * n))
    if m < 2 * n + 2:
        raise ValueError(f"sample count {m} too small for the negative "
                         f"degree {n}")
    gate = 1e-7 * max(1.0, _finite_norm(loop))
    a, trans, _, _ = _plus_block(loop, m, gate)
    plus = loop_coeffs(_inv2(a))

    # block row i holds exponent -1 - i, block column j exponent -1 - j;
    # only the odd rows and columns can be nonzero
    rows = np.arange(1, n + 8, 2)
    cols = np.arange(1, n, 2)
    big = _toeplitz(plus, -1 - rows, -1 - cols)
    rhs = -plus[(-1 - rows) % m].reshape(2 * len(rows), 2)
    half, _, _, sv = np.linalg.lstsq(big, rhs, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > _COND_MAX:
        raise OutsideBigCell(f"negative-factor system condition {cond:.3e}")

    # Id plus the exponents k = -2, -4, ..., placed in their FFT slots
    gm_hat = np.zeros((m, 2, 2), dtype=complex)
    gm_hat[0] = np.eye(2)
    gm_hat[m - 1 - cols] = half.reshape(len(cols), 2, 2)
    gm = samples_from_coeffs(gm_hat)
    gm_inv = _inv2(gm)
    gp_rot = _from_plus(loop_coeffs(_mul2(gm_inv, a)))

    # positive factor must be holomorphic: measure the negative leakage
    leak = _max_abs(gp_rot[coeff_exponents(m) < 0])
    if leak > gate:
        raise OutsideBigCell(f"positive factor leaks negative modes ({leak:.2e})")

    v = _turn(gm_inv, trans)
    neg = q_minus(v)
    g_minus = TwistedLoop.from_coeffs(_from_plus(gm_hat),
                                      loop_coeffs(_turn(gm, neg)))
    g_plus = TwistedLoop.from_coeffs(gp_rot, loop_coeffs(v - neg))
    return g_minus, g_plus


# --- lifts and the potential correspondence -------------------------------

class SpecLift:
    """Extended lift of a torus spec: the holomorphic half-angle ``h_fn``,
    whose `_frame_phase` is the pure-phase rotation factor, and the circle
    family of immersions, sampled on the loop parameter."""

    def __init__(self, spec: TorusSpec):
        self.spec = spec
        self.lattice = spec.lattice
        self.h_fn = holomorphic_angle(spec.beta0)
        self.dh = lambda z: np.full(np.shape(z), self.h_fn.derivative,
                                    dtype=complex)

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
    """Weierstrass-type data: the holomorphic half-angle h(z) = slope z (so
    dh = 2c = slope) and the spinor components a and b, Taylor series in
    u = z / radius with the coefficient rows ``coeffs`` (2, K)."""

    slope: complex
    radius: float
    coeffs: np.ndarray

    def h(self, z):
        return self.slope * np.asarray(z, dtype=complex)

    def dh(self, z):
        return np.full(np.shape(z), self.slope, dtype=complex)

    def a(self, z):      # numpy.polynomial loads on the first call
        return np.polynomial.polynomial.polyval(np.asarray(z) / self.radius,
                                                self.coeffs[0])

    def b(self, z):
        return np.polynomial.polynomial.polyval(np.asarray(z) / self.radius,
                                                self.coeffs[1])

    def c(self, z):
        return 0.5 * np.asarray(self.dh(z))


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
    """Potential data (h, dh, a, b) of an extended lift.

    a and b are twice the z-derivative of the exponent -1 loop coefficient
    W_{-1} of W = e^{-lam^-2 h L_i / 2} X, the translation half of the
    lift's negative Birkhoff factor.  W_{-1} is taken from ``nsamples`` loop
    samples on a 256-point ring of radius ``taylor_radius`` (by default
    1.35 (|g1| + |g2|) of ``lift.lattice``, so the ring scales with the
    domain); one FFT over the ring gives its Taylor series.  A pole inside
    the ring raises :class:`NotInBigCell`.  The slope of h is ``lift.dh``.
    """
    if not hasattr(lift, "h_fn"):
        raise TypeError("lift must expose the holomorphic half-angle h_fn")
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
    """Lift rebuilt from potential data by integrating the holomorphic frame
    and projecting onto the real form.

    eta(z) integrates e^{theta L_i} lam^-1 (a eps + b L_i eps_bar), theta =
    h / (2 lam^2), along 0 -> z in closed form: by e^{theta L_i} = e^{i theta}
    P+ + e^{-i theta} P-, it is S(z, zeta) = int_0^z a(v) e^{i slope v zeta /
    2} dv = sum_n g_n (i slope z zeta / 2)^n / n!, g_n = r sum_k a_k u^{k+1} /
    (n + k + 1), u = z / r, and the same for b, at the roots zeta of +-lam^-2
    (`_slot_series`).  Where e^{|h| / 2} swamps the potential, the series'
    rounding bound exceeds `_ETA_ROUNDING`, which raises PathIntegrationFailure.
    ``nsamples`` must be a multiple of 4 (ValueError); ``samples`` and
    ``immersion`` raise LoopAliasing when it is too small for the angle.
    """

    def __init__(self, pot: HolomorphicPotentialData, nsamples: int = 64,
                 lattice=None):
        _quarter(nsamples)
        self.pot = pot
        self.m = nsamples
        self.lattice = lattice
        self.h_fn = pot.h
        self.dh = pot.dh

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

    def _negative_half(self, z):
        """cos and sin of the frame phase phi at z on the first quarter
        (shape (..., m/4, 1)) and the m coefficients of w = e^{-phi L_i}
        eta(z) with the exponents >= 0 zeroed: the holomorphic half that the
        real form is projected along.  phi flips sign at i lam, so w(i lam)
        = tau w(lam): `_twist_fill` completes w before its m-point FFT."""
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
        return cos, sin, what

    def samples(self, z, m: int | None = None):
        """X samples at z on all m roots: X = F 2 Re(neg), F = exp(phi L_i)."""
        if m is not None and m != self.m:
            raise ValueError("sample count fixed at construction")
        what = self._negative_half(z)[2]
        phi = _frame_phase(self.pot.h(np.asarray(z, dtype=complex)),
                           unit_lambdas(self.m))
        cos, sin = np.cos(phi)[..., None], np.sin(phi)[..., None]
        x = 2.0 * (np.fft.ifft(what, axis=-2) * self.m).real   # neg + conj(neg)
        return cos * x + sin * (x @ L_I.T)

    def immersion(self, z):
        """The lam = 1 member, neg(1) the sum of the negative coefficients."""
        cos, sin, what = self._negative_half(z)
        x = 2.0 * what.sum(axis=-2).real
        return cos[..., 0, :] * x + sin[..., 0, :] * (x @ L_I.T)


def dpw_reconstruct(pot: HolomorphicPotentialData, nsamples: int = 64,
                    quad_n=None, lattice=None) -> ReconstructedLift:
    """The lift reconstructed from potential data.  ``quad_n`` (the former
    Gauss order) is ignored with a DeprecationWarning, until the benchmark
    contract revision on the ROADMAP drops it."""
    if quad_n is not None:
        warnings.warn("quad_n is ignored", DeprecationWarning, stacklevel=2)
    return ReconstructedLift(pot, nsamples=nsamples, lattice=lattice)
