"""Truncated twisted loops, their Iwasawa and Birkhoff factorizations, and
the holomorphic-potential correspondence.

Loops are stored as Fourier coefficients and manipulated pointwise on
uniform circle samples; conversions go through the FFT.  The group is the
semidirect product, so every factorization splits into a rotation-part
problem (handled by a commuting phase factor plus an SU(2)-type spectral
factorization in a 2x2 complex picture) and an explicit linear projection
for the translation part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (EPS, G0_BASIS, ID4, L_I, LI_EPS_BAR, PHASE_BASIS,
                      PI_MINUS, PI_PLUS, QUAT_BASIS, R_I, _li_rotate, coords,
                      from_coords, tau_rotation, tau_vector)
from .errors import (BranchDetectionFailure, ConvergenceFailure, LoopAliasing,
                     NotInBigCell, OutsideBigCell, PathIntegrationFailure,
                     SingularInput)
from .numerics import (coeff_exponents, gauss_legendre_01, loop_coeffs,
                       samples_from_coeffs, unit_lambdas)
from .weierstrass import TorusSpec, family_samples, holomorphic_angle

__all__ = [
    "TwistedLoop", "su2_iwasawa", "rotation_factor_split", "RotationSplit",
    "iwasawa", "birkhoff", "p_real_part", "q_minus", "q_plus",
    "SpecLift", "HolomorphicPotentialData", "potential_extract",
    "dpw_reconstruct", "ReconstructedLift",
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

    @classmethod
    def identity(cls) -> "TwistedLoop":
        return cls(np.array([0]), np.array([ID4], dtype=complex),
                   np.zeros((1, 4), dtype=complex))

    @property
    def degree(self) -> int:
        return int(np.max(np.abs(self.ks))) if len(self.ks) else 0

    def sample(self, m: int):
        """Rotation and translation samples at the m-th roots of unity."""
        if m < 2 * self.degree + 2:
            raise ValueError("sample count too small for the loop degree")
        rot_hat = np.zeros((m, 4, 4), dtype=complex)
        trans_hat = np.zeros((m, 4), dtype=complex)
        np.add.at(rot_hat, self.ks % m, self.rot)
        np.add.at(trans_hat, self.ks % m, self.trans)
        return samples_from_coeffs(rot_hat), samples_from_coeffs(trans_hat)

    @classmethod
    def from_samples(cls, rot_samples, trans_samples,
                     tol: float = 1e-12) -> "TwistedLoop":
        rot_hat = loop_coeffs(np.asarray(rot_samples, dtype=complex))
        trans_hat = loop_coeffs(np.asarray(trans_samples, dtype=complex))
        m = rot_hat.shape[0]
        ks = coeff_exponents(m)
        norms = (np.max(np.abs(rot_hat), axis=(1, 2))
                 + np.max(np.abs(trans_hat), axis=1))
        keep = norms > tol * max(norms.max(), 1e-300)
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

    def inverse(self, m: int | None = None) -> "TwistedLoop":
        m = m or _pow2(8 * self.degree + 16)
        r, t = self.sample(m)
        rinv = np.linalg.inv(r)
        return TwistedLoop.from_samples(
            rinv, -np.einsum("mij,mj->mi", rinv, t))

    def twist_residual(self) -> float:
        """Max entry of tau(c_k) - i^k c_k over the coefficients."""
        w = np.array([1, 1j, -1, -1j])[self.ks % 4]
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

    @classmethod
    def from_dict(cls, data: dict) -> "TwistedLoop":
        ks, rots, trs = [], [], []
        for k, r, t in map(_parse_record, data["coefficients"]):
            ks.append(k)
            rots.append(r)
            trs.append(t)
        return cls(np.array(ks), np.array(rots), np.array(trs))

    @classmethod
    def from_json(cls, text: str) -> "TwistedLoop":
        return cls.from_dict(json.loads(text))


def _max_abs(*arrays) -> float:
    return max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


def _parse_record(rec: dict):
    """(k, rotation, translation) of one serialized coefficient record."""
    return (int(rec["k"]),
            [[complex(v[0], v[1]) for v in row] for row in rec["rotation"]],
            [complex(v[0], v[1]) for v in rec["translation"]])


def _pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


# --- finite-dimensional Iwasawa (compact factor of SU(2)-type) -----------

def su2_iwasawa(g, tol: float = 1e-9):
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
    if r < tol:
        raise SingularInput("group element maps the ray vector to ~0")
    if np.max(np.abs(norms - r)) > tol * max(1.0, r):
        raise SingularInput("input is not in the complexified compact factor")
    k = h / r
    b = k.T @ g
    return k, b


# --- commuting-phase split of the rotation part ---------------------------

# the products (1, L_i) x (1, R_i, R_j, R_k), row-major
_SPLIT_BASIS = (PHASE_BASIS[:, None] @ np.concatenate([[ID4], G0_BASIS])
                ).reshape(8, 4, 4)


def _phase_coeffs(samples):
    """(p1, p2) with sample = (p1 Id + p2 L_i) . (G0-span factor)."""
    return coords(samples, _SPLIT_BASIS).reshape(samples.shape[:-2] + (2, 4))


@dataclass
class RotationSplit:
    branch: str                  # "i" or "ii"
    k: np.ndarray                # raw phase-factor samples, k @ m = input
    m: np.ndarray
    k_twisted: np.ndarray        # tau-compatible factors (branch ii corrected)
    m_twisted: np.ndarray
    residual: float


def rotation_factor_split(rot_samples, tol: float = 1e-8) -> RotationSplit:
    """Split rotation-loop samples into a phase factor times a compact-type
    factor, with sign continuity around the circle and branch detection.
    """
    g = np.asarray(rot_samples, dtype=complex)
    m_count = g.shape[0]
    coeffs = _phase_coeffs(g)                       # (M, 2, 4)
    col = np.argmax(np.sum(np.abs(coeffs) ** 2, axis=1), axis=1)
    p = np.take_along_axis(coeffs, col[:, None, None], axis=2)[:, :, 0]
    nu = p[:, 0] ** 2 + p[:, 1] ** 2
    if np.min(np.abs(nu)) < 1e-14:
        raise SingularInput("rotation sample is singular (isotropic phase)")
    p = p / np.sqrt(nu)[:, None]
    p = p * _continuity_signs(p)[:, None]
    k = from_coords(p, PHASE_BASIS)
    m = from_coords(p * [1, -1], PHASE_BASIS) @ g
    if np.linalg.norm(p[0] + p[-1]) < np.linalg.norm(p[0] - p[-1]):
        raise BranchDetectionFailure("phase factor does not close up over the circle")
    residual = float(np.max(np.abs(k @ m - g)))

    # branch from the coefficient pattern of the phase factor
    p1, p2 = loop_coeffs(p).T
    ks = coeff_exponents(m_count)
    mod4 = np.mod(ks, 4)
    odd = np.abs(ks) % 2 == 1
    if np.max(np.abs(p1[odd])) + np.max(np.abs(p2[odd])) > tol * (1 + np.max(np.abs(p1))):
        raise BranchDetectionFailure("phase factor has odd Fourier content")
    v_i = (np.sum(np.abs(p2[mod4 == 0]) ** 2) + np.sum(np.abs(p1[mod4 == 2]) ** 2))
    v_ii = (np.sum(np.abs(p1[mod4 == 0]) ** 2) + np.sum(np.abs(p2[mod4 == 2]) ** 2))
    total = v_i + v_ii
    if total < 1e-28 or v_i <= v_ii:
        branch = "i"
        k_tw, m_tw = k, m
        consistency = v_i
    else:
        branch = "ii"
        k_tw = -np.einsum("ij,mjk->mik", L_I, k)     # strip the L_i prefactor
        m_tw = _branch_ii_compact(m_count, -1.0) @ m
        consistency = v_ii
    if consistency > tol ** 2 * max(total, 1.0):
        raise BranchDetectionFailure(
            f"no consistent twist branch (violations {v_i:.2e}/{v_ii:.2e})")
    return RotationSplit(branch, k, m, k_tw, m_tw, residual)


def _continuity_signs(p):
    """Signs s_j making each s_j p_j the nearer of +-p_j to s_(j-1) p_(j-1),
    s_0 = 1; a tie keeps +p_j.

    |a + b|^2 - |a - b|^2 = 4 Re<a, b>, so s_j = -1 exactly when
    s_(j-1) Re<p_j, p_(j-1)> < 0: the signs are a running product of
    sign Re<p_j, p_(j-1)>, restarted at +1 after each tie.
    """
    r = np.zeros(len(p))
    r[1:] = np.sum(p[1:] * np.conj(p[:-1]), axis=1).real
    idx = np.arange(len(p))
    start = np.maximum.accumulate(np.where(r == 0.0, idx, 0))
    flips = np.cumsum(r < 0.0)
    return 1 - 2 * ((flips - flips[start]) % 2)


def _branch_ii_compact(m: int, sign: float):
    """cos 2t Id + sign sin 2t R_i at the samples lam = e^{it}; the branch-(ii)
    phase of a twisted loop is L_i times this factor with sign +1."""
    lams = unit_lambdas(m)
    cs = np.stack([0.5 * (lams ** 2 + lams ** -2),
                   sign * (lams ** 2 - lams ** -2) / 2j], axis=-1)
    return from_coords(cs, np.stack([ID4, R_I]))


# --- spectral factorizations ---------------------------------------------

def _half_plus(samples):
    """Samples of half the constant mode plus the positive modes
    1 .. m/2 - 1 of circle samples (axis 0)."""
    m = samples.shape[0]
    hat = np.fft.fft(samples, axis=0) / m
    placed = np.zeros_like(hat)
    placed[0] = 0.5 * hat[0]
    placed[1:m // 2] = hat[1:m // 2]
    return np.fft.ifft(placed, axis=0) * m


def _szego_scalar(w_samples):
    """Scalar circle factorization w = u * b with |u| = 1 and b extending
    holomorphically into the disk, b(0) > 0 (classical log-splitting)."""
    w = np.asarray(w_samples, dtype=complex)
    mod2 = np.abs(w) ** 2
    if np.min(mod2) < 1e-28:
        raise SingularInput("phase-factor loop vanishes on the circle")
    b = np.exp(_half_plus(np.log(mod2)))
    u = w / b
    if np.max(np.abs(np.abs(u) - 1.0)) > 1e-8:
        raise ConvergenceFailure("scalar factor is not unimodular; "
                                 "loop may carry winding")
    return u, b


_WILSON_TOL = 1e-13      # Newton stops once |B^-* J B^-1 - Id| is below this
_WILSON_ITER = 60


def _wilson_factor(j_samples):
    """Canonical spectral factor of a Hermitian positive 2x2 loop:
    J = B* B with B holomorphic and invertible in the disk.

    Newton-type iteration on samples; quadratically convergent for strictly
    positive J.  Normalization of the constant unitary freedom is left to
    the caller.
    """
    j = np.asarray(j_samples, dtype=complex)
    m = j.shape[0]
    j0 = np.mean(j, axis=0)
    j0 = 0.5 * (j0 + j0.conj().T)
    low = np.linalg.cholesky(j0)
    b = np.broadcast_to(low.conj().T, j.shape).copy()
    eye = np.broadcast_to(np.eye(2), j.shape)
    for _ in range(_WILSON_ITER):
        binv = np.linalg.inv(b)
        s = np.conj(np.swapaxes(binv, 1, 2)) @ j @ binv - eye
        err = float(np.max(np.abs(s)))
        b = (eye + _half_plus(s)) @ b
        bhat = np.fft.fft(b, axis=0) / m
        bhat[m // 2 + 1:] = 0.0
        b = np.fft.ifft(bhat, axis=0) * m
        if err < _WILSON_TOL:
            break
    else:
        if err > 1e-9:
            raise ConvergenceFailure(f"spectral factorization stalled at {err:.2e}")
    return b


# Bridge between the 4x4 compact-type span and 2x2 matrices: the quaternion
# units as 2x2 matrices E_b (orthogonal, <E_b, E_b> = 2) and the (4, 4, 2, 2)
# intertwiners g -> sum_b q_b(g) E_b and m -> sum_b (<E_b, m> / 2) QUAT_BASIS_b.
_QUAT_2X2 = np.array([[[1, 0], [0, 1]], [[1j, 0], [0, -1j]],
                      [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
_TO_2X2 = (coords(np.eye(16).reshape(16, 4, 4), QUAT_BASIS)
           @ _QUAT_2X2.reshape(4, 4)).reshape(4, 4, 2, 2)
_FROM_2X2 = from_coords(_QUAT_2X2.conj().reshape(4, 4).T / 2.0,
                        QUAT_BASIS).transpose(1, 2, 0).reshape(4, 4, 2, 2)


def _g0_to_2x2(samples):
    return np.tensordot(samples, _TO_2X2, axes=2)


def _2x2_to_g0(m):
    return np.tensordot(m, _FROM_2X2, axes=([-2, -1], [2, 3]))


# --- translation projections ---------------------------------------------

def _split_neg(samples):
    """Strictly negative Fourier part of circle samples, as samples."""
    m = samples.shape[0]
    hat = np.fft.fft(samples, axis=0) / m
    hat[:m // 2 + 1] = 0.0            # keep exponents -1 .. -(m/2 - 1)
    return np.fft.ifft(hat, axis=0) * m


def p_real_part(trans_samples):
    """Projection of a twisted translation loop onto the real-form part,
    along the holomorphic half: twice the real part of the strictly
    negative-frequency half."""
    neg = _split_neg(trans_samples)
    return neg + np.conj(neg)


def q_minus(trans_samples):
    return _split_neg(trans_samples)


def q_plus(trans_samples):
    return trans_samples - _split_neg(trans_samples)


# --- Iwasawa factorization ------------------------------------------------

def iwasawa(loop: TwistedLoop, nsamples: int | None = None,
            tol: float = 1e-8) -> tuple[TwistedLoop, TwistedLoop]:
    """Split a complexified twisted loop as (real twisted) . (positive).

    The rotation part follows the constructive route: commuting-phase /
    compact-type split, scalar log-factorization of the phase, spectral
    factorization of the compact part in the 2x2 picture, and a constant
    finite-dimensional correction pinning the positive factor's value at 0
    to the ray stabilizer.  The translation part is the explicit projection
    ``X = F . P(F^{-1} T)``.
    """
    m = nsamples or _pow2(max(64, 8 * loop.degree))
    rot, trans = loop.sample(m)

    split = rotation_factor_split(rot)
    u_sc, b_sc = _szego_scalar(_phase_w(split.k_twisted))
    psi = from_coords(np.stack([u_sc.real, u_sc.imag], axis=-1), PHASE_BASIS)
    gamma = from_coords(np.stack([0.5 * (b_sc + 1.0 / b_sc),
                                  (b_sc - 1.0 / b_sc) / 2j], axis=-1),
                        PHASE_BASIS)

    m2 = _g0_to_2x2(split.m_twisted)
    j2 = np.conj(np.swapaxes(m2, 1, 2)) @ m2
    b2 = _wilson_factor(j2)
    u2 = m2 @ np.linalg.inv(b2)
    phi = _2x2_to_g0(u2)
    beta = _2x2_to_g0(b2)

    f_rot = psi @ phi
    if split.branch == "ii":
        f_rot = (L_I @ _branch_ii_compact(m, 1.0)) @ f_rot
    b_rot = gamma @ beta

    # pin B(0) into the ray stabilizer by a constant compact correction
    b0_val = np.mean(b_rot, axis=0)     # holomorphic: value at 0 = mean
    k0, _ = su2_iwasawa(b0_val)
    f_rot = f_rot @ k0
    b_rot = np.einsum("ij,mjk->mik", k0.T, b_rot)

    if np.max(np.abs(f_rot.imag)) > 1e-6:
        raise ConvergenceFailure("real factor has imaginary residue")
    f_real = f_rot.real
    v = np.einsum("mji,mj->mi", f_real, trans)      # F^{-1} = F^T pointwise
    neg = _split_neg(v)
    x = neg + np.conj(neg)
    b_tr = v - neg - np.conj(neg)

    u_loop = TwistedLoop.from_samples(
        f_real.astype(complex), np.einsum("mij,mj->mi", f_real, x))
    b_loop = TwistedLoop.from_samples(b_rot, b_tr)

    ur, ut = u_loop.sample(m)
    br, bt = b_loop.sample(m)
    recon_r = ur @ br
    recon_t = np.einsum("mij,mj->mi", ur, bt) + ut
    resid = max(float(np.max(np.abs(recon_r - rot))),
                float(np.max(np.abs(recon_t - trans))))
    scale = max(1.0, loop.norm())
    if resid > tol * scale:
        raise ConvergenceFailure(f"factorization residual {resid:.3e} "
                                 f"exceeds tolerance {tol:.1e}")
    return u_loop, b_loop


def _phase_w(k_samples):
    """Scalar coordinate w = p1 + i p2 of a phase-factor sample batch."""
    return coords(k_samples, PHASE_BASIS) @ np.array([1, 1j])


# --- Birkhoff factorization -----------------------------------------------

_COND_MAX = 1e10         # Toeplitz condition number beyond which birkhoff
                         # reports the complement of the big cell


def birkhoff(loop: TwistedLoop, neg_degree: int | None = None,
             nsamples: int | None = None,
             tol: float = 1e-8) -> tuple[TwistedLoop, TwistedLoop]:
    """Split a twisted loop as (negative, = Id at infinity) . (positive).

    The rotation part solves the block Toeplitz system for the negative
    factor's coefficients; a condition number beyond the threshold signals
    the complement of the big cell.  Translations use the +-frequency
    projections of the conjugated translation loop.

    A twisted rotation loop carries only even powers of lambda, so block
    (i, j) = shat[j - i] vanishes unless j - i is even, and the right-hand
    side only has odd block rows.  The odd rows and odd unknowns (exponents
    -2, -4, ...) form a closed system; the even class has the same matrix
    (for even ``neg_degree``) and a zero right-hand side, so its unknowns
    are 0 and its condition number is the half system's.  A rotation loop
    with odd modes is rejected rather than decoupled.
    """
    n = neg_degree or max(16, 2 * loop.degree)
    m = nsamples or _pow2(max(64, 8 * loop.degree, 4 * n))
    rot, trans = loop.sample(m)
    shat = loop_coeffs(np.linalg.inv(rot))
    exps = coeff_exponents(m)
    gate = max(tol, 1e-7) * max(1.0, loop.norm())
    odd = float(np.max(np.abs(shat[exps % 2 == 1]), initial=0.0))
    if odd > gate:
        raise SingularInput(f"rotation loop is not twisted: odd modes "
                            f"of its inverse reach {odd:.2e}")

    # block row i holds exponent -1 - i, block column j exponent -1 - j;
    # only the odd rows and columns can be nonzero
    rows = np.arange(1, n + 8, 2)
    cols = np.arange(1, n, 2)
    big = shat[(cols - rows[:, None]) % m]
    big = big.transpose(0, 2, 1, 3).reshape(4 * len(rows), 4 * len(cols))
    rhs = -shat[(-1 - rows) % m].reshape(4 * len(rows), 4)
    half, _, _, sv = np.linalg.lstsq(big, rhs, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > _COND_MAX:
        raise OutsideBigCell(f"negative-factor system condition {cond:.3e}")

    # Id plus the exponents -2, -4, ..., placed in their FFT slots
    if m < 2 * n + 2:
        raise ValueError("sample count too small for the loop degree")
    gm_hat = np.zeros((m, 4, 4), dtype=complex)
    gm_hat[0] = ID4
    gm_hat[m - 1 - cols] = half.reshape(len(cols), 4, 4)
    gm_rot = samples_from_coeffs(gm_hat)
    gm_inv = np.linalg.inv(gm_rot)
    gp_rot = gm_inv @ rot

    # positive factor must be holomorphic: measure the negative leakage
    gp_hat = loop_coeffs(gp_rot)
    leak = float(np.max(np.abs(gp_hat[exps < 0]), initial=0.0))
    if leak > gate:
        raise OutsideBigCell(f"positive factor leaks negative modes ({leak:.2e})")

    v = np.einsum("mij,mj->mi", gm_inv, trans)
    neg = _split_neg(v)
    t_plus = v - neg
    t_minus = np.einsum("mij,mj->mi", gm_rot, neg)
    g_minus = TwistedLoop.from_samples(gm_rot, t_minus)
    g_plus = TwistedLoop.from_samples(gp_rot, t_plus)
    return g_minus, g_plus


# --- lifts and the potential correspondence -------------------------------

class SpecLift:
    """Extended lift of a torus spec: the pure-phase rotation factor and the
    circle family of immersions, sampled on the loop parameter."""

    def __init__(self, spec: TorusSpec):
        self.spec = spec
        self.lattice = spec.lattice
        self.h_fn = holomorphic_angle(spec.beta0)
        self.dh = lambda z: np.full(np.shape(z), self.h_fn.derivative,
                                    dtype=complex)

    def samples(self, z, m: int):
        """(phi, X) on the m-th roots of unity; shapes (..., m)/(..., m, 4).

        The frame is F = exp(phi L_i).  Normalized as an extended lift: the
        value at the basepoint is the identity, so the family is shifted to
        vanish at z = 0.
        """
        z = np.asarray(z, dtype=complex)
        lams = unit_lambdas(m)
        x = family_samples(self.spec, z, lams, basepoint_zero=True)
        return _frame_phase(self.h_fn(z), lams), x


def _frame_phase(h, lams):
    """Real phase phi of the lift frame exp(phi L_i) = exp((lam^-2 h + lam^2
    conj(h)) L_i / 2) over the loop samples, shape (..., m): on |lam| = 1,
    phi = Re(h / lam^2)."""
    return (np.asarray(h, dtype=complex)[..., None] / lams ** 2).real


@dataclass
class HolomorphicPotentialData:
    """Weierstrass-type data: the holomorphic half-angle h (with dh = 2c)
    and the two holomorphic spinor components a, b."""

    h: Callable
    dh: Callable
    a: Callable
    b: Callable

    def c(self, z):
        return 0.5 * np.asarray(self.dh(z))

    @classmethod
    def constant(cls, c: complex, a: complex, b: complex) -> "HolomorphicPotentialData":
        c, a, b = complex(c), complex(a), complex(b)
        return cls(h=lambda z: 2.0 * c * np.asarray(z, dtype=complex),
                   dh=lambda z: np.full(np.shape(z), 2.0 * c, dtype=complex),
                   a=lambda z: np.full(np.shape(z), a, dtype=complex),
                   b=lambda z: np.full(np.shape(z), b, dtype=complex))


def _half_slots(m: int):
    """Slots of the half-angle phases e^{+-i h / (2 lam^2)} over m samples.

    They depend on lam only through +-lam^-2, which are the roots
    e^{-i pi s / m} at the slots s = 4j and 4j + m (mod 2m).  That slot set
    is closed under s -> s + m, which negates the root, so ``half`` holds
    0.5j e^{-i pi s / m} for its slots s < m only and `_slot_exps` fills the
    slots s + m by reciprocals.  ``pick[j]`` indexes that table at +lam_j^-2
    and -lam_j^-2.
    """
    j = np.arange(m)
    slots = np.stack([4 * j, 4 * j + m], axis=1) % (2 * m)
    low = np.unique(slots[slots < m])
    index = np.empty(2 * m, dtype=int)
    index[low] = np.arange(len(low))
    index[low + m] = len(low) + np.arange(len(low))
    return 0.5j * np.exp(-1j * np.pi * low / m), index[slots]


def _slot_exps(h, half):
    """exp(h half_s) for every slot s < m, then the reciprocals for the
    slots s + m: shape h.shape + (2 len(half),)."""
    q = len(half)
    out = np.empty(h.shape + (2 * q,), dtype=complex)
    np.exp(h[..., None] * half, out=out[..., :q])
    np.divide(1.0, out[..., :q], out=out[..., q:])
    return out


def _lift_w_minus1(lift, z, m: int):
    """Exponent -1 loop coefficient of W = e^{theta L_i} X_lam over z, with
    theta = -h / (2 lam^2): the lam^{+1} projection mean(lam W), taken
    through e^{theta L_i} = e^{i theta} P+ + e^{-i theta} P- so that the
    samples contract (both signs in one product per part of the complex
    weights) before they are rotated.  Shape (..., 4)."""
    z = np.asarray(z, dtype=complex)
    _, x = lift.samples(z, m)
    half, pick = _half_slots(m)
    # lam e^{-+i theta}, with e^{-+i theta} = exp(h half) at the slots of
    # +-lam^-2; the samples are real, so each part of the weights contracts
    # with them in place (a complex product would copy them to complex)
    weights = _slot_exps(lift.h_fn(z), half)[..., pick.T]    # (..., 2, m)
    weights *= unit_lambdas(m)
    minus, plus = np.moveaxis(weights.real @ x + 1j * (weights.imag @ x), -2, 0)
    return (plus @ PI_PLUS.T + minus @ PI_MINUS.T) / m


_RING_N = 256           # ring points behind the Taylor series of W_{-1}


def potential_extract(lift, nsamples: int = 64,
                      taylor_radius: float | None = None):
    """Potential data (h, dh, a, b) of an extended lift.

    a and b are twice the z-derivative of the exponent -1 loop coefficient
    W_{-1} of W = e^{-lam^-2 h L_i / 2} X, the translation half of the
    lift's negative Birkhoff factor.  W_{-1} is taken from ``nsamples`` loop
    samples on a 256-point ring of radius ``taylor_radius`` (by default
    1.35 max(1, |g1| + |g2|) of ``lift.lattice``); one FFT over the ring
    gives its Taylor series.  A pole inside the ring raises
    :class:`NotInBigCell`.
    """
    if not hasattr(lift, "h_fn"):
        raise TypeError("lift must expose the holomorphic half-angle h_fn")
    if taylor_radius is None:
        lat = lift.lattice
        taylor_radius = 1.35 * max(1.0, abs(lat.g1) + abs(lat.g2))
    ring = taylor_radius * unit_lambdas(_RING_N)
    w_m1 = _lift_w_minus1(lift, ring, nsamples)                 # (_RING_N, 4)
    a, b = (_taylor_interpolant(2.0 * w_m1[:, k], taylor_radius).deriv()
            for k in (0, 1))
    return HolomorphicPotentialData(h=lift.h_fn, dh=lift.dh, a=a, b=b)


def _taylor_interpolant(ring_values, radius):
    """Taylor series of a holomorphic function from samples on |z| = radius,
    as a ``numpy.polynomial.Polynomial`` in z (so ``.deriv()`` is d/dz).

    Raises :class:`NotInBigCell` when the coefficients fail to decay, which
    signals a pole inside the sampling circle.  The series is cut after its
    last coefficient above 1e-14 of the head: past it the coefficients are
    rounding noise (about 1e-16 of the head for lift data).
    """
    coeffs = np.fft.fft(ring_values) / len(ring_values)   # c_n * radius**n
    n = len(coeffs)
    head = np.max(np.abs(coeffs[:n // 8])) + 1e-300
    tail = np.max(np.abs(coeffs[-n // 8:]))
    if tail > 1e-6 * head:
        raise NotInBigCell("potential data is not analytic on the sampling "
                           f"disk (coefficient tail ratio {tail / head:.2e})")
    keep = np.nonzero(np.abs(coeffs) > 1e-14 * head)[0]
    coeffs = coeffs[:keep[-1] + 1] if len(keep) else coeffs[:1]
    return np.polynomial.Polynomial(coeffs, domain=[-radius, radius])


# --- reconstruction --------------------------------------------------------

# P+- eps and P+- L_i eps_bar, in the row order (+a, +b, -a, -b) of the sums
# that `ReconstructedLift._rule` contracts
_SPLIT_SPIN = np.stack([PI_PLUS @ EPS, PI_PLUS @ LI_EPS_BAR,
                        PI_MINUS @ EPS, PI_MINUS @ LI_EPS_BAR])
_CHUNK = 1 << 16        # elements of one (points, nodes, slots) block


class ReconstructedLift:
    """Lift rebuilt from potential data by integrating the holomorphic frame
    and projecting onto the real form.

    eta(z) integrates e^{theta L_i} lam^-1 (a eps + b L_i eps_bar), theta =
    h / (2 lam^2), along 0 -> z.  Each Gauss rule calls h, a and b once on
    all its nodes and uses the eigen-split e^{theta L_i} = e^{i theta} P+ +
    e^{-i theta} P-: per (point, lam) the nodes contract against
    w a e^{+-i theta} and w b e^{+-i theta}, and only the four sums expand
    to vectors.  ``samples`` raises :class:`LoopAliasing` when ``nsamples``
    is too small for the range of the angle.
    """

    def __init__(self, pot: HolomorphicPotentialData, nsamples: int = 64,
                 quad_n: int = 32, quad_tol: float = 1e-10,
                 max_depth: int = 10, lattice=None):
        self.pot = pot
        self.m = nsamples
        self.quad_n = quad_n
        self.quad_tol = quad_tol
        self.max_depth = max_depth
        self.lattice = lattice
        self.h_fn = pot.h
        self.dh = pot.dh

    def _rule(self, z_from, shift, n):
        """Order-n Gauss rule for eta over [z_from, z_from + shift]."""
        nodes, weights = gauss_legendre_01(n)
        z_from, shift = np.broadcast_arrays(np.asarray(z_from, dtype=complex),
                                            np.asarray(shift, dtype=complex))
        shape = z_from.shape
        v = z_from.ravel() + np.outer(nodes, shift.ravel())      # (n, points)
        # the pot attributes are read per call: tracing may wrap them
        h = np.asarray(self.pot.h(v), dtype=complex)
        wab = weights[:, None] * np.stack([
            np.broadcast_to(self.pot.a(v), v.shape),
            np.broadcast_to(self.pot.b(v), v.shape)])            # (2, n, points)
        # e^{+-i theta} per slot of +-lam^-2 (`_half_slots`); the node sum
        # is one (a|b, nodes) @ (nodes, slots) product per point
        m = self.m
        half, pick = _half_slots(m)
        wab = wab.transpose(2, 0, 1)                             # (points, 2, n)
        sums = np.empty((len(wab), 2, 2 * len(half)), dtype=complex)
        step = max(1, _CHUNK // (2 * len(half) * n))
        for lo in range(0, len(wab), step):
            cols = slice(lo, lo + step)
            np.matmul(wab[cols], _slot_exps(h[:, cols].T, half), out=sums[cols])
        # (point, lam, +-, a|b): the row order of _SPLIT_SPIN
        acc = (sums[..., pick].transpose(0, 2, 3, 1).reshape(-1, m, 4)
               @ _SPLIT_SPIN / unit_lambdas(m)[:, None])
        return (acc * shift.ravel()[:, None, None]).reshape(shape + (m, 4))

    def eta(self, z):
        """Path integral of the potential's translation part along the
        straight segment 0 -> z, with adaptive bisection."""
        z = np.asarray(z, dtype=complex)
        return self._piece(np.zeros_like(z), z, 0)

    def _piece(self, z_from, z_to, depth):
        shift = z_to - z_from
        fine = self._rule(z_from, shift, 2 * self.quad_n)
        coarse = self._rule(z_from, shift, self.quad_n)
        if float(np.max(np.abs(fine - coarse))) <= self.quad_tol:
            return fine
        if depth >= self.max_depth:
            raise PathIntegrationFailure("adaptive quadrature depth exhausted")
        mid = z_from + 0.5 * shift
        return (self._piece(z_from, mid, depth + 1)
                + self._piece(mid, z_to, depth + 1))

    def samples(self, z, m: int | None = None):
        """(phi, X) samples of the reconstructed lift at z, F = exp(phi L_i)."""
        if m is not None and m != self.m:
            raise ValueError("sample count fixed at construction")
        m = self.m
        z = np.asarray(z, dtype=complex)
        phi = _frame_phase(self.pot.h(z), unit_lambdas(m))
        w = _li_rotate(-phi, self.eta(z))
        # project onto the real translation form along the holomorphic half
        what = np.fft.fft(w, axis=-2) / m
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
        neg = np.fft.ifft(what, axis=-2) * m
        x = neg + np.conj(neg)
        if np.max(np.abs(x.imag)) > 1e-9 * max(1.0, np.max(np.abs(x.real))):
            raise ArithmeticError("projected immersion has imaginary residue")
        return phi, _li_rotate(phi, x.real).real

    def immersion(self, z):
        """The lam = 1 member of the reconstructed family."""
        _, x = self.samples(z)
        return x[..., 0, :]


def dpw_reconstruct(pot: HolomorphicPotentialData, z=None, nsamples: int = 64,
                    quad_n: int = 32, quad_tol: float = 1e-10, lattice=None):
    """Build the reconstructed lift; with ``z`` given returns (phi, X) samples."""
    lift = ReconstructedLift(pot, nsamples=nsamples, quad_n=quad_n,
                             quad_tol=quad_tol, lattice=lattice)
    if z is None:
        return lift
    return lift.samples(z)
