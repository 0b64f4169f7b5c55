"""Polynomial Killing fields and their commuting flows.

A Killing field of degree d (d = 2 mod 4) is a real twisted polynomial loop
of algebra values; its lowest coefficient is a constant phase generator and
the flow equation moves the remaining coefficients by bracketing against the
projected connection.  The module integrates the flow, projects the
connection, runs the scalar Fourier recurrences along the coefficient chain,
and builds the polynomial frequency condition those recurrences close on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (EPS, G0_BASIS, L_I, ROTATION_BASIS, AlgebraElement,
                      coords, from_coords)
from .checks import _curvature_residual
from .errors import SingularInput, StepSizeUnderflow
from .loops import TwistedLoop, _parse_record
from .tori import rhombic_torus, standard_torus
from .weierstrass import TorusSpec, _u_modes

__all__ = [
    "KillingField", "r_op", "pi_g0", "b0_basis", "lax_project",
    "lax_integrate", "flow_field", "LaxFlowResult",
    "formal_killing", "zeta_coefficients", "fourier_recurrence",
    "polynomial_condition", "standard_torus_killing_seed",
    "rhombic_killing_seed", "KillingSeed",
]


# --- ray-stabilizer splitting of the compact complexified algebra ---------

def _g0c_coords(zeta) -> np.ndarray:
    """Real 6-vectors (Re b1, Im b1, ...) of zeta = sum b_a R_a, batched."""
    b = coords(np.asarray(zeta, dtype=complex), G0_BASIS)
    return np.stack([b.real, b.imag], axis=-1).reshape(b.shape[:-1] + (6,))


def _g0c_from_coords(c) -> np.ndarray:
    c = np.asarray(c)
    return from_coords(c[..., 0::2] + 1j * c[..., 1::2], G0_BASIS)


_B0_CACHE: dict = {}


def b0_basis() -> np.ndarray:
    """Real basis (3 x 4 x 4 complex) of the ray-stabilizer subalgebra,
    computed as the nullspace of the linear condition zeta.eps in R.eps."""
    if "basis" not in _B0_CACHE:
        # real-linear map R^6 -> C^4 ~ R^8, then strike the R*eps direction
        v = _g0c_from_coords(np.eye(6)) @ EPS
        a_mat = np.concatenate([v.real, v.imag], axis=1).T      # 8 x 6
        ray = np.concatenate([EPS.real, EPS.imag])
        ray = ray / np.linalg.norm(ray)
        proj = np.eye(8) - np.outer(ray, ray)
        system = proj @ a_mat
        _, s, vt = np.linalg.svd(system)
        null = vt[np.sum(s > 1e-10):]
        if null.shape[0] != 3:
            raise RuntimeError("ray-stabilizer subalgebra has unexpected rank")
        basis = _g0c_from_coords(null)
        _B0_CACHE["basis"] = basis
        _B0_CACHE["solve"] = np.linalg.inv(
            _g0c_coords(np.concatenate([G0_BASIS, basis])).T)
        # r is complex-linear, so it is one matrix on the flattened 4 x 4
        units = np.eye(16).reshape(16, 4, 4)
        _B0_CACHE["r"] = np.stack(
            [0.5 * (pi_g0(e) - 1j * pi_g0(1j * e)) for e in units],
            axis=-1).reshape(16, 16)
    return _B0_CACHE["basis"]


def pi_g0(zeta) -> np.ndarray:
    """Projection of a complexified compact-type element onto the real part
    along the ray-stabilizer subalgebra."""
    b0_basis()
    c = _B0_CACHE["solve"] @ _g0c_coords(zeta)
    return from_coords(c[:3] + 0j, G0_BASIS)


def r_op(zeta) -> np.ndarray:
    """(pi(zeta) - i pi(i zeta)) / 2: the dz-component of the projected form,
    applied as the cached 16 x 16 matrix on the row-major flattened zeta."""
    b0_basis()
    zeta = np.asarray(zeta, dtype=complex)
    return (_B0_CACHE["r"] @ zeta.reshape(16)).reshape(4, 4)


# --- Killing fields ---------------------------------------------------------

class KillingField(TwistedLoop):
    """Real twisted polynomial loop of algebra values, exponents -d..d,
    stored densely: ``rot[k + d]`` and ``trans[k + d]`` multiply lam**k."""

    def __init__(self, d: int, rot, trans):
        if len(rot) != 2 * d + 1 or len(trans) != 2 * d + 1:
            raise ValueError("coefficient count must be 2d + 1")
        self.d = d
        super().__init__(np.arange(-d, d + 1), rot, trans)

    def copy(self) -> "KillingField":
        return KillingField(self.d, self.rot.copy(), self.trans.copy())

    def coeff(self, k: int):
        return self.rot[k + self.d], self.trans[k + self.d]

    def set_coeff(self, k: int, rot, trans):
        self.rot[k + self.d] = rot
        self.trans[k + self.d] = trans

    def to_dict(self) -> dict:
        return {"degree": self.d, **super().to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "KillingField":
        """Zero-filled dense field from sparse, unordered records."""
        d = int(data["degree"])
        field = cls(d, np.zeros((2 * d + 1, 4, 4)), np.zeros((2 * d + 1, 4)))
        for k, rot, trans in map(_parse_record, data["coefficients"]):
            if abs(k) > d:
                raise ValueError(f"exponent {k} outside -{d}..{d}")
            field.set_coeff(k, rot, trans)
        if not (np.isfinite(field.rot).all() and np.isfinite(field.trans).all()):
            raise ValueError("coefficients must be finite")
        return field


def lax_project(xi: KillingField):
    """Coefficients of the projected connection: the dz side is
    lam^-2 xi_{-d} + lam^-1 xi_{-d+1} + r(xi_{-d+2}); the dzbar side is the
    conjugate string at lam^0..lam^2."""
    return {-2: xi.coeff(-xi.d), -1: xi.coeff(-xi.d + 1),
            0: (r_op(xi.coeff(-xi.d + 2)[0]), np.zeros(4, dtype=complex))}


# --- the flow in algebra coordinates ------------------------------------------
# A coefficient of u(2) (x) C |x C^4 is the 8-vector of its rotation's
# ROTATION_BASIS coordinates and its translation; a field is (2d+1, 8).
_UNITS = ([AlgebraElement(b, np.zeros(4)) for b in ROTATION_BASIS]
          + [AlgebraElement(np.zeros((4, 4)), t) for t in np.eye(4)])
# structure constants: entry [q, 8p + c] is coordinate c of [e_p, e_q], so
# the rows of m @ _BRACKET hold [e_p, m_j]
_BRACKET = np.array([
    np.r_[coords(ab.rotation, ROTATION_BASIS), ab.translation]
    for ab in (a.bracket(b) for b in _UNITS for a in _UNITS)]).reshape(8, 64)
_SPILL_CHUNK = 256      # RK stages held by a spill log between reductions


def _field_coords(xi: KillingField) -> np.ndarray:
    """(2d+1, 8) coordinates of a field; SingularInput when a rotation
    coefficient leaves the span of ROTATION_BASIS."""
    rot = coords(xi.rot, ROTATION_BASIS)
    off = np.max(np.abs(xi.rot - from_coords(rot, ROTATION_BASIS)), axis=(1, 2))
    bad = np.flatnonzero(
        off > 1e-12 * np.maximum(1.0, np.max(np.abs(xi.rot), axis=(1, 2))))
    if bad.size:
        raise SingularInput(f"rotation coefficient at exponent {bad[0] - xi.d} "
                            f"is off the u(2) algebra by {off[bad[0]]:.3e}")
    return np.concatenate([rot, xi.trans], axis=1)


class _SpillLog:
    """Truncation spill of the RK stages: padding rows held for up to
    _SPILL_CHUNK stages, then reduced to each stage's largest |entry| as 4 x 4
    rotations and 4-vectors (into ``diagnostics``) and their maximum ``worst``."""

    def __init__(self, diagnostics: list | None = None):
        self.rows = np.empty((_SPILL_CHUNK, 4, 8), dtype=complex)
        self.fill, self.worst, self.diagnostics = 0, 0.0, diagnostics

    def push(self, pad):
        self.rows[self.fill] = pad
        self.fill += 1
        if self.fill == _SPILL_CHUNK:
            self.flush()

    def flush(self) -> float:
        held = self.rows[:self.fill]
        per_stage = np.maximum(
            np.abs(from_coords(held[..., :4], ROTATION_BASIS)).max(axis=(1, 2, 3)),
            np.abs(held[..., 4:]).max(axis=(1, 2)))
        self.worst = float(np.max(per_stage, initial=self.worst))
        if self.diagnostics is not None:
            self.diagnostics.extend(per_stage.tolist())
        self.fill = 0
        return self.worst


def _lax_stage(n: int, zdot: complex, spill: _SpillLog):
    """Lax derivative of (n, 8) field coordinates along direction zdot.
    ``mult`` takes (x[:3], conj x[:3]) to the multiplier zdot*M + conj(zdot)*Mbar
    at exponents -2..2, with r_op as a 4 x 4 coordinate block; ``shift`` puts
    coefficient k in row (k + j, j): field exponents first, padding last."""
    zbar, eye = np.conj(zdot), np.eye(8)
    r = np.stack([coords(r_op(b), ROTATION_BASIS) for b in ROTATION_BASIS], 1)
    mult = np.zeros((5, 8, 2, 3, 8), dtype=complex)   # [j, c, conj, i, c']
    mult[0, :, 0, 0] = mult[1, :, 0, 1] = zdot * eye
    mult[3, :, 1, 1] = mult[4, :, 1, 0] = zbar * eye
    mult[2, :4, 0, 2, :4] = zdot * r
    mult[2, :4, 1, 2, :4] = zbar * np.conj(r)
    mult = mult.reshape(40, 48)
    order = np.r_[2:n + 2, 0, 1, n + 2, n + 3]
    shift = np.stack([np.eye(n + 4, n, -j, dtype=complex)[order]
                      for j in range(5)], axis=1).reshape(5 * (n + 4), n)

    def rhs(x):
        v = x[:3].ravel()
        m = (mult @ np.concatenate((v, v.conj()))).reshape(5, 8)
        out = (shift @ x).reshape(n + 4, 40) @ (m @ _BRACKET).reshape(40, 8)
        spill.push(out[n:])
        return out[:n]
    return rhs


def _flow_coords(x, z_from: complex, z_to: complex, step: float,
                 spill: _SpillLog):
    """RK4 Lax flow of field coordinates along the straight segment; returns
    the moved coordinates and the number of RK steps taken."""
    seg = complex(z_to) - complex(z_from)
    length = abs(seg)
    if length == 0:
        return x, 0
    nsteps = max(1, int(np.ceil(length / step)))
    h = length / nsteps
    if h < 1e-14 * max(1.0, abs(z_to)):
        raise StepSizeUnderflow(f"step {h:.3e} below representable resolution")
    rhs = _lax_stage(x.shape[0], seg / length, spill)
    for _ in range(nsteps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x, nsteps


def flow_field(xi0: KillingField, z_from: complex, z_to: complex,
               step: float, diagnostics: list | None = None) -> KillingField:
    """RK4 Lax flow along the straight segment; per-stage spill to diagnostics."""
    spill = _SpillLog(diagnostics)
    x, _ = _flow_coords(_field_coords(xi0), z_from, z_to, step, spill)
    spill.flush()
    return KillingField(xi0.d, from_coords(x[:, :4], ROTATION_BASIS), x[:, 4:])


def _alpha_xy(xi: KillingField, lam: complex):
    """Connection values A(d/dx), A(d/dy) of the projected form at one point:
    the dz side is A_z = sum_k lam^k xi_k and the dzbar side its conjugate, so
    A_x = A_z + conj(A_z) and A_y = i (A_z - conj(A_z))."""
    proj = lax_project(xi)
    rot_z = sum(lam ** k * proj[k][0] for k in (-2, -1, 0))
    tr_z = sum(lam ** k * proj[k][1] for k in (-2, -1, 0))
    return ((rot_z + np.conj(rot_z), tr_z + np.conj(tr_z)),
            (1j * (rot_z - np.conj(rot_z)), 1j * (tr_z - np.conj(tr_z))))


def lax_flatness_residual(xi_at_z: KillingField, lam: complex,
                          fd_step: float = 1e-4,
                          flow_step: float = 1e-5) -> float:
    """Curvature residual of the projected connection at one point, with the
    stencil fields produced by short flows from the given one."""
    return _curvature_residual(
        lambda dz: _alpha_xy(flow_field(xi_at_z, 0.0, dz, flow_step), lam),
        fd_step)


@dataclass
class LaxFlowResult:
    points: list
    fields: list
    max_spill: float
    steps: int                 # RK steps over all segments

    def coefficient_drift(self, k: int) -> float:
        base_r, base_t = self.fields[0].coeff(k)
        worst = 0.0
        for f in self.fields:
            r, t = f.coeff(k)
            worst = max(worst, float(np.max(np.abs(r - base_r))),
                        float(np.max(np.abs(t - base_t))))
        return worst

    def even_coefficient_drift(self) -> float:
        d = self.fields[0].d
        return max(self.coefficient_drift(k)
                   for k in range(-d, d + 1) if k % 2 == 0)

    def isospectral_drift(self, n_lams: int = 8) -> float:
        lams = np.exp(2j * np.pi * (np.arange(n_lams) + 0.31) / n_lams)
        spectra = [np.sort_complex(np.linalg.eigvals(f.matrix5_at(lams)))
                   for f in self.fields]
        return max(float(np.max(np.abs(e - spectra[0]))) for e in spectra)


def lax_integrate(seed: KillingField, waypoints, step: float | None = None,
                  lattice=None) -> LaxFlowResult:
    """Flow the seed through a polyline of waypoints (starting at 0)."""
    if step is None:
        scale = lattice.diameter() if lattice is not None else 1.0
        step = scale / 2048.0
    spill = _SpillLog()
    points = [0.0 + 0.0j] + [complex(z) for z in waypoints]
    fields = [seed.copy()]
    x = _field_coords(seed)
    steps = 0
    for z_prev, z in zip(points, points[1:]):
        x, n = _flow_coords(x, z_prev, z, step, spill)
        steps += n
        fields.append(KillingField(
            seed.d, from_coords(x[:, :4], ROTATION_BASIS), x[:, 4:]))
    return LaxFlowResult(points, fields, spill.flush(), steps)


# --- formal Killing series --------------------------------------------------

def formal_killing(u_modes, a: complex, n_coeffs: int = 24) -> list:
    """First coefficients of the adapted formal Killing series.

    ``u_modes`` is the mode table (freqs, vecs) of u, and each coefficient
    is a table on the same frequencies, where d/dz scales row j by
    i pi conj(freqs[j]).  The recurrence is w0 = a^-1 L_i u, w1 = -w0,
    w2 = a^-1 L_i dz w0 + a^-2 dz u (vanishing identically), then
    w_n = a^-1 L_i dz w_{n-2}.
    """
    if a == 0:
        raise ValueError("top coefficient must be nonzero")
    freqs, u = u_modes
    inv = 1.0 / complex(a)
    step = (inv * L_I).T
    dz = 1j * np.pi * np.conj(freqs)[:, None]
    w0 = u @ step
    # a^-1 L_i dz(w0) + a^-2 dz(u) = a^-2 dz(L_i L_i u + u): grouped so the
    # exact cancellation L_i^2 = -Id survives floating point bitwise
    du = dz * u
    out = [w0, -w0, inv * inv * (du @ (L_I @ L_I).T + du)]
    while len(out) < n_coeffs:
        out.append((dz * out[-2]) @ step)
    return [(freqs, w) for w in out[:n_coeffs]]


def zeta_coefficients(w_list: list, u_modes, a: complex) -> list:
    """Translation parts of the adapted series, as mode tables: order 0 is
    u + a L_i w0 (identically zero), order n >= 1 is a L_i w_n."""
    freqs, u = u_modes
    step = (complex(a) * L_I).T
    out = [(freqs, u + w_list[0][1] @ step)]
    out += [(freqs, w @ step) for _, w in w_list[1:]]
    return out


# --- scalar recurrences and the frequency polynomial ------------------------

def fourier_recurrence(beta0: complex, cs: dict, seeds: dict, p: int,
                       tol: float = 1e-9) -> dict:
    """Run the coefficient chain per frequency and evaluate the closure.

    ``cs`` maps q in -p..p-1 to the constant c_q; ``seeds`` maps each
    frequency gamma (with |gamma| = |beta0|/2) to the bottom coefficient.
    Returns {gamma: {"chain": [...], "closure": residual, "ok": bool}}.
    """
    beta0 = complex(beta0)
    report = {}
    for gamma, bottom in seeds.items():
        gamma = complex(gamma)
        if abs(abs(gamma) - abs(beta0) / 2) > tol * max(1.0, abs(beta0)):
            raise ValueError(f"frequency {gamma} is off the circle")
        ratio = (2.0 * np.conj(gamma) / np.conj(beta0)) ** 2
        chain = [complex(bottom)]
        for q in range(-p, p):
            chain.append(cs[q] * chain[0] + ratio * chain[-1])
        closure = abs(gamma * chain[0] + np.conj(gamma) * chain[-1])
        report[gamma] = {"chain": chain, "closure": closure,
                         "ok": closure <= tol * max(1.0, abs(chain[0]))}
    return report


def polynomial_condition(beta0: complex, cs: dict, p: int):
    """Monic degree-(4p+2) polynomial whose roots carry the admissible
    frequencies, plus its numerically computed roots.

    Convention: the chain constant at index -p-1 equals 1.
    """
    beta0 = complex(beta0)
    deg = 4 * p + 2
    coeffs = np.zeros(deg + 1, dtype=complex)    # ascending powers
    coeffs[deg] = 1.0
    for q in range(0, 2 * p + 1):
        c_q = 1.0 if q == 0 else cs[q - p - 1]
        coeffs[2 * q] = (c_q * (np.conj(beta0) / 2.0)
                         * (beta0 / 2.0) ** (4 * p + 1 - 2 * q))
    roots = np.roots(coeffs[::-1])
    return coeffs, roots


# --- shipped seeds -----------------------------------------------------------

@dataclass
class KillingSeed:
    field: KillingField
    spec: TorusSpec
    rotation: complex          # coordinate change z = rotation * w
    cs: dict
    p: int


def _spec_rotate(spec: TorusSpec, mu: complex) -> TorusSpec:
    """Spec of the same surface in the rotated coordinate z = mu w.

    Frequencies and slope pick up conj(mu); the coefficients pick up mu
    (the spinor transforms as u~(w) = mu u(mu w)).
    """
    mubar = np.conj(mu)
    lat = spec.lattice
    from .lattices import Lattice
    new_lat = Lattice(mubar * lat.g1, mubar * lat.g2)
    pairs = {g * mubar: mu * a for g, a in spec.items()}
    return TorusSpec.build(new_lat, spec.beta0 * mubar, pairs)


def _seed_from_spec(spec: TorusSpec, cs: dict, p: int) -> KillingField:
    """Assemble the degree-(4p+2) field at the basepoint from the spec's
    spinor modes and the chain constants."""
    d = 4 * p + 2
    beta0 = spec.beta0
    a_top = np.pi * np.conj(beta0) / 2.0
    freqs, vecs = _u_modes(spec)
    ratio = (2.0 * np.conj(freqs) / np.conj(beta0)) ** 2
    li_vecs = (2j * np.conj(freqs) / np.conj(beta0))[:, None] * (vecs @ L_I.T)
    field = KillingField(d, np.zeros((2 * d + 1, 4, 4), dtype=complex),
                         np.zeros((2 * d + 1, 4), dtype=complex))
    # even rotation string: top, the c_q line, and the conjugates by reality
    field.set_coeff(-d, a_top * L_I, np.zeros(4))
    field.set_coeff(d, np.conj(a_top) * L_I, np.zeros(4))
    # per q: the rotation c_q line at 4q+2 and the translation strings u_q at
    # 4q-1 and v_q at 4q+1, evaluated at z = 0; mult holds each mode's
    # bottom-to-q chain multiplier
    mult = np.ones(len(freqs), dtype=complex)
    for q in range(-p, p + 1):
        c_q = cs[q] if q < p else beta0 / np.conj(beta0)   # forced by reality
        field.set_coeff(4 * q + 2, (np.pi * np.conj(beta0) * c_q / 2.0) * L_I,
                        np.zeros(4))
        field.set_coeff(4 * q - 1, np.zeros((4, 4)), mult @ vecs)
        field.set_coeff(4 * q + 1, np.zeros((4, 4)), mult @ li_vecs)
        mult = c_q + ratio * mult
    return field


def standard_torus_killing_seed(w1: float = 1.0, w2: float = 1.0) -> KillingSeed:
    """Genus-zero (degree-2) seed for the rectangular torus, built in the
    rotated coordinate where the two active frequencies are purely imaginary."""
    base = standard_torus(w1, w2).spec
    beta0 = base.beta0
    mu = -1j * abs(beta0) / beta0
    spec = _spec_rotate(base, mu)
    field = _seed_from_spec(spec, {}, 0)
    _validate_seed(field)
    return KillingSeed(field, spec, mu, {}, 0)


def rhombic_killing_seed() -> KillingSeed:
    """Degree-6 seed for the hexagonal-dual example; the chain constants make
    the four active frequencies roots of the degree-6 polynomial."""
    spec = rhombic_torus().spec
    cs = {-1: 2.0 + 0j, 0: 2.0 + 0j}
    field = _seed_from_spec(spec, cs, 1)
    _validate_seed(field)
    return KillingSeed(field, spec, 1.0 + 0j, cs, 1)


def _validate_seed(field: KillingField, tol: float = 1e-10):
    if field.twist_residual() > tol or field.reality_residual() > tol:
        raise AssertionError(
            f"seed violates twist/reality: {field.twist_residual():.2e}, "
            f"{field.reality_residual():.2e}")
