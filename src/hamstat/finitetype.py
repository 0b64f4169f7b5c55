"""Polynomial Killing fields and their commuting flows.

A Killing field of degree d (d = 2 mod 4) is a real twisted polynomial loop
of algebra values; its lowest coefficient is a constant phase generator and
the flow equation moves the remaining coefficients by bracketing against the
projected connection.  The module integrates the flow by Taylor steps whose
length the decay of their own coefficients sets, projects the connection,
builds the shipped seeds by running their spinor modes along the coefficient
chain, and builds the polynomial frequency condition that chain closes on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import G0_BASIS, L_I, ROTATION_BASIS, coords, from_coords
from .checks import curvature_fields, run_check
from .errors import ConvergenceFailure, SingularInput, StepSizeUnderflow
from .lattices import Lattice, parse_integer
from .loops import TwistedLoop, _parse_record
from .tori import rhombic_torus, standard_torus
from .weierstrass import TorusSpec, _u_modes

__all__ = [
    "KillingField", "r_op", "lax_project",
    "lax_integrate", "flow_field", "LaxFlowResult",
    "formal_killing", "polynomial_condition", "standard_torus_killing_seed",
    "rhombic_killing_seed", "KillingSeed", "validate_seed",
]


# --- ray-stabilizer splitting of the compact complexified algebra ---------
# zeta = b1 R_i + b2 R_j + b3 R_k sends eps to i b2 eps + (b1 - i b3) L_i
# eps_bar, so the ray stabilizer b0 = {zeta : zeta.eps in R.eps} is
# {b2 in iR, b1 = i b3}.  pi projects onto the real form along b0, with
# coordinates (Re b1 + Im b3, Re b2, Re b3 - Im b1), and r(zeta) = (pi(zeta)
# - i pi(i zeta)) / 2 is complex-linear: the matrix below on (b1, b2, b3).
_R_G0 = 0.5 * np.array([[1, 0, -1j], [0, 1, 0], [1j, 0, 1]])


def r_op(zeta) -> np.ndarray:
    """(pi(zeta) - i pi(i zeta)) / 2: the dz-component of the projected form."""
    return from_coords(coords(np.asarray(zeta, dtype=complex), G0_BASIS)
                       @ _R_G0.T, G0_BASIS)


# --- Killing fields ---------------------------------------------------------

# Largest degree a Killing field file may declare (the least is 1: the Lax
# block reads 3 of the 2d + 1 coefficients).  A flow's buffers in
# `_lax_taylor`, kept over its segments, hold 16 (2d + 5) 80 window floats,
# 7.6 MB in all at 256.
_MAX_DEGREE = 256


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
        d = parse_integer(data["degree"], "degree")
        if not 1 <= d <= _MAX_DEGREE:
            raise ValueError(f"degree {d} outside 1..{_MAX_DEGREE}")
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
# ROTATION_BASIS coordinates and its translation; a field is (2d+1, 8).  The
# 8 units (rotation, translation) of those coordinates:
_UNIT_ROT = np.concatenate([ROTATION_BASIS, np.zeros((4, 4, 4))])
_UNIT_TRANS = np.concatenate([np.zeros((4, 4)), np.eye(4)])
# structure constants of the bracket [(e, t), (f, t')] = (e f - f e,
# e t' - f t): entry [q, 8p + c] is coordinate c of [e_p, e_q], so the rows of
# m @ _BRACKET hold [e_p, m_j]; the brackets of the real basis are real
_BRACKET = np.array([
    np.r_[coords(e @ f - f @ e, ROTATION_BASIS), e @ t_q - f @ t_p]
    for f, t_q in zip(_UNIT_ROT, _UNIT_TRANS)
    for e, t_p in zip(_UNIT_ROT, _UNIT_TRANS)]).reshape(8, 64)
# the same on interleaved rows (q, re|im) and columns (p, re|im, c, re|im):
# w = re + i im times an entry b is the real block [[re, im], [-im, re]] b
_BRACKET_RE = np.einsum("qpc,ust->qupsct", _BRACKET.reshape(8, 8, 8),
                        [np.eye(2), [[0, 1], [-1, 0]]]).reshape(16, 256)
# Taylor order of a flow step (Jorba-Zou's rule gives about 17 for eps =
# 2^-52), and the share of the coefficients' radius of convergence it goes
_ORDER, _REACH = 16, 0.9 / np.e ** 2
_ROOTS = 1.0 / np.r_[_ORDER - 1, _ORDER]


def _field_coords(xi: KillingField) -> np.ndarray:
    """C-contiguous (2d+1, 8) coordinates of a field; SingularInput when a
    rotation coefficient leaves the span of ROTATION_BASIS."""
    rot = coords(xi.rot, ROTATION_BASIS)
    off = np.max(np.abs(xi.rot - from_coords(rot, ROTATION_BASIS)), axis=(1, 2))
    bad = np.flatnonzero(
        off > 1e-12 * np.maximum(1.0, np.max(np.abs(xi.rot), axis=(1, 2))))
    if bad.size:
        raise SingularInput(f"rotation coefficient at exponent {bad[0] - xi.d} "
                            f"is off the u(2) algebra by {off[bad[0]]:.3e}")
    return np.concatenate([rot, xi.trans], axis=1)


def _multiplier(zdot: complex):
    """Real matrix taking interleaved y[:3] to the multiplier zdot*M +
    conj(zdot)*Mbar at exponents -2..2 (r_op as the _R_G0 block on the R_a
    coordinates, which kills L_i), whose rows times _BRACKET_RE are the real
    blocks of [e_p, m_j]."""
    zbar, eye = np.conj(zdot), np.eye(8)
    mult = np.zeros((5, 8, 2, 3, 8), dtype=complex)   # [j, c, conj, i, c']
    mult[0, :, 0, 0] = mult[1, :, 0, 1] = zdot * eye
    mult[3, :, 1, 1] = mult[4, :, 1, 0] = zbar * eye
    mult[2, 1:4, 0, 2, 1:4] = zdot * _R_G0
    mult[2, 1:4, 1, 2, 1:4] = zbar * np.conj(_R_G0)
    # A v + B conj(v) = (A + B) Re v + i (A - B) Im v
    p, q = mult[:, :, 0] + mult[:, :, 1], 1j * (mult[:, :, 0] - mult[:, :, 1])
    return np.stack([np.stack([p.real, q.real], -1),
                     np.stack([p.imag, q.imag], -1)], 2).reshape(80, 48).T


_MULT_1, _MULT_I = _multiplier(1.0), _multiplier(1j)     # real-linear in zdot


def _lax_taylor(n: int):
    """Plan (orders, rmt, horner) of the Taylor orders of the Lax flow of
    (n, 8) field coordinates, in float64 products on interleaved (re, im)
    views.  A flow builds it once: a segment writes its direction's
    multiplier into ``rmt``, and ``horner`` lists the coefficients from the
    highest order down.  The derivative is the real-bilinear B(x, y) =
    shifted(pad) @ block(y), pad holding x's floats between four zero rows
    each side: block(y) brackets the multiplier of y's rows 0..2 into
    (80, 16), and shifted(pad) is the (n + 4, 80) window with x's row m - j
    in slot j of padded row m, field rows first.  ``orders(x)`` fills
    x_{k+1} = sum_j B(x_j, x_{k-j}) / (k + 1) to _ORDER from x_0 = x in a
    zero-padded (_ORDER + 1, n + 8, 16) store, and returns its coefficients
    and the (n + 4)-row products.  x_j's window sits at columns 80 j of one
    buffer and its block at rows 80 (_ORDER - 1 - j) of another, so order k
    is one product, summed over j inside BLAS: orders k >= 1 differ by
    rounding from k + 1 separate products.  The views of each order are
    built here, so it costs five numpy calls.  With ``still`` an x_1
    (padding included) within 64 eps of its rounding bound |window| @
    |block| entrywise is a field that does not move: its later orders are 0."""
    # rmt takes _MULT_1's transposed layout, which the bits of f @ rmt follow
    rmt, g = np.empty((80, 48)).T, np.empty(80)
    window = np.r_[2:n + 2, 0, 1, n + 2, n + 3][:, None] + 4 - np.arange(5)
    padded = np.zeros((_ORDER + 1, n + 8, 16))      # rows 4..n+3 hold x_k
    xs = padded[:, 4:n + 4].view(complex)
    prods = np.empty((_ORDER, n + 4, 8), dtype=complex)
    sx, blk = np.empty((n + 4, 80 * _ORDER)), np.empty((80 * _ORDER, 16))
    g5, views = g.reshape(5, 16), []
    for k in range(_ORDER):
        row = 80 * (_ORDER - 1 - k)
        views.append((padded[k, 4:7].reshape(48), blk[row:row + 80].reshape(5, 256),
                     padded[k].take, sx[:, 80 * k:80 * k + 80].reshape(n + 4, 5, 16),
                     sx[:, :80 * k + 80], blk[row:], prods[k].view(float),
                     prods[k, :n], k + 1, xs[k + 1]))

    def orders(x, still=False):
        xs[0] = x
        for f, blk_k, take, sx_k, sx_to_k, blk_from_k, prod, prod_n, k1, x_next in views:
            np.matmul(f, rmt, out=g)
            np.matmul(g5, _BRACKET_RE, out=blk_k)
            take(window, 0, sx_k)
            np.matmul(sx_to_k, blk_from_k, out=prod)
            np.divide(prod_n, k1, out=x_next)
        if still:                       # the bound is inf on overflow
            bound = 64 * np.finfo(float).eps * (np.abs(sx[:, :80]) @ np.abs(blk[-80:]))
            if np.all(np.abs(prods[0].view(float)) <= bound) and np.isfinite(bound).all():
                xs[1:], prods[:] = 0.0, 0.0
        return xs, prods
    return orders, rmt, list(xs[::-1])


def _flow_coords(plan, x, z_from: complex, z_to: complex, step: float):
    """Taylor flow of field coordinates along the straight segment with a
    `_lax_taylor` plan for their row count; returns them moved, the step
    count and the largest spill.  A step runs the plan's orders and goes
    _REACH rho, with rho = min (|x_0| / |x_j|)^(1/j) over the last two orders
    (Jorba-Zou), but not past the segment's end.  A shorter step than
    ``step`` raises ConvergenceFailure.  A step's spill, sum_k |pad_k| h^k
    over the padding rows of the products, bounds the derivative's padding
    over the step.  Both sums run np.polyval's Horner (0, times h, plus c) in
    place, bit for bit.  The first step asks the orders whether x is
    ``still`` (a moving field cannot stop later): then its orders are 0 and
    that one step ends the segment."""
    seg = complex(z_to) - complex(z_from)
    left = abs(seg)
    if left == 0:
        return x, 0, 0.0
    if step < 1e-14 * max(1.0, abs(z_to)):
        raise StepSizeUnderflow(f"step {step:.3e} below representable resolution")
    n = x.shape[0]
    orders, rmt, horner = plan
    zdot = seg / left
    np.add(zdot.real * _MULT_1, zdot.imag * _MULT_I, out=rmt)
    steps, spill = 0, 0.0
    # overflow leaves inf or NaN in the coefficients, which refuse the step
    with np.errstate(over="ignore", invalid="ignore"):
        while left > 0:
            xs, prods = orders(x, still=steps == 0)
            size = np.max(np.abs(xs[[0, -2, -1]]), axis=(1, 2))
            inv_rho = np.max((size[1:] / (size[0] or 1.0)) ** _ROOTS)
            h = left if inv_rho * left <= _REACH else _REACH / inv_rho
            x = np.zeros_like(x)
            for c in horner:            # np.polyval's Horner, in place
                x *= h
                x += c
            if not (h >= min(step, left) and np.isfinite(x).all()):
                raise ConvergenceFailure(
                    f"Lax flow needs steps below {step:.3e} on the segment "
                    f"to {complex(z_to):.6g}")
            pad = 0.0
            for c in np.max(np.abs(prods[::-1, n:]), axis=(1, 2)).tolist():
                pad = pad * h + c
            spill = max(spill, pad)
            left -= h
            steps += 1
    return x, steps, spill


def flow_field(xi0: KillingField, z_from: complex, z_to: complex,
               step: float) -> KillingField:
    """Lax flow along the straight segment, with steps of at least ``step``."""
    x = _field_coords(xi0)
    x, _, _ = _flow_coords(_lax_taylor(len(x)), x, z_from, z_to, step)
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


def lax_flatness_residual(xi_at_z: KillingField, lam: complex) -> float:
    """Flatness residual of the projected connection at one point, with the
    stencil fields (step 1e-4) produced by short flows (step 1e-5) from the
    given one, and the translation part taken as it is."""
    return run_check("flatness", 1, np.inf, 1e-4, lambda h: (curvature_fields(
        lambda dz: _alpha_xy(flow_field(xi_at_z, 0.0, dz, 1e-5), lam), h),
        1.0)).residual


@dataclass
class LaxFlowResult:
    points: list
    fields: list
    max_spill: float           # largest spill of any flow step
    steps: int                 # Taylor steps over all segments

    def _drift(self, rows) -> float:
        return float(max(np.max(np.abs(c - c[0])) for c in (
            np.stack([f.rot[rows] for f in self.fields]),
            np.stack([f.trans[rows] for f in self.fields]))))

    def coefficient_drift(self, k: int) -> float:
        return self._drift(k + self.fields[0].d)

    def even_coefficient_drift(self) -> float:
        return self._drift(slice(self.fields[0].d % 2, None, 2))

    def isospectral_drift(self) -> float:
        """Largest spectrum change of the rotation values R(lam) at 8 points:
        the affine [[R, t], [0, 0]] has spec(R) and 0, whatever t is."""
        lams = np.exp(2j * np.pi * (np.arange(8) + 0.31) / 8)
        spectra = np.sort_complex(np.linalg.eigvals(
            np.stack([f.value_at(lams)[0] for f in self.fields])))
        return float(np.max(np.abs(spectra - spectra[0])))


def lax_integrate(seed: KillingField, waypoints, step: float | None = None,
                  lattice=None) -> LaxFlowResult:
    """Flow the seed through a polyline of waypoints (starting at 0), with
    steps of at least ``step``: diameter / 2048 of the lattice by default."""
    if step is None:
        scale = lattice.diameter() if lattice is not None else 1.0
        step = scale / 2048.0
    points = [0.0 + 0.0j] + [complex(z) for z in waypoints]
    fields = [seed.copy()]
    x = _field_coords(seed)
    plan, steps, spill = _lax_taylor(len(x)), 0, 0.0
    for z_prev, z in zip(points, points[1:]):
        x, n, s = _flow_coords(plan, x, z_prev, z, step)
        steps, spill = steps + n, max(spill, s)
        fields.append(KillingField(
            seed.d, from_coords(x[:, :4], ROTATION_BASIS), x[:, 4:]))
    return LaxFlowResult(points, fields, spill, steps)


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


# --- the frequency polynomial ----------------------------------------------

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
    validate_seed(field)
    return KillingSeed(field, spec, mu, {}, 0)


def rhombic_killing_seed() -> KillingSeed:
    """Degree-6 seed for the hexagonal-dual example; the chain constants make
    the four active frequencies roots of the degree-6 polynomial."""
    spec = rhombic_torus().spec
    cs = {-1: 2.0 + 0j, 0: 2.0 + 0j}
    field = _seed_from_spec(spec, cs, 1)
    validate_seed(field)
    return KillingSeed(field, spec, 1.0 + 0j, cs, 1)


def validate_seed(field: KillingField):
    """SingularInput unless the field is a twisted, real loop: its twist and
    reality residuals within 1e-10 of max(1, its norm)."""
    with np.errstate(over="ignore", invalid="ignore"):   # huge finite entries
        twist, real = field.twist_residual(), field.reality_residual()
        bound = 1e-10 * max(1.0, field.norm())
    if twist > bound or real > bound:
        raise SingularInput(f"seed is not a twisted, real loop: twist residual "
                            f"{twist:.2e}, reality residual {real:.2e}")
