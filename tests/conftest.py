import numpy as np
import pytest

from hamstat.algebra import (EPS, EPS_BAR, L_I, LI_EPS, LI_EPS_BAR, R_I,
                             R_J, R_K, exp_rotation)
from hamstat.lattices import Lattice, enumerate_frequencies
from hamstat.loops import TwistedLoop
from hamstat.numerics import fd_x, fd_y, gauss_legendre_01, unit_lambdas
from hamstat.tori import castro_urbano, rhombic_torus, standard_torus
from hamstat.weierstrass import TorusSpec, spinor_u


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_twisted_algebra_coeffs(deg, rng, amp=0.2, sign=0, real=False):
    """Coefficients of a twisted algebra-valued loop; sign restricts to
    negative-only / nonnegative-only exponents."""
    if sign < 0:
        krange = range(-deg, 0)
    elif sign > 0:
        krange = range(0, deg + 1)
    else:
        krange = range(-deg, deg + 1)
    ks, rots, trans = [], [], []
    for k in krange:
        scale = amp / (1 + abs(k)) ** 1.5
        r = np.zeros((4, 4), dtype=complex)
        t = np.zeros(4, dtype=complex)
        km = k % 4
        if km == 0:
            b = scale * (rng.normal(size=3) + 1j * rng.normal(size=3))
            r = b[0] * R_I + b[1] * R_J + b[2] * R_K
        elif km == 2:
            r = scale * (rng.normal() + 1j * rng.normal()) * L_I
        elif km == 3:
            c = scale * (rng.normal(size=2) + 1j * rng.normal(size=2))
            t = c[0] * EPS + c[1] * LI_EPS_BAR
        else:
            c = scale * (rng.normal(size=2) + 1j * rng.normal(size=2))
            t = c[0] * EPS_BAR + c[1] * LI_EPS
        ks.append(k)
        rots.append(r)
        trans.append(t)
    ks = np.array(ks)
    rots = np.array(rots)
    trans = np.array(trans)
    if real:
        index = {int(k): j for j, k in enumerate(ks)}
        for j, k in enumerate(ks):
            if k > 0:
                rots[index[-int(k)]] = np.conj(rots[j])
                trans[index[-int(k)]] = np.conj(trans[j])
            elif k == 0:
                rots[j] = 0.5 * (rots[j] + np.conj(rots[j]))
                trans[j] = 0.5 * (trans[j] + np.conj(trans[j]))
    return ks, rots, trans


def exp_twisted_loop(ks, rots, trans, m):
    """Group-valued twisted loop from algebra coefficients, by pointwise
    exponential on m circle samples (vectorized over the samples)."""
    lams = unit_lambdas(m)
    powers = lams[:, None] ** np.asarray(ks, dtype=complex)[None, :]
    eta_rot = np.einsum("mk,kij->mij", powers, rots)
    eta_tr = np.einsum("mk,kj->mj", powers, trans)
    a = np.einsum("mij,ij->m", eta_rot, L_I) / 4.0
    b = np.stack([np.einsum("mij,ij->m", eta_rot, r) / 4.0
                  for r in (R_I, R_J, R_K)], axis=-1)
    rot = exp_rotation(a, b)
    nodes, weights = gauss_legendre_01(24)
    tr = np.zeros((m, 4), dtype=complex)
    for s, w in zip(nodes, weights):
        tr += w * np.einsum("mij,mj->mi", exp_rotation(s * a, s * b), eta_tr)
    return TwistedLoop.from_samples(rot, tr)


def random_twisted_group_loop(deg, rng, m=128, amp=0.2, sign=0, real=False):
    ks, rots, trans = random_twisted_algebra_coeffs(deg, rng, amp, sign, real)
    return exp_twisted_loop(ks, rots, trans, m)


def fd_z(f, z, h):
    return 0.5 * (fd_x(f, z, h) - 1j * fd_y(f, z, h))


def fd_zbar(f, z, h):
    return 0.5 * (fd_x(f, z, h) + 1j * fd_y(f, z, h))


def fd_laplacian4(f, z, h):
    """Fourth-order 9-point Laplacian."""
    def second(step):
        return (-(f(z + 2 * step) + f(z - 2 * step))
                + 16.0 * (f(z + step) + f(z - step)) - 30.0 * f(z)) / (12.0 * h * h)

    return second(h) + second(1j * h)


def golden_tori():
    """The standard, rhombic and Castro-Urbano (3,1,1,3) torus specs."""
    cu = castro_urbano(3, 1, 1, 3)
    gamma = np.exp(1j * cu.beta) / (2 * np.pi)
    cu_spec = cu.build_spec({gamma: 2.0 + 1.0j, np.conj(gamma): 1.5 - 0.5j})
    return [standard_torus(1.0, 1.0).spec, rhombic_torus().spec, cu_spec]


def spec_vanishing_at(z_star):
    """Square-lattice spec on three frequencies of slope 6 + 8i whose spinor
    u vanishes at z_star: the coefficients are a null vector of the
    real-linear map from coefficients to the (a, b) components of u(z_star)."""
    lat = Lattice.square()
    beta0 = 6 + 8j
    freq = list(enumerate_frequencies(lat, beta0))[:3]
    cols = []
    for j in range(3):
        for val in (1.0, 1j):
            c = [0.0] * 3
            c[j] = val
            u = spinor_u(TorusSpec.build(lat, beta0, dict(zip(freq, c))), z_star)
            cols.append([u[0].real, u[0].imag, u[1].real, u[1].imag])
    _, _, vt = np.linalg.svd(np.array(cols).T)
    null = vt[-2]
    coeffs = [complex(null[2 * j], null[2 * j + 1]) for j in range(3)]
    return TorusSpec.build(lat, beta0, dict(zip(freq, coeffs)))
