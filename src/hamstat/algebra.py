"""Quaternionic 4x4 matrix constants, the twisting automorphism of the
symmetry algebra of R^4 ~ C^2, and the Lagrangian angle map.

The ambient space carries the metric, the symplectic form
``omega(u, v) = <L_i u, v>`` and the complex structure ``J = L_i``.  The
symmetry group is the semidirect product of ``{G in SO(4): [G, L_i] = 0}``
(isomorphic to U(2)) with translations.  An order-4 automorphism ``tau``
(conjugation by ``(-L_j, 0)``) grades the complexified Lie algebra into four
eigenspaces; that grading drives everything downstream.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ID4", "L_I", "L_J", "R_I", "R_J", "R_K",
    "EPS", "EPS_BAR", "LI_EPS", "LI_EPS_BAR",
    "G0_BASIS", "ROTATION_BASIS",
    "coords", "from_coords", "omega",
    "wedge_value", "lagrangian_angle_raw",
    "exp_g2", "exp_g0", "exp_rotation",
]

ID4 = np.eye(4)

L_I = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
L_J = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
R_I = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
R_J = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
R_K = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)

# Basis stacks (b, 4, 4) for `coords`/`from_coords`.  The 16 products
# L_a R_b are orthonormal for the pairing trace(B^T m) / 4, so every stack of
# such products (up to sign) is inverted by `from_coords` on its span.
G0_BASIS = np.stack([R_I, R_J, R_K])                # compact-type algebra
ROTATION_BASIS = np.stack([L_I, R_I, R_J, R_K])     # a L_i + b.R

# Distinguished isotropic vectors spanning the odd tau-eigenspaces.
EPS = 0.5 * np.array([1, 0, -1j, 0])
EPS_BAR = 0.5 * np.array([1, 0, 1j, 0])
LI_EPS = 0.5 * np.array([0, 1, 0, -1j])
LI_EPS_BAR = 0.5 * np.array([0, 1, 0, 1j])

# Projections onto the +-i eigenspaces of L_i (used for phase splitting).
PI_PLUS = 0.5 * (ID4 - 1j * L_I)
PI_MINUS = 0.5 * (ID4 + 1j * L_I)


def coords(m, basis):
    """Coordinates trace(B_b^T m) / 4 of matrices (..., 4, 4) against a basis
    stack (b, 4, 4), as a (..., b) array."""
    m = np.asarray(m)
    return m.reshape(m.shape[:-2] + (16,)) @ (basis.reshape(-1, 16).T / 4.0)


def from_coords(c, basis):
    """sum_b c_b B_b for coordinates (..., b): the inverse of `coords` on the
    span of an orthonormal basis stack."""
    c = np.asarray(c)
    return (c @ basis.reshape(-1, 16)).reshape(c.shape[:-1] + (4, 4))


def omega(u, v):
    """Symplectic form dx1^dx2 + dx3^dx4 evaluated on a pair of 4-vectors."""
    u = np.asarray(u)
    v = np.asarray(v)
    return (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
            + u[..., 2] * v[..., 3] - u[..., 3] * v[..., 2])


def wedge_value(e1, e3):
    """(dx1 + i dx2) ^ (dx3 + i dx4) on the ordered pair (e1, e3)."""
    a = e1[..., 0] + 1j * e1[..., 1]
    b = e1[..., 2] + 1j * e1[..., 3]
    c = e3[..., 0] + 1j * e3[..., 1]
    d = e3[..., 2] + 1j * e3[..., 3]
    return a * d - c * b


def lagrangian_angle_raw(e1, e3):
    """Angle Theta in (-pi, pi] with e^{i Theta} the wedge value of the frame
    (e1, e3), vectorized; the frame is not checked to be Lagrangian."""
    return np.angle(wedge_value(np.asarray(e1), np.asarray(e3)))


def exp_g2(a):
    """exp(a L_i) = cos(a) Id + sin(a) L_i, complex angle allowed."""
    a = np.asarray(a)
    return (np.cos(a)[..., None, None] * ID4
            + np.sin(a)[..., None, None] * L_I)


def exp_g0(b):
    """exp(b1 R_i + b2 R_j + b3 R_k) via the quaternion closed form."""
    b = np.asarray(b, dtype=complex)
    s = np.sqrt(b[..., 0] ** 2 + b[..., 1] ** 2 + b[..., 2] ** 2 + 0j)
    sinc = np.where(np.abs(s) < 1e-30, 1.0, np.sin(s) / np.where(s == 0, 1, s))
    gen = (b[..., 0, None, None] * R_I + b[..., 1, None, None] * R_J
           + b[..., 2, None, None] * R_K)
    return np.cos(s)[..., None, None] * ID4 + sinc[..., None, None] * gen


def exp_rotation(a, b):
    """exp(a L_i + b.R); the two factors commute so the product is exact."""
    return exp_g2(np.asarray(a)) @ exp_g0(b)
