"""Quaternionic 4x4 matrix constants, the symmetry group of R^4 ~ C^2, and
the Lagrangian angle map.

The ambient space carries the metric, the symplectic form
``omega(u, v) = <L_i u, v>`` and the complex structure ``J = L_i``.  The
symmetry group is the semidirect product of ``{G in SO(4): [G, L_i] = 0}``
(isomorphic to U(2)) with translations.  An order-4 automorphism ``tau``
(conjugation by ``(-L_j, 0)``) grades the complexified Lie algebra into four
eigenspaces; that grading drives everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameNotLagrangian

__all__ = [
    "ID4", "L_I", "L_J", "L_K", "R_I", "R_J", "R_K",
    "EPS", "EPS_BAR", "LI_EPS", "LI_EPS_BAR",
    "PHASE_BASIS", "G0_BASIS", "ROTATION_BASIS", "QUAT_BASIS",
    "coords", "from_coords",
    "GroupElement", "AlgebraElement",
    "omega", "tau", "tau_rotation", "tau_vector",
    "eigen_project", "lagrangian_angle",
    "exp_g2", "exp_g0", "exp_rotation",
]

ID4 = np.eye(4)

L_I = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
L_J = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
L_K = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
R_I = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
R_J = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
R_K = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)

# Basis stacks (b, 4, 4) for `coords`/`from_coords`.  The 16 products
# L_a R_b are orthonormal for the pairing trace(B^T m) / 4, so every stack of
# such products (up to sign) is inverted by `from_coords` on its span.
PHASE_BASIS = np.stack([ID4, L_I])                  # p1 + p2 L_i
G0_BASIS = np.stack([R_I, R_J, R_K])                # compact-type algebra
ROTATION_BASIS = np.stack([L_I, R_I, R_J, R_K])     # a L_i + b.R
QUAT_BASIS = np.stack([ID4, -R_I, -R_J, -R_K])      # q0 + q1 i + q2 j + q3 k

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


@dataclass(frozen=True)
class GroupElement:
    """Rigid motion (G, T): rotation commuting with L_i plus translation.

    The product law is ``(G, T) (G', T') = (G G', G T' + T)``.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(ID4.copy(), np.zeros(4))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.rotation @ other.rotation,
                            self.rotation @ other.translation + self.translation)

    def inverse(self) -> "GroupElement":
        rt = self.rotation.T
        return GroupElement(rt, -rt @ self.translation)

    def apply(self, x):
        return (self.rotation @ np.asarray(x, dtype=float).T).T + self.translation

    def is_valid(self) -> bool:
        g = self.rotation
        return bool(np.max(np.abs(g @ g.T - ID4)) <= 1e-9
                    and np.max(np.abs(g @ L_I - L_I @ g)) <= 1e-9)


@dataclass(frozen=True)
class AlgebraElement:
    """Lie algebra element (eta, t): eta = a L_i + b.R, t a (possibly complex)
    4-vector.  The bracket is ``[(e,t),(e',t')] = (ee'-e'e, e t' - e' t)``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=complex))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=complex))

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls(np.zeros((4, 4)), np.zeros(4))

    @classmethod
    def from_coeffs(cls, a=0.0, b=(0.0, 0.0, 0.0)) -> "AlgebraElement":
        """The rotation a L_i + b.R, with no translation."""
        return cls(from_coords(np.array([a, *b]), ROTATION_BASIS), np.zeros(4))

    def coeffs(self):
        """(a, b1, b2, b3) coordinates of the rotation part."""
        return tuple(coords(self.rotation, ROTATION_BASIS))

    def bracket(self, other: "AlgebraElement") -> "AlgebraElement":
        e, f = self.rotation, other.rotation
        return AlgebraElement(e @ f - f @ e,
                              e @ other.translation - f @ self.translation)

    def conj(self) -> "AlgebraElement":
        return AlgebraElement(np.conj(self.rotation), np.conj(self.translation))

    def __add__(self, other):
        return AlgebraElement(self.rotation + other.rotation,
                              self.translation + other.translation)

    def __sub__(self, other):
        return AlgebraElement(self.rotation - other.rotation,
                              self.translation - other.translation)

    def __mul__(self, c):
        return AlgebraElement(c * self.rotation, c * self.translation)

    __rmul__ = __mul__

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.rotation) ** 2)
                             + np.sum(np.abs(self.translation) ** 2)))


def tau_rotation(m):
    """tau on a rotation-part matrix: conjugation by -L_j."""
    return -L_J @ np.asarray(m) @ L_J


def tau_vector(v):
    """tau on a translation 4-vector."""
    return -(L_J @ np.asarray(v).T).T


def tau(x):
    """Order-4 automorphism, on group or algebra elements."""
    if isinstance(x, GroupElement):
        return GroupElement(tau_rotation(x.rotation), tau_vector(x.translation))
    if isinstance(x, AlgebraElement):
        return AlgebraElement(tau_rotation(x.rotation), tau_vector(x.translation))
    raise TypeError(f"tau expects a group or algebra element, got {type(x)!r}")


def eigen_project(x: AlgebraElement, k: int) -> AlgebraElement:
    """Component of a complexified algebra element in the i**k eigenspace.

    k = 2 picks the L_i line, k = 0 the R-span, and k = -1/+1 split the
    translation into the -i/+i eigenspaces of -L_j.
    """
    if k not in (-1, 0, 1, 2):
        raise ValueError("k must be one of -1, 0, 1, 2")
    if k in (0, 2):
        basis = G0_BASIS if k == 0 else ROTATION_BASIS[:1]
        return AlgebraElement(from_coords(coords(x.rotation, basis), basis),
                              np.zeros(4))
    t = x.translation
    sign = -1.0 if k == -1 else 1.0
    # eigenprojection of A = -L_j with A^2 = -Id: P(+-i) = (Id -+ i A)/2
    proj = 0.5 * (t - sign * 1j * (-(L_J @ t)))
    return AlgebraElement(np.zeros((4, 4)), proj)


def wedge_value(e1, e3):
    """(dx1 + i dx2) ^ (dx3 + i dx4) on the ordered pair (e1, e3)."""
    a = e1[..., 0] + 1j * e1[..., 1]
    b = e1[..., 2] + 1j * e1[..., 3]
    c = e3[..., 0] + 1j * e3[..., 1]
    d = e3[..., 2] + 1j * e3[..., 3]
    return a * d - c * b


def lagrangian_angle(e1, e3, tol: float = 1e-9):
    """Angle Theta in (-pi, pi] with e^{i Theta} the wedge value of the frame.

    Raises :class:`FrameNotLagrangian` unless (e1, e3) is unit, orthogonal and
    omega-isotropic within ``tol``.
    """
    e1 = np.asarray(e1, dtype=float)
    e3 = np.asarray(e3, dtype=float)
    checks = (abs(e1 @ e1 - 1.0), abs(e3 @ e3 - 1.0), abs(e1 @ e3), abs(omega(e1, e3)))
    worst = max(checks)
    if worst > tol:
        raise FrameNotLagrangian(f"frame residual {worst:.3e} exceeds tol {tol:.1e}")
    return float(np.angle(wedge_value(e1, e3)))


def lagrangian_angle_raw(e1, e3):
    """Angle of the wedge value without precondition checks (vectorized)."""
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
