import numpy as np
import pytest

from hamstat.algebra import (EPS, EPS_BAR, G0_BASIS, ID4, L_I, L_J, LI_EPS,
                             LI_EPS_BAR, R_I, R_J, R_K, ROTATION_BASIS, coords,
                             exp_g0, from_coords, lagrangian_angle_raw, omega,
                             tau_rotation, tau_vector)
from hamstat.finitetype import _BRACKET
from hamstat.loops import TwistedLoop

# the left k and two more product stacks, which no program uses
L_K = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
PHASE_BASIS = np.stack([ID4, L_I])                  # p1 + p2 L_i
QUAT_BASIS = np.stack([ID4, -R_I, -R_J, -R_K])      # q0 + q1 i + q2 j + q3 k
LEFT = {"1": ID4, "i": L_I, "j": L_J, "k": L_K}
RIGHT = {"1": ID4, "i": R_I, "j": R_J, "k": R_K}

# quaternion multiplication table on unit symbols
QUAT = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def test_quaternion_table_exhaustive():
    # left multiplications compose covariantly: L_p L_q = L_{pq}
    for (p, q), (s, r) in QUAT.items():
        assert np.allclose(LEFT[p] @ LEFT[q], s * LEFT[r])
    # right multiplications contravariantly: R_a R_b = R_{ba}
    for a in "1ijk":
        for b in "1ijk":
            s, r = QUAT[(b, a)]
            assert np.allclose(RIGHT[a] @ RIGHT[b], s * RIGHT[r])
    # all nine commutators vanish
    for a in "ijk":
        for b in "ijk":
            assert np.allclose(LEFT[a] @ RIGHT[b], RIGHT[b] @ LEFT[a])
    for m in (L_I, L_J, L_K, R_I, R_J, R_K):
        assert np.allclose(m @ m, -ID4)


def test_coordinate_map_on_the_sixteen_products(rng):
    # the 16 products L_a R_b are orthonormal for trace(B^T m) / 4, so the
    # coordinate map inverts the combination on their span (all of M_4)
    products = np.stack([LEFT[a] @ RIGHT[b] for a in "1ijk" for b in "1ijk"])
    assert np.array_equal(coords(products, products), np.eye(16))
    m = rng.normal(size=(3, 2, 4, 4)) + 1j * rng.normal(size=(3, 2, 4, 4))
    c = coords(m, products)
    assert c.shape == (3, 2, 16)
    assert np.max(np.abs(from_coords(c, products) - m)) < 1e-14
    c = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    assert np.max(np.abs(coords(from_coords(c, products), products) - c)) < 1e-14
    # each named stack is a set of such products, up to sign
    for basis in (PHASE_BASIS, G0_BASIS, ROTATION_BASIS, QUAT_BASIS):
        assert np.array_equal(coords(basis, basis), np.eye(len(basis)))
        assert np.array_equal(np.abs(coords(basis, products)).sum(axis=-1),
                              np.ones(len(basis)))
    rot = from_coords(np.array([0.3 - 1j, 2.0, -0.5j, 1.5]), ROTATION_BASIS)
    assert np.array_equal(rot, (0.3 - 1j) * L_I + 2.0 * R_I
                          - 0.5j * R_J + 1.5 * R_K)
    assert np.allclose(coords(rot, ROTATION_BASIS),
                       (0.3 - 1j, 2.0, -0.5j, 1.5), atol=1e-15)


def test_tau_examples_and_order():
    # the identity motion is fixed
    assert np.allclose(tau_rotation(ID4), ID4)
    # direct matrix product: -L_j L_i L_j = -L_i
    assert np.allclose(tau_rotation(L_I), -L_I)
    # translation eigenvector: eps sits in the (-i)-eigenspace of -L_j
    assert np.allclose(tau_vector(EPS), -1j * EPS)
    assert np.allclose(tau_vector(EPS_BAR), 1j * EPS_BAR)


def test_tau_fourth_power_identity(rng):
    for _ in range(20):
        rot = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        trans = rng.normal(size=4) + 1j * rng.normal(size=4)
        out_rot, out_trans = rot, trans
        for _ in range(4):
            out_rot, out_trans = tau_rotation(out_rot), tau_vector(out_trans)
        assert np.allclose(out_rot, rot)
        assert np.allclose(out_trans, trans)


def test_tau_vector_on_a_stack_acts_row_by_row(rng):
    stack = rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))
    rows = np.array([[tau_vector(v) for v in block] for block in stack])
    assert np.array_equal(tau_vector(stack), rows)


def _eigen_parts(rot, trans):
    """Components of an algebra element (a L_i + b.R, t) in the i**k
    eigenspaces of tau, k = -1, 0, 1, 2: the R-span, the L_i line and the
    eps, L_i eps_bar (k = -1) and eps_bar, L_i eps (k = 1) halves of t."""
    zero_rot, zero_trans = np.zeros((4, 4)), np.zeros(4)
    g0 = from_coords(coords(rot, G0_BASIS), G0_BASIS)
    li = from_coords(coords(rot, ROTATION_BASIS[:1]), ROTATION_BASIS[:1])
    # eigenprojection of A = -L_j with A^2 = -Id: P(+-i) = (Id -+ i A)/2
    minus = 0.5 * (trans - 1j * (L_J @ trans))
    return {-1: (zero_rot, minus), 0: (g0, zero_trans),
            1: (zero_rot, trans - minus), 2: (li, zero_trans)}


def test_eigen_project_examples():
    # the odd eigenspaces are spanned by the distinguished vectors
    for vec, k in ((EPS, -1), (LI_EPS_BAR, -1), (EPS_BAR, 1), (LI_EPS, 1)):
        assert np.allclose(tau_vector(vec), 1j ** k * vec)
        assert np.allclose(_eigen_parts(np.zeros((4, 4)), vec)[k][1], vec)
    assert np.allclose(tau_rotation(L_I), -L_I)
    for r in (R_I, R_J, R_K):
        assert np.allclose(tau_rotation(r), r)
        assert np.allclose(_eigen_parts(r, np.zeros(4))[0][0], r)


def test_eigen_project_resolution_and_eigenvalues(rng):
    # the four components sum to the input and carry tau-eigenvalue i^k
    for _ in range(1000):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        trans = rng.normal(size=4) + 1j * rng.normal(size=4)
        rot = from_coords(coeffs, ROTATION_BASIS)
        total_rot = np.zeros((4, 4), dtype=complex)
        total_tr = np.zeros(4, dtype=complex)
        for k, (crot, ctr) in _eigen_parts(rot, trans).items():
            assert np.max(np.abs(tau_rotation(crot) - 1j ** k * crot)) < 1e-12
            assert np.max(np.abs(tau_vector(ctr) - 1j ** k * ctr)) < 1e-12
            total_rot += crot
            total_tr += ctr
        assert np.max(np.abs(total_rot - rot)) <= 1e-12 * (1 + np.max(np.abs(rot)))
        assert np.max(np.abs(total_tr - trans)) <= 1e-12 * (1 + np.max(np.abs(trans)))


def _random_motion(rng):
    """A constant loop at a random rigid motion (rotation, translation)."""
    theta = rng.uniform(-np.pi, np.pi)
    rot = (np.cos(theta) * ID4 + np.sin(theta) * L_I) @ exp_g0(rng.normal(size=3)).real
    return TwistedLoop(np.array([0]), rot[None], rng.normal(size=(1, 4)))


def test_group_law_associativity_and_inverse(rng):
    # the motion group law (R1, T1)(R2, T2) = (R1 R2, R1 T2 + T1) that
    # TwistedLoop.compose applies pointwise
    for _ in range(50):
        g1, g2, g3 = (_random_motion(rng) for _ in range(3))
        r1, t1 = g1.value_at(1.0)
        assert np.allclose(r1 @ r1.T, ID4) and np.isclose(np.linalg.det(r1), 1.0)
        lhs = g1.compose(g2).compose(g3).value_at(1.0)
        rhs = g1.compose(g2.compose(g3)).value_at(1.0)
        assert np.max(np.abs(lhs[0] - rhs[0])) < 1e-12
        assert np.max(np.abs(lhs[1] - rhs[1])) < 1e-12
        r1inv = np.linalg.inv(r1)
        inv = TwistedLoop(np.array([0]), r1inv[None], -(r1inv @ t1)[None])
        rp, tp = g1.compose(inv).value_at(1.0)
        assert np.max(np.abs(rp - ID4)) < 1e-12
        assert np.max(np.abs(tp)) < 1e-12
        # the product acts as the composition of the actions x -> R x + T
        x = rng.normal(size=(5, 4))
        r2, t2 = g2.value_at(1.0)
        r12, t12 = g1.compose(g2).value_at(1.0)
        assert np.allclose(x @ r12.T + t12, (x @ r2.T + t2) @ r1.T + t1)


def test_bracket_antisymmetry_and_jacobi(rng):
    # the flow's structure constants on the 8 coordinates (4 of the rotation
    # in ROTATION_BASIS, 4 of the translation): [x, y]_c = x_p y_q B[q, p, c]
    table = _BRACKET.reshape(8, 8, 8)

    def bracket(x, y):
        return np.einsum("p,q,qpc->c", x, y, table)

    assert np.array_equal(table, -table.transpose(1, 0, 2))
    for _ in range(25):
        x, y, z = rng.normal(size=(3, 8))
        assert np.linalg.norm(bracket(x, y) + bracket(y, x)) < 1e-12
        jac = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
               + bracket(z, bracket(x, y)))
        assert np.linalg.norm(jac) < 1e-10


E1 = np.array([1.0, 0, 0, 0])
E3 = np.array([0.0, 0, 1, 0])


def _angle_via_u2_determinant(e1, e3):
    # oracle: determinant of the unitary matrix sending the canonical frame
    # to (e1, L_i e1, e3, L_i e3), in the 2x2 complex picture
    cols = np.stack([e1, L_I @ e1, e3, L_I @ e3], axis=1)
    u = np.array([[cols[0, 0] + 1j * cols[1, 0], cols[0, 2] + 1j * cols[1, 2]],
                  [cols[2, 0] + 1j * cols[3, 0], cols[2, 2] + 1j * cols[3, 2]]])
    return float(np.angle(np.linalg.det(u)))


def test_lagrangian_angle_examples():
    assert abs(lagrangian_angle_raw(E1, E3)) < 1e-14
    # same oriented plane, rotated basis
    assert abs(lagrangian_angle_raw(E3, -E1)) < 1e-14
    for theta in (0.3, -1.2, 2.9):
        rot = np.cos(theta) * ID4 + np.sin(theta) * L_I
        got = lagrangian_angle_raw(rot @ E1, rot @ E3)
        expect = np.angle(np.exp(2j * theta))
        assert abs(got - expect) < 1e-12
        assert abs(got - _angle_via_u2_determinant(rot @ E1, rot @ E3)) < 1e-12


def test_lagrangian_angle_g0_invariance(rng):
    # compact-factor motions leave the angle unchanged
    for _ in range(25):
        theta = rng.uniform(-np.pi, np.pi)
        g2 = np.cos(theta) * ID4 + np.sin(theta) * L_I
        k = exp_g0(rng.normal(size=3)).real
        base = lagrangian_angle_raw(g2 @ E1, g2 @ E3)
        moved = lagrangian_angle_raw(g2 @ k @ E1, g2 @ k @ E3)
        assert abs((base - moved + np.pi) % (2 * np.pi) - np.pi) < 1e-12


def test_omega_matches_symplectic_matrix(rng):
    for _ in range(10):
        u, v = rng.normal(size=4), rng.normal(size=4)
        assert abs(omega(u, v) - (L_I @ u) @ v) < 1e-14
