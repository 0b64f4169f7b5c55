import numpy as np
import pytest

from hamstat.algebra import (AlgebraElement, EPS, EPS_BAR, G0_BASIS,
                             GroupElement, ID4, L_I, L_J, L_K, PHASE_BASIS,
                             QUAT_BASIS, R_I, R_J, R_K, ROTATION_BASIS, coords,
                             eigen_project, exp_g0, from_coords,
                             lagrangian_angle, omega, tau, tau_rotation,
                             tau_vector)
from hamstat.errors import FrameNotLagrangian

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
    el = AlgebraElement.from_coeffs(0.3 - 1j, (2.0, -0.5j, 1.5))
    assert np.array_equal(el.rotation, (0.3 - 1j) * L_I + 2.0 * R_I
                          - 0.5j * R_J + 1.5 * R_K)
    assert np.allclose(el.coeffs(), (0.3 - 1j, 2.0, -0.5j, 1.5), atol=1e-15)


def test_tau_examples_and_order():
    ident = GroupElement.identity()
    out = tau(ident)
    assert np.allclose(out.rotation, ID4) and np.allclose(out.translation, 0)
    # direct matrix product: -L_j L_i L_j = -L_i
    assert np.allclose(tau_rotation(L_I), -L_I)
    # translation eigenvector: eps sits in the (-i)-eigenspace of -L_j
    assert np.allclose(tau_vector(EPS), -1j * EPS)
    assert np.allclose(tau_vector(EPS_BAR), 1j * EPS_BAR)


def test_tau_fourth_power_identity(rng):
    for _ in range(20):
        el = AlgebraElement(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
                            rng.normal(size=4) + 1j * rng.normal(size=4))
        out = tau(tau(tau(tau(el))))
        assert np.allclose(out.rotation, el.rotation)
        assert np.allclose(out.translation, el.translation)


def test_eigen_project_examples():
    li = AlgebraElement(L_I, np.zeros(4))
    p2 = eigen_project(li, 2)
    assert np.allclose(p2.rotation, L_I) and np.allclose(p2.translation, 0)

    eps_el = AlgebraElement(np.zeros((4, 4)), EPS)
    pm1 = eigen_project(eps_el, -1)
    assert np.allclose(pm1.translation, EPS)
    assert np.allclose(eigen_project(eps_el, 1).translation, 0)

    rj = AlgebraElement(R_J, np.zeros(4))
    assert np.allclose(eigen_project(rj, 1).rotation, 0)
    assert np.allclose(eigen_project(rj, 1).translation, 0)
    assert np.allclose(eigen_project(rj, 0).rotation, R_J)


def test_eigen_project_resolution_and_eigenvalues(rng):
    # the four components sum to the input and carry tau-eigenvalue i^k
    for _ in range(1000):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        trans = rng.normal(size=4) + 1j * rng.normal(size=4)
        el = AlgebraElement(coeffs[0] * L_I + coeffs[1] * R_I
                            + coeffs[2] * R_J + coeffs[3] * R_K, trans)
        total_rot = np.zeros((4, 4), dtype=complex)
        total_tr = np.zeros(4, dtype=complex)
        for k in (-1, 0, 1, 2):
            comp = eigen_project(el, k)
            tcomp = tau(comp)
            assert np.max(np.abs(tcomp.rotation - 1j ** k * comp.rotation)) < 1e-12
            assert np.max(np.abs(tcomp.translation - 1j ** k * comp.translation)) < 1e-12
            total_rot += comp.rotation
            total_tr += comp.translation
        assert np.max(np.abs(total_rot - el.rotation)) <= 1e-12 * (1 + np.max(np.abs(el.rotation)))
        assert np.max(np.abs(total_tr - el.translation)) <= 1e-12 * (1 + np.max(np.abs(el.translation)))


def _random_group_element(rng):
    theta = rng.uniform(-np.pi, np.pi)
    b = rng.normal(size=3)
    rot = (np.cos(theta) * ID4 + np.sin(theta) * L_I) @ exp_g0(b).real
    return GroupElement(rot, rng.normal(size=4))


def test_group_law_associativity_and_inverse(rng):
    for _ in range(50):
        g1, g2, g3 = (_random_group_element(rng) for _ in range(3))
        assert g1.is_valid()
        lhs = (g1 @ g2) @ g3
        rhs = g1 @ (g2 @ g3)
        assert np.max(np.abs(lhs.rotation - rhs.rotation)) < 1e-12
        assert np.max(np.abs(lhs.translation - rhs.translation)) < 1e-12
        inv = g1.inverse()
        prod = g1 @ inv
        assert np.max(np.abs(prod.rotation - ID4)) < 1e-12
        assert np.max(np.abs(prod.translation)) < 1e-12
        # the product acts as the composition of the actions
        x = rng.normal(size=(5, 4))
        assert np.allclose((g1 @ g2).apply(x), g1.apply(g2.apply(x)))


def test_bracket_antisymmetry_and_jacobi(rng):
    def rand_alg():
        c = rng.normal(size=4)
        return AlgebraElement(c[0] * L_I + c[1] * R_I + c[2] * R_J + c[3] * R_K,
                              rng.normal(size=4))

    for _ in range(25):
        x, y, z = rand_alg(), rand_alg(), rand_alg()
        antisym = x.bracket(y) + y.bracket(x)
        assert antisym.norm() < 1e-12
        jac = (x.bracket(y.bracket(z)) + y.bracket(z.bracket(x))
               + z.bracket(x.bracket(y)))
        assert jac.norm() < 1e-10


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
    assert abs(lagrangian_angle(E1, E3)) < 1e-14
    # same oriented plane, rotated basis
    assert abs(lagrangian_angle(E3, -E1)) < 1e-14
    for theta in (0.3, -1.2, 2.9):
        rot = np.cos(theta) * ID4 + np.sin(theta) * L_I
        got = lagrangian_angle(rot @ E1, rot @ E3)
        expect = np.angle(np.exp(2j * theta))
        assert abs(got - expect) < 1e-12
        assert abs(got - _angle_via_u2_determinant(rot @ E1, rot @ E3)) < 1e-12


def test_lagrangian_angle_g0_invariance(rng):
    # compact-factor motions leave the angle unchanged
    for _ in range(25):
        theta = rng.uniform(-np.pi, np.pi)
        g2 = np.cos(theta) * ID4 + np.sin(theta) * L_I
        k = exp_g0(rng.normal(size=3)).real
        base = lagrangian_angle(g2 @ E1, g2 @ E3)
        moved = lagrangian_angle(g2 @ k @ E1, g2 @ k @ E3)
        assert abs((base - moved + np.pi) % (2 * np.pi) - np.pi) < 1e-12


def test_lagrangian_angle_rejects_bad_frames():
    with pytest.raises(FrameNotLagrangian):
        lagrangian_angle(E1, np.array([0.0, 1.0, 0, 0]))   # omega(e1, e3) = 1
    with pytest.raises(FrameNotLagrangian):
        lagrangian_angle(2 * E1, E3)


def test_omega_matches_symplectic_matrix(rng):
    for _ in range(10):
        u, v = rng.normal(size=4), rng.normal(size=4)
        assert abs(omega(u, v) - (L_I @ u) @ v) < 1e-14
