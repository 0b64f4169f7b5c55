import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_z, fd_zbar, golden_tori, spec_vanishing_at
from hamstat.algebra import (EPS, ID4, L_I, LI_EPS_BAR, lagrangian_angle_raw,
                             omega)
from hamstat.cli import _spec_hash
from hamstat.errors import ResonantFrequency
from hamstat.finitetype import formal_killing
from hamstat.lattices import Lattice, affine_grid, enumerate_frequencies
from hamstat.numerics import dot_r2, fd_x, fd_y
from hamstat.tori import rhombic_torus, standard_torus
from hamstat.weierstrass import (FamilyEvaluator, TorusSpec, _basis_column,
                                 _merge, _u_modes, family_samples, immerse,
                                 regularity_scan, spinor_u)


@pytest.fixture
def square_spec():
    return standard_torus(1.0, 1.0).spec


def random_spec(rng, beta0=6 + 8j, n_active=4):
    lat = Lattice.square()
    freq = list(enumerate_frequencies(lat, beta0))
    rng.shuffle(freq)
    coeffs = {g: complex(rng.normal(), rng.normal()) for g in freq[:n_active]}
    return TorusSpec.build(lat, beta0, coeffs)


def beta_eval(spec, z):
    """The Lagrangian angle 2 pi <beta0, z>, as twice the real part of the
    holomorphic half-angle h(z) = pi conj(beta0) z."""
    return 2.0 * (np.pi * np.conj(spec.beta0)
                  * np.asarray(z, dtype=complex)).real


def basis_surface(gamma, beta0, z, coeff=1.0):
    """The basis surface A_gamma (coeff 1) or B_gamma (coeff 1j): the
    immersion of the one-term spec, on the lattice 2 Z[i], whose dual
    Z[i] / 2 holds every frequency used here."""
    spec = TorusSpec.build(Lattice(2.0, 2.0j), beta0, {gamma: coeff})
    return immerse(spec, z)


def test_beta_eval_examples(square_spec):
    assert beta_eval(square_spec, 0.0) == 0.0
    assert abs(beta_eval(square_spec, 1.0) - 2 * np.pi) < 1e-14
    assert abs(beta_eval(square_spec, (1 + 1j) / 2) - 2 * np.pi) < 1e-14


def test_basis_value_at_origin():
    # independent hand evaluation of the closed form at the basepoint
    got = basis_surface((1 - 1j) / 2, 1 + 1j, 0.0)
    assert np.max(np.abs(got - (-1 / (2 * np.pi)) * np.ones(4))) < 1e-14
    assert np.all(np.isfinite(basis_surface((1 - 1j) / 2, 1 + 1j, 0.0, 1j)))


def test_basis_derivative_matches_frame(rng):
    # finite differences of the closed form against the moving-frame formula
    beta0 = 1 + 1j
    gamma = (1 - 1j) / 2
    for _ in range(5):
        z0 = complex(rng.normal(), rng.normal()) * 0.4
        h = 1e-6
        def a(z):
            return basis_surface(gamma, beta0, z)

        d_dx = (a(z0 + h) - a(z0 - h)) / (2 * h)
        d_dy = (a(z0 + 1j * h) - a(z0 - 1j * h)) / (2 * h)
        v = (np.exp(2j * np.pi * dot_r2(gamma, z0)) * EPS
             + (2j * np.conj(gamma) / beta0) * np.exp(-2j * np.pi * dot_r2(gamma, z0)) * LI_EPS_BAR)
        phase = np.pi * dot_r2(beta0, z0)
        rot = np.cos(phase) * ID4 + np.sin(phase) * L_I
        assert np.max(np.abs(d_dx - (rot @ (v + np.conj(v))).real)) < 1e-8
        assert np.max(np.abs(d_dy - (rot @ (1j * (v - np.conj(v)))).real)) < 1e-8


def test_basis_periodicity(rng, square_spec):
    # the closed forms are lattice periodic exactly when the shifted
    # frequencies are dual points (true for every admissible frequency)
    lat = square_spec.lattice
    for gamma in enumerate_frequencies(lat, square_spec.beta0):
        for delta in (lat.g1, lat.g2):
            zs = np.array([0.1 + 0.2j, -0.3 + 0.7j, 1.1 - 0.4j])
            a0 = basis_surface(gamma, square_spec.beta0, zs)
            a1 = basis_surface(gamma, square_spec.beta0, zs + delta)
            assert np.max(np.abs(a0 - a1)) < 1e-12


def reference_basis(gamma, beta0, z, part):
    """The per-basis closed form evaluated term by term: its own
    exponential, real/imaginary split and rotation for every basis surface."""
    gamma, beta0 = complex(gamma), complex(beta0)
    z = np.asarray(z, dtype=complex)
    column = (np.array([-1j * gamma, -beta0 / 2.0, gamma, -1j * beta0 / 2.0])
              / (beta0 ** 2 - 4.0 * gamma ** 2))
    wave = np.exp(-2j * np.pi * dot_r2(gamma, z))[..., None] * column
    vec = wave.real if part == "re" else wave.imag
    phase = np.pi * dot_r2(beta0, z)
    rotated = (np.cos(phase)[..., None] * vec
               + np.sin(phase)[..., None] * (vec @ L_I.T))
    return (4.0 / np.pi) * rotated


def reference_immerse(spec, z):
    out = np.zeros(np.shape(z) + (4,))
    for gamma, a in spec.items():
        if a.real != 0.0:
            out += a.real * reference_basis(gamma, spec.beta0, z, "re")
        if a.imag != 0.0:
            out += a.imag * reference_basis(gamma, spec.beta0, z, "im")
    return out


# one shared mode sum reorders the float64 arithmetic of the term-by-term
# form; 1e-12 of the value's scale is some 4500 ulps, far above the few
# ulps such a reordering moves a sum of a dozen terms
REFERENCE_RTOL = 1e-12


@pytest.mark.parametrize("kind", ["real", "imaginary", "complex"])
def test_closed_forms_match_term_by_term_reference(rng, kind):
    lat = Lattice.square()
    points = [0.37 - 0.21j, lat.grid(7).ravel() + 0.013j, lat.grid(9) - 0.02]
    for beta0 in (1 + 1j, 6 + 8j, 5 + 0j):
        freq = list(enumerate_frequencies(lat, beta0))
        x, y = rng.normal(size=len(freq)), rng.normal(size=len(freq))
        coeffs = {"real": x + 0j, "imaginary": 1j * y,
                  "complex": x + 1j * y}[kind]
        spec = TorusSpec.build(lat, beta0, dict(zip(freq, coeffs)))
        for z in points:
            ref = reference_immerse(spec, z)
            got = immerse(spec, z)
            assert got.shape == ref.shape == np.shape(z) + (4,)
            assert np.max(np.abs(got - ref)) <= REFERENCE_RTOL * np.max(np.abs(ref))
            for gamma in freq:
                for coeff, part in ((1.0, "re"), (1j, "im")):
                    ref = reference_basis(gamma, beta0, z, part)
                    err = np.max(np.abs(basis_surface(gamma, beta0, z, coeff)
                                        - ref))
                    assert err <= REFERENCE_RTOL * np.max(np.abs(ref))


def test_closed_forms_of_empty_spec_vanish():
    empty = TorusSpec(Lattice.square(), 6 + 8j, {})
    for z in (0.3 + 0.1j, np.array([0.2, 1j]), Lattice.square().grid(3)):
        got = immerse(empty, z)
        assert got.shape == np.shape(z) + (4,)
        assert np.array_equal(got, reference_immerse(empty, z))
        assert not np.any(got)


def mp_basis(gamma, beta0, z, part):
    """The closed form of A_gamma / B_gamma in 50-digit arithmetic, at the
    exact binary values of the float64 inputs."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        g, b, w = (mpmath.mpc(v.real, v.imag)
                   for v in map(complex, (gamma, beta0, z)))

        def dot(p, q):
            return mpmath.re(mpmath.conj(p) * q)

        denom = b ** 2 - 4 * g ** 2
        column = [-1j * g / denom, -b / 2 / denom, g / denom,
                  -1j * b / 2 / denom]
        wave = mpmath.exp(-2j * mpmath.pi * dot(g, w))
        split = mpmath.re if part == "re" else mpmath.im
        vec = [split(wave * c) for c in column]
        li_vec = [-vec[1], vec[0], -vec[3], vec[2]]          # L_I @ vec
        phase = mpmath.pi * dot(b, w)
        return np.array([
            float(4 / mpmath.pi * (mpmath.cos(phase) * v + mpmath.sin(phase) * lv))
            for v, lv in zip(vec, li_vec)])


@pytest.mark.parametrize("gamma, beta0", [
    ((1 - 1j) / 2, 1 + 1j), (5.0, 6 + 8j), (-3 + 4j, 6 + 8j), (4 - 3j, 6 + 8j),
    (0.5 + 0.5j, 1 - 1j), (2.5j, 5.0)])
def test_basis_pinned_to_high_precision(gamma, beta0):
    # float64 loses about |phase| ulps in each exponent; every phase here is
    # below 60, so 1e-13 of the term's scale (4/pi)|column| leaves a margin
    scale = (4 / np.pi) * max(abs(gamma), abs(beta0) / 2) / abs(
        beta0 ** 2 - 4 * gamma ** 2)
    for z in (0.0, 0.37 - 0.21j, -0.81 + 0.66j, 1.25 + 0.5j):
        for coeff, part in ((1.0, "re"), (1j, "im")):
            exact = mp_basis(gamma, beta0, z, part)
            got = basis_surface(gamma, beta0, z, coeff)
            assert np.max(np.abs(got - exact)) <= 1e-13 * scale


def test_basis_resonant_frequency_rejected():
    # the circle set leaves the resonance out, so only an unvalidated spec
    # can carry it
    resonant = TorusSpec(Lattice.square(), 1 + 1j, {(1 + 1j) / 2: 1.0})
    with pytest.raises(ResonantFrequency):
        immerse(resonant, 0.0)


def test_immerse_zero_and_linearity(rng):
    lat = Lattice.square()
    empty = TorusSpec(lat, 1 + 1j, {})
    zs = lat.grid(5)
    assert np.max(np.abs(immerse(empty, zs))) == 0.0

    s1 = random_spec(rng)
    s2 = TorusSpec.build(lat, s1.beta0, {g: 2.5 * a for g, a in s1.items()})
    assert np.max(np.abs(immerse(s2, zs) - 2.5 * immerse(s1, zs))) < 1e-10
    # additivity over disjoint frequency supports
    freq = list(enumerate_frequencies(lat, 6 + 8j))
    sa = TorusSpec.build(lat, 6 + 8j, {freq[0]: 1.0 + 0.5j})
    sb = TorusSpec.build(lat, 6 + 8j, {freq[2]: -0.7 + 0.2j})
    sab = TorusSpec.build(lat, 6 + 8j, {freq[0]: 1.0 + 0.5j, freq[2]: -0.7 + 0.2j})
    assert np.max(np.abs(immerse(sab, zs) - immerse(sa, zs) - immerse(sb, zs))) < 1e-12


def test_merge_keeps_first_occurrence():
    freqs = np.array([1 + 1j, 2.0, 1 + 1j + 1e-12, 3j, 2.0 - 3e-11])
    vecs = np.arange(10.0).reshape(5, 2) + 1j
    merged, sums = _merge(freqs, vecs)
    assert merged.tolist() == [1 + 1j, 2.0, 3j]
    assert np.array_equal(sums, [vecs[0] + vecs[2], vecs[1] + vecs[4], vecs[3]])


def test_u_mode_table_invariants():
    # gamma and -gamma both active, plus 5i without its negative
    lat, beta0, gamma = Lattice.square(), 6 + 8j, 4 + 3j
    coeffs = {gamma: 1.0 + 0.5j, -gamma: -0.7 + 0.2j, 5j: 0.3 - 0.4j}
    freqs, vecs = _u_modes(TorusSpec.build(lat, beta0, coeffs))
    # one row per distinct frequency, in pairs (delta, -delta)
    assert freqs.tolist() == [gamma, -gamma, 5j, -5j]
    assert vecs.shape == (4, 4)
    assert np.array_equal(freqs[1::2], -freqs[::2])
    # the rows of +-gamma sum the contributions of the two coefficients
    alone = [_u_modes(TorusSpec.build(lat, beta0, {g: coeffs[g]}))
             for g in (gamma, -gamma)]
    assert np.array_equal(vecs[0], alone[0][1][0] + alone[1][1][1])
    assert np.array_equal(vecs[1], alone[0][1][1] + alone[1][1][0])
    # the formal Killing coefficients live on the frequencies of u
    for f, w in formal_killing((freqs, vecs), np.pi * np.conj(beta0) / 2, 6):
        assert f is freqs and w.shape == vecs.shape


def test_spinor_single_mode_is_basis_vector():
    lat = Lattice.square()
    gamma = (1 - 1j) / 2
    spec = TorusSpec.build(lat, 1 + 1j, {gamma: 1.0 + 0j})
    z = 0.23 - 0.11j
    u = spinor_u(spec, z)
    v = (np.exp(2j * np.pi * dot_r2(gamma, z)) * EPS
         + (2j * np.conj(gamma) / (1 + 1j)) * np.exp(-2j * np.pi * dot_r2(gamma, z)) * LI_EPS_BAR)
    assert np.max(np.abs(u - v)) < 1e-14
    # purely imaginary coefficient produces the companion basis vector
    spec_i = TorusSpec.build(lat, 1 + 1j, {gamma: 1j})
    w = (1j * np.exp(2j * np.pi * dot_r2(gamma, z)) * EPS
         + (2 * np.conj(gamma) / (1 + 1j)) * np.exp(-2j * np.pi * dot_r2(gamma, z)) * LI_EPS_BAR)
    assert np.max(np.abs(spinor_u(spec_i, z) - w)) < 1e-14


def test_spinor_equation_and_derivative_link(rng, square_spec):
    # u solves the first-order system and matches the frame derivative of X
    for spec in (square_spec, random_spec(rng)):
        zs = spec.lattice.grid(4) + 0.037 + 0.053j
        h = 1e-6
        du_zbar = fd_zbar(lambda z: spinor_u(spec, z), zs, h)
        target = (np.pi * np.conj(spec.beta0) / 2) * np.einsum(
            "ij,...j->...i", L_I, np.conj(spinor_u(spec, zs)))
        scale = np.max(np.abs(spinor_u(spec, zs))) + 1.0
        assert np.max(np.abs(du_zbar - target)) < 5e-8 * scale

        dx_z = fd_z(lambda z: immerse(spec, z), zs, h)
        phase = np.pi * dot_r2(spec.beta0, zs)
        rot_inv = (np.cos(phase)[..., None, None] * ID4
                   - np.sin(phase)[..., None, None] * L_I)
        u_from_x = np.einsum("...ij,...j->...i", rot_inv, dx_z)
        assert np.max(np.abs(u_from_x - spinor_u(spec, zs))) < 5e-8 * scale


def test_spinor_components_solve_eigenvalue_equation(rng):
    spec = random_spec(rng)
    zs = spec.lattice.grid(3) + 0.11 + 0.07j
    h = 1e-5
    k2 = np.pi ** 2 * abs(spec.beta0) ** 2
    for comp in (0, 1):
        def f(z, comp=comp):
            return 2.0 * spinor_u(spec, z)[..., comp]

        val = f(zs)
        lap5 = (f(zs + h) + f(zs - h) + f(zs + 1j * h) + f(zs - 1j * h)
                - 4.0 * val) / h ** 2
        assert np.max(np.abs(lap5 + k2 * val)) < 1e-4 * (1 + np.max(np.abs(val)))


def test_conformal_lagrangian_angle_identities(rng):
    # exact identities of the construction, probed by finite differences
    spec = random_spec(rng, beta0=1 + 1j, n_active=2)
    zs = spec.lattice.grid(6) + 0.021 + 0.013j
    h = 1e-6
    f = lambda z: immerse(spec, z)
    xx = fd_x(f, zs, h)
    xy = fd_y(f, zs, h)
    assert np.max(np.abs(np.sum(xx * xy, axis=-1))) < 1e-7
    assert np.max(np.abs(np.sum(xx * xx, axis=-1) - np.sum(xy * xy, axis=-1))) < 1e-7
    li_xx = np.einsum("ij,...j->...i", L_I, xx)
    assert np.max(np.abs(np.sum(li_xx * xy, axis=-1))) < 1e-7


def test_frame_angle_equals_beta_mod_2pi(rng, square_spec):
    for spec in (square_spec, random_spec(rng, beta0=1 + 1j, n_active=2)):
        zs = (spec.lattice.grid(5) + 0.041 + 0.029j).ravel()
        h = 1e-6
        f = lambda z: immerse(spec, z)
        for z in zs:
            xx = fd_x(f, z, h)
            xy = fd_y(f, z, h)
            nx, ny = np.linalg.norm(xx), np.linalg.norm(xy)
            if min(nx, ny) < 0.1 * np.pi:
                continue
            e1, e3 = xx / nx, xy / ny
            assert max(abs(e1 @ e3), abs(omega(e1, e3))) <= 1e-5
            theta = lagrangian_angle_raw(e1, e3)
            diff = theta - beta_eval(spec, z)
            assert abs(diff - 2 * np.pi * np.round(diff / (2 * np.pi))) < 1e-6


def test_regularity_scan_standard_and_zero(square_spec):
    assert abs(regularity_scan(square_spec, 24) - np.pi * np.sqrt(2)) < 1e-9
    zero = TorusSpec(Lattice.square(), 1 + 1j, {})
    assert regularity_scan(zero, 8) == 0.0
    with pytest.raises(ValueError, match="at least 2"):
        regularity_scan(square_spec, 1)


def test_regularity_scan_constructed_zero():
    # choose coefficients so the spinor vanishes at a chosen point
    z_star = 0.31 + 0.17j
    spec = spec_vanishing_at(z_star)
    assert np.linalg.norm(spinor_u(spec, z_star)) < 1e-10
    u_max = np.max(np.linalg.norm(spinor_u(spec, spec.lattice.grid(32)),
                                  axis=-1))
    assert regularity_scan(spec, 160) < 0.05 * u_max


def test_regularity_scan_matches_norm_reference():
    # the unrolled sum of squares is np.linalg.norm's own, so the minimum
    # is bit for bit the same
    cases = [(spec, 64) for spec in golden_tori()]
    cases.append((spec_vanishing_at(0.31 + 0.17j), 160))
    for spec, grid_n in cases:
        norms = np.linalg.norm(spinor_u(spec, spec.lattice.grid(grid_n)),
                               axis=-1)
        assert regularity_scan(spec, grid_n) == np.min(norms)


def test_solution_space_dimension(rng):
    # numeric rank of {A, B bases} + translations + the phase direction
    lat = Lattice.square()
    beta0 = 1 + 1j
    freq = list(enumerate_frequencies(lat, beta0))
    zs = (lat.grid(7) + 0.05 + 0.083j).ravel()
    columns = []
    for g in freq:
        columns.append(basis_surface(g, beta0, zs).ravel())
        columns.append(basis_surface(g, beta0, zs, 1j).ravel())
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        columns.append(np.tile(e, len(zs)))
    spec = random_spec(rng, beta0=beta0, n_active=2)
    x_vals = immerse(spec, zs)
    columns.append((x_vals @ L_I.T).ravel())
    mat = np.stack(columns, axis=1)
    rank = np.linalg.matrix_rank(mat, tol=1e-8)
    assert rank == 2 * len(freq) + 5


def test_family_identity_and_sign(square_spec):
    zs = square_spec.lattice.grid(6) + 0.02 + 0.05j
    fam1 = FamilyEvaluator(square_spec, 1.0)
    assert np.max(np.abs(fam1(zs) - immerse(square_spec, zs))) < 1e-12
    assert max(fam1.period_defects.values()) < 1e-12
    # the opposite parameter gives the ambient point reflection of the surface
    fam_m = FamilyEvaluator(square_spec, -1.0)
    assert np.max(np.abs(fam_m(zs) + immerse(square_spec, zs))) < 1e-12
    with pytest.raises(ValueError, match="unit circle"):
        FamilyEvaluator(square_spec, 0.5)


def test_family_path_integral_oracle(square_spec):
    # independent oracle: midpoint integration of the family derivative
    spec = square_spec
    for lam in (1.0, -1.0, np.exp(1j * np.pi / 4)):
        fam = FamilyEvaluator(spec, lam)
        z0 = 0.37 + 0.21j
        n = 4000
        ts = (np.arange(n) + 0.5) / n
        u = spinor_u(spec, ts * z0)
        phase = np.pi * dot_r2(lam * lam * spec.beta0, ts * z0)
        rot = (np.cos(phase)[:, None, None] * ID4
               + np.sin(phase)[:, None, None] * L_I)
        integrand = np.einsum("tij,tj->ti", rot,
                              u / lam * (z0 / n) + np.conj(u) * lam * np.conj(z0 / n))
        integral = integrand.real.sum(axis=0)
        assert np.max(np.abs(integral - (fam(z0) - fam(0.0)))) < 5e-7


def test_family_period_defects_off_the_lattice(square_spec):
    member = FamilyEvaluator(square_spec, np.exp(1j * np.pi / 4))
    assert max(member.period_defects.values()) > 0.1


def test_family_samples_matches_evaluators(square_spec):
    from hamstat.numerics import unit_lambdas
    lams = unit_lambdas(16)
    zs = np.array([0.15 + 0.22j, 0.8 - 0.3j])
    batch = family_samples(square_spec, zs, lams)
    for j in (0, 2, 7):
        ev = FamilyEvaluator(square_spec, lams[j])
        assert np.max(np.abs(batch[:, j] - (ev(zs) - ev(0.0)))) < 1e-10


def test_factored_family_batch_with_resonant_columns(square_spec):
    # at 128 samples the 1 x 1 standard spec has mu = 0 in columns 16, 48,
    # 80 and 112, which take the linear primitive
    from hamstat.numerics import unit_lambdas
    lams = unit_lambdas(128)
    zs = np.array([0.15 + 0.22j, 0.8 - 0.3j, -1.1 + 0.4j])
    batch = family_samples(square_spec, zs, lams)
    assert batch.shape == (3, 128, 4)
    for j, lam in enumerate(lams):
        ev = FamilyEvaluator(square_spec, lam)
        assert np.max(np.abs(batch[:, j] - (ev(zs) - ev(0.0)))) < 1e-10, j


def test_factored_family_batch_keeps_lambda_shape():
    spec = rhombic_torus().spec
    lams = np.exp(2j * np.pi * np.array([[0.1, 0.35, 0.5], [0.77, 0.9, 0.0]]))
    zs = np.array([[0.3 + 0.1j], [-0.2 + 0.6j]])
    batch = family_samples(spec, zs, lams)
    assert batch.shape == (2, 1, 2, 3, 4)
    for idx in np.ndindex(lams.shape):
        ev = FamilyEvaluator(spec, lams[idx])
        assert np.max(np.abs(batch[(..., *idx, slice(None))]
                             - (ev(zs) - ev(0.0)))) < 1e-10


def test_factored_family_batch_of_empty_spec_is_zero():
    from hamstat.numerics import unit_lambdas
    zs = np.array([0.3 + 0.1j, -0.2 + 0.6j])
    for pairs in ({}, {0.5 - 0.5j: 0.0}):
        spec = TorusSpec.build(Lattice.square(), 1 + 1j, pairs)
        got = family_samples(spec, zs, unit_lambdas(8))
        assert np.array_equal(got, np.zeros((2, 8, 4)))


def _off_circle_spec():
    """A constructor-built spec whose one frequency is off the circle
    |gamma| = |beta0| / 2, after checking that `TorusSpec.build` refuses it."""
    spec = TorusSpec(Lattice.square(), 1 + 1j, {0.3 + 0.1j: 1.0})
    with pytest.raises(ValueError, match="not in the circle set"):
        TorusSpec.build(spec.lattice, spec.beta0, spec.items())
    return spec


def test_family_evaluator_refuses_an_off_circle_frequency():
    # the deformed derivative is not closed, so no primitive exists
    spec = _off_circle_spec()
    for lam in (1.0, 1j, np.exp(0.3j)):
        with pytest.raises(ArithmeticError, match="fails closedness"):
            FamilyEvaluator(spec, lam)


def test_family_batch_refuses_an_off_circle_frequency():
    # the batch builds no phase table: the unclosed terms leave an
    # imaginary part far above its 1e-8 bound
    from hamstat.numerics import unit_lambdas
    spec = _off_circle_spec()
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        family_samples(spec, np.array([0.3 + 0.1j, -0.2 + 0.6j]),
                       unit_lambdas(8))


def test_multi_block_family_batch(square_spec):
    # 40 points at 128 samples fill five row blocks of 8; the resonant
    # columns 16, 48, 80 and 112 take the linear primitive in every block
    from hamstat import weierstrass
    from hamstat.numerics import unit_lambdas
    lams = unit_lambdas(128)
    assert weierstrass._BLOCK // (4 * len(lams)) == 8
    zs = 0.9 * np.exp(2j * np.pi * np.arange(40) / 40) + 0.1j
    batch = family_samples(square_spec, zs, lams)
    assert batch.shape == (40, 128, 4)
    for j, lam in enumerate(lams):
        ev = FamilyEvaluator(square_spec, lam)
        assert np.max(np.abs(batch[:, j] - (ev(zs) - ev(0.0)))) < 1e-10, j
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        family_samples(_off_circle_spec(), zs, lams)


def test_family_batch_residue_gate_spans_the_whole_batch(square_spec):
    # a small off-circle term leaves an imaginary residue of about 1e-7:
    # the 8 points near the basepoint, one row block, are refused on their
    # own, but in one batch with 8 far points (family values of about 4e3
    # through the resonant columns) the residue is within 1e-8 of the
    # batch's largest real value, so the batch passes
    from hamstat.numerics import unit_lambdas
    spec = TorusSpec(square_spec.lattice, square_spec.beta0,
                     {**dict(square_spec.items()), 0.3 + 0.1j: 1e-6})
    lams = unit_lambdas(128)
    near = 0.1 * np.exp(2j * np.pi * np.arange(8) / 8)
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        family_samples(spec, near, lams)
    batch = family_samples(spec, np.concatenate([near, near + 1000.0]), lams)
    assert np.max(np.abs(batch[8:])) > 1e3


def test_spec_json_round_trip(square_spec):
    text = square_spec.to_json()
    back = TorusSpec.from_json(text)
    assert back.lattice.same_lattice(square_spec.lattice)
    assert abs(back.beta0 - square_spec.beta0) < 1e-15
    zs = square_spec.lattice.grid(4)
    assert np.max(np.abs(immerse(back, zs) - immerse(square_spec, zs))) < 1e-12


@settings(max_examples=25, derandomize=True, deadline=None)
@given(rhombic=st.booleans(), slope=st.tuples(st.integers(-3, 3),
                                              st.integers(-3, 3))
       .filter(lambda nm: nm != (0, 0)), data=st.data())
def test_spec_json_round_trip_is_exact_property(rhombic, slope, data):
    lat = rhombic_torus().spec.lattice if rhombic else Lattice.square()
    dl = lat.dual()
    beta0 = slope[0] * dl.g1 + slope[1] * dl.g2
    freqs = list(enumerate_frequencies(lat, beta0))
    coeffs = data.draw(st.lists(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                           allow_infinity=False),
        min_size=len(freqs), max_size=len(freqs)))
    spec = TorusSpec.build(lat, beta0, dict(zip(freqs, coeffs)))
    back = TorusSpec.from_json(spec.to_json())
    assert back.items() == spec.items()
    assert _spec_hash(back) == _spec_hash(spec)


@pytest.mark.parametrize("shift", [0.0, 1e-12], ids=["exact", "moved-1e-12"])
def test_spec_file_sums_a_repeated_coefficient(shift):
    # read into a dict keyed by the frequency, an exact copy of a record
    # replaced the first (pi stayed pi), while a copy moved by 1e-12 was
    # summed by the merge (pi became 2 pi)
    data = standard_torus(1.0, 1.0).spec.to_dict()
    rec = data["coefficients"][0]
    copy = dict(rec, gamma=[rec["gamma"][0] + shift, rec["gamma"][1]])
    data["coefficients"].append(copy)
    (g, a), (_, b) = TorusSpec.from_dict(data).items()
    assert g == complex(*rec["gamma"])
    assert a == 2 * np.pi and b == np.pi


def test_spec_validation_rejects_off_circle():
    with pytest.raises(ValueError):
        TorusSpec.build(Lattice.square(), 1 + 1j, {0.5 + 0.5j: 1.0})


# --- separable evaluation on affine grids ---------------------------------

def _grid_specs():
    rng = np.random.default_rng(7)
    return [standard_torus(1.0, 1.0).spec, rhombic_torus().spec,
            random_spec(rng), random_spec(rng, beta0=3 + 4j, n_active=6)]


GRID_SPECS = _grid_specs()


def _evaluators(spec, lam):
    return {"immerse": lambda z: immerse(spec, z),
            "spinor_u": lambda z: spinor_u(spec, z),
            "family": FamilyEvaluator(spec, lam)}


def _loop(f, z):
    """The per-point loop: a 1-D input never takes the grid path."""
    return f(z.ravel()).reshape(z.shape + (4,))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(which=st.integers(0, len(GRID_SPECS) - 1),
       z0=st.complex_numbers(max_magnitude=2.0),
       u=st.complex_numbers(min_magnitude=1e-3, max_magnitude=0.1),
       v=st.complex_numbers(min_magnitude=1e-3, max_magnitude=0.1),
       n1=st.integers(4, 40), n2=st.integers(4, 33),
       angle=st.floats(0.0, 2 * np.pi))
def test_grid_path_matches_loop_property(which, z0, u, v, n1, n2, angle):
    z = affine_grid(z0 + np.arange(n1) * u, np.arange(n2) * v)
    assert z.affine
    for name, f in _evaluators(GRID_SPECS[which], np.exp(1j * angle)).items():
        got, want = f(z), _loop(f, z)
        assert got.shape == want.shape == (n1, n2, 4)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


def test_off_grid_input_falls_back_to_loop():
    spec = GRID_SPECS[3]
    zs = spec.lattice.grid(24) + 0.01 + 0.02j
    moved = zs.copy()
    moved[5, 7] += 1e-9
    warped = zs + 1e-3 * np.sin(2 * np.pi * zs.real)
    assert zs.affine
    assert not moved.affine and not getattr(warped, "affine", False)
    for f in _evaluators(spec, 0.6 + 0.8j).values():
        for z in (moved, warped):
            assert np.array_equal(f(z), _loop(f, z))


def test_unmarked_copy_of_a_grid_runs_the_loop():
    for spec in GRID_SPECS:
        marked = spec.lattice.grid(20) - 0.3 + 0.2j
        plain = np.array(marked)
        assert marked.affine and not getattr(plain, "affine", False)
        for name, f in _evaluators(spec, 0.6 + 0.8j).items():
            got, want = f(marked), f(plain)
            assert np.array_equal(want, _loop(f, plain)), name
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("which", range(len(GRID_SPECS)))
def test_immerse_real_sum_matches_complex_loop(which):
    # the bound is eps times the terms' scale (4/pi) sum |a| |column|, times
    # 1 + the largest phase: float64 exponentials lose about |phase| ulps
    # (see test_basis_pinned_to_high_precision), and the loop and the grid
    # take theirs at different arguments
    spec = GRID_SPECS[which]
    scale = (4 / np.pi) * sum(
        abs(a) * np.linalg.norm(_basis_column(g, spec.beta0))
        for g, a in spec.items())
    reach = max(abs(g) for g, _ in spec.items()) + abs(spec.beta0) / 2
    for z in (spec.lattice.grid(32), spec.lattice.grid(17) - 0.3 + 0.2j,
              affine_grid(np.arange(5) * 0.1, np.arange(9) * (0.02 + 0.07j))):
        got = immerse(spec, z)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        # an unmarked input runs the loop, whose complex sum is cut to its
        # real part at the end
        want = immerse(spec, np.array(z))
        phase = 2 * np.pi * reach * np.max(np.abs(z))
        bound = np.finfo(float).eps * scale * (1.0 + phase)
        assert np.max(np.abs(got - want)) <= bound
