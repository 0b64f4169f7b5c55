import numpy as np
import pytest

from hamstat.algebra import (EPS, L_I, R_I, R_J, R_K, ROTATION_BASIS,
                             from_coords, tau_rotation, tau_vector)
from hamstat.errors import SingularInput, StepSizeUnderflow
from hamstat.finitetype import (_SPILL_CHUNK, KillingField, _field_coords,
                                _lax_stage, _SpillLog, b0_basis,
                                flow_field, formal_killing, fourier_recurrence,
                                lax_flatness_residual, lax_integrate,
                                lax_project, pi_g0,
                                polynomial_condition, r_op,
                                rhombic_killing_seed,
                                standard_torus_killing_seed,
                                zeta_coefficients)
from hamstat.lattices import enumerate_frequencies
from hamstat.numerics import fd_laplacian4
from hamstat.tori import standard_torus
from hamstat.weierstrass import _mode_sum, _u_modes, immerse, spinor_u


def rand_g0c(rng):
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    return b[0] * R_I + b[1] * R_J + b[2] * R_K


# --- splitting operator -------------------------------------------------------

def test_b0_basis_stabilizes_ray():
    for b in b0_basis():
        v = b @ EPS
        ratio = np.vdot(EPS, v) / np.vdot(EPS, EPS)
        assert np.linalg.norm(v - ratio * EPS) < 1e-12
        assert abs(ratio.imag) < 1e-12
    # the expected span: i R_i + R_k, -R_i + i R_k, i R_j
    expected = [1j * R_I + R_K, -R_I + 1j * R_K, 1j * R_J]
    coords = np.stack([np.concatenate([b.real.ravel(), b.imag.ravel()])
                       for b in b0_basis()])
    for e in expected:
        vec = np.concatenate([e.real.ravel(), e.imag.ravel()])
        resid = vec - coords.T @ np.linalg.lstsq(coords.T, vec, rcond=None)[0]
        assert np.linalg.norm(resid) < 1e-10


def test_r_op_zero_and_identity(rng):
    assert np.max(np.abs(r_op(np.zeros((4, 4))))) == 0.0
    for _ in range(100):
        zeta = rand_g0c(rng)
        r = r_op(zeta)
        # defining 1-form identity, evaluated on the two coordinate directions
        assert np.max(np.abs(pi_g0(zeta) - (r + np.conj(r)))) < 1e-12
        assert np.max(np.abs(pi_g0(1j * zeta) - 1j * (r - np.conj(r)))) < 1e-12
        # projection lands in the real span
        for basis_vec in (R_I, R_J, R_K):
            coeff = np.trace(basis_vec.T @ pi_g0(zeta)) / 4.0
            assert abs(coeff.imag) < 1e-12


def test_r_op_real_linearity(rng):
    z1, z2 = rand_g0c(rng), rand_g0c(rng)
    for s, t in ((2.0, -0.5), (0.3, 1.7)):
        lhs = r_op(s * z1 + t * z2)
        rhs = s * r_op(z1) + t * r_op(z2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_r_op_kills_stabilizer_directions():
    for b in b0_basis():
        assert np.max(np.abs(pi_g0(b))) < 1e-12


# --- Killing field container -----------------------------------------------------

def test_killing_field_serialization():
    seed = standard_torus_killing_seed(1.0, 1.0).field
    back = KillingField.from_json(seed.to_json())
    assert back.d == seed.d
    assert np.max(np.abs(back.rot - seed.rot)) < 1e-15
    assert np.max(np.abs(back.trans - seed.trans)) < 1e-15


def test_killing_field_from_dict_zero_fills_sparse_records():
    rec = [{"k": 1, "rotation": [[[0.5, -1.0]] * 4] * 4,
            "translation": [[2.0, 0.25]] * 4},
           {"k": -2, "rotation": [[[1.0, 0.0]] * 4] * 4,
            "translation": [[0.0, -3.0]] * 4}]
    f = KillingField.from_dict({"degree": 2, "coefficients": rec})
    assert f.d == 2 and list(f.ks) == [-2, -1, 0, 1, 2]
    assert np.all(f.coeff(1)[0] == 0.5 - 1.0j)
    assert np.all(f.coeff(1)[1] == 2.0 + 0.25j)
    assert np.all(f.coeff(-2)[0] == 1.0) and np.all(f.coeff(-2)[1] == -3.0j)
    for k in (-1, 0, 2):
        rot, trans = f.coeff(k)
        assert np.all(rot == 0) and np.all(trans == 0)


def test_killing_field_rejects_wrong_coefficient_count():
    with pytest.raises(ValueError):
        KillingField(2, np.zeros((4, 4, 4)), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        KillingField(2, np.zeros((5, 4, 4)), np.zeros((6, 4)))


def test_killing_field_residuals_match_dense_formulas(rng):
    d = 3
    rot = rng.normal(size=(2 * d + 1, 4, 4)) + 1j * rng.normal(size=(2 * d + 1, 4, 4))
    trans = rng.normal(size=(2 * d + 1, 4)) + 1j * rng.normal(size=(2 * d + 1, 4))
    f = KillingField(d, rot, trans)

    # the dense-layout formulas: twist over -d..d, reality over 0..d
    twist = 0.0
    for k in range(-d, d + 1):
        r, t = rot[k + d], trans[k + d]
        w = 1j ** (k % 4)
        twist = max(twist, float(np.max(np.abs(tau_rotation(r) - w * r))),
                    float(np.max(np.abs(tau_vector(t) - w * t))))
    reality = 0.0
    for k in range(0, d + 1):
        reality = max(reality,
                      float(np.max(np.abs(np.conj(rot[k + d]) - rot[-k + d]))),
                      float(np.max(np.abs(np.conj(trans[k + d]) - trans[-k + d]))))
    assert f.twist_residual() == twist > 0
    assert f.reality_residual() == reality > 0


def test_flow_field_leaves_input_unchanged():
    field = rhombic_killing_seed().field
    rot, trans = field.rot.copy(), field.trans.copy()
    moved = flow_field(field, 0.0, 0.05 + 0.02j, step=0.01)
    assert np.array_equal(field.rot, rot) and np.array_equal(field.trans, trans)
    assert not np.array_equal(moved.trans, trans)


def test_flow_field_step_underflow():
    field = standard_torus_killing_seed(1.0, 1.0).field
    with pytest.raises(StepSizeUnderflow):
        flow_field(field, 0, 1, step=1e-20)


# --- reference per-exponent Lax flow -------------------------------------------

def _reference_rhs(rot, trans, zdot, pad_report):
    """Per-exponent form of the Lax derivative: the projected connection
    (lam^-2, lam^-1 and r at lam^0) and its conjugate give the multiplier
    at exponents -2..2; each exponent is bracketed with the whole field."""
    def r_ref(zeta):
        return 0.5 * (pi_g0(zeta) - 1j * pi_g0(1j * zeta))

    proj = {-2: (rot[0], trans[0]), -1: (rot[1], trans[1]),
            0: (r_ref(rot[2]), np.zeros(4, dtype=complex))}
    mrot = np.zeros((5, 4, 4), dtype=complex)
    mtrans = np.zeros((5, 4), dtype=complex)
    for k in (-2, -1, 0):
        r, t = proj[k]
        mrot[k + 2] += zdot * r
        mtrans[k + 2] += zdot * t
        mrot[-k + 2] += np.conj(zdot) * np.conj(r)
        mtrans[-k + 2] += np.conj(zdot) * np.conj(t)
    n = rot.shape[0]
    out_rot = np.zeros((n + 4, 4, 4), dtype=complex)
    out_trans = np.zeros((n + 4, 4), dtype=complex)
    for j in range(5):
        out_rot[j:j + n] += rot @ mrot[j] - mrot[j] @ rot
        out_trans[j:j + n] += (np.einsum("kij,j->ki", rot, mtrans[j])
                               - np.einsum("ij,kj->ki", mrot[j], trans))
    pad_report.append(max(np.max(np.abs(out_rot[:2])),
                          np.max(np.abs(out_rot[-2:])),
                          np.max(np.abs(out_trans[:2])),
                          np.max(np.abs(out_trans[-2:]))))
    return out_rot[2:-2], out_trans[2:-2]


def _reference_flow(field, z_from, z_to, step):
    """RK4 with the per-exponent derivative and the same step rule."""
    seg = complex(z_to) - complex(z_from)
    nsteps = max(1, int(np.ceil(abs(seg) / step)))
    h = abs(seg) / nsteps
    zdot = seg / abs(seg)
    rot, trans, pad = field.rot, field.trans, []
    for _ in range(nsteps):
        r1, t1 = _reference_rhs(rot, trans, zdot, pad)
        r2, t2 = _reference_rhs(rot + 0.5 * h * r1, trans + 0.5 * h * t1,
                                zdot, pad)
        r3, t3 = _reference_rhs(rot + 0.5 * h * r2, trans + 0.5 * h * t2,
                                zdot, pad)
        r4, t4 = _reference_rhs(rot + h * r3, trans + h * t3, zdot, pad)
        rot = rot + (h / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
        trans = trans + (h / 6.0) * (t1 + 2 * t2 + 2 * t3 + t4)
    return rot, trans, pad


def test_affine_derivative_matches_per_exponent_loop(rng):
    for _ in range(20):
        zeta = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        want = 0.5 * (pi_g0(zeta) - 1j * pi_g0(1j * zeta))
        assert np.max(np.abs(r_op(zeta) - want)) < 1e-14
    # the flow runs on u(2) (x) C |x C^4: a gl(4) rotation is refused
    d = 6
    rot = rng.normal(size=(2 * d + 1, 4, 4)) + 1j * rng.normal(size=(2 * d + 1, 4, 4))
    trans = rng.normal(size=(2 * d + 1, 4)) + 1j * rng.normal(size=(2 * d + 1, 4))
    with pytest.raises(SingularInput, match="exponent -6 "):
        flow_field(KillingField(d, rot, trans), 0.0, 0.1, step=0.01)
    with pytest.raises(SingularInput, match="exponent -6 "):
        lax_integrate(KillingField(d, rot, trans), [0.1], step=0.01)
    for _ in range(20):
        rot = from_coords(rng.normal(size=(2 * d + 1, 4))
                          + 1j * rng.normal(size=(2 * d + 1, 4)), ROTATION_BASIS)
        trans = rng.normal(size=(2 * d + 1, 4)) + 1j * rng.normal(size=(2 * d + 1, 4))
        assert np.all(trans != 0)
        x = _field_coords(KillingField(d, rot, trans))
        scale = max(np.max(np.abs(rot)), np.max(np.abs(trans)))
        for zdot in (1.0, np.exp(0.7j)):
            want_pad, got_pad = [], []
            want_rot, want_trans = _reference_rhs(rot, trans, zdot, want_pad)
            spill = _SpillLog(got_pad)
            got = _lax_stage(2 * d + 1, zdot, spill)(x)
            spill.flush()
            got_rot = from_coords(got[:, :4], ROTATION_BASIS)
            assert np.max(np.abs(got_rot - want_rot)) < 1e-13 * scale
            assert np.max(np.abs(got[:, 4:] - want_trans)) < 1e-13 * scale
            assert len(got_pad) == 1
            assert abs(got_pad[0] - want_pad[0]) <= 1e-15 * want_pad[0]


def test_spill_chunk_boundary():
    # three full chunks of stage rows plus one RK step (four stages) on an
    # algebra-valued field that is not real, so the spill is O(1) and its
    # largest value falls in the last, partial chunk
    rng = np.random.default_rng(2)
    d = 2
    rot = from_coords(rng.normal(size=(2 * d + 1, 4))
                      + 1j * rng.normal(size=(2 * d + 1, 4)), ROTATION_BASIS)
    trans = rng.normal(size=(2 * d + 1, 4)) + 1j * rng.normal(size=(2 * d + 1, 4))
    field = KillingField(d, rot, trans)
    nsteps = 3 * _SPILL_CHUNK // 4 + 1
    step = 0.2 / nsteps * (1 + 1e-12)
    diag = []
    flow_field(field, 0.0, 0.2, step, diag)
    res = lax_integrate(field, [0.2], step=step)
    assert res.steps == nsteps and len(diag) == 4 * nsteps
    assert np.argmax(diag) >= 3 * _SPILL_CHUNK
    assert res.max_spill == max(diag)
    _, _, pad = _reference_flow(field, 0.0, 0.2, step)
    assert np.allclose(diag, pad, rtol=1e-12, atol=0)


@pytest.mark.parametrize("make_seed", [
    lambda: standard_torus_killing_seed(1.0, 1.0), rhombic_killing_seed],
    ids=["standard", "rhombic"])
def test_flow_field_matches_reference_rk4(make_seed):
    seed = make_seed()
    lat = seed.spec.lattice
    z_to = 0.05 * lat.g1 + 0.03 * lat.g2
    step = lat.diameter() / 2048.0
    diag = []
    got = flow_field(seed.field, 0.0, z_to, step, diag)
    rot, trans, pad = _reference_flow(seed.field, 0.0, z_to, step)
    assert np.max(np.abs(got.rot - rot)) < 1e-12
    assert np.max(np.abs(got.trans - trans)) < 1e-12
    assert len(diag) == len(pad) and max(diag) < 1e-12
    res = lax_integrate(seed.field, [z_to], step=step)
    d = seed.field.d
    assert res.steps == int(np.ceil(abs(z_to) / step))
    assert res.coefficient_drift(-d) <= 1e-15
    assert res.even_coefficient_drift() <= 1e-15
    assert res.isospectral_drift() <= 1e-15


def test_seed_structure_standard():
    seed = standard_torus_killing_seed(1.0, 1.0)
    f = seed.field
    assert f.d == 2
    assert f.twist_residual() < 1e-12
    assert f.reality_residual() < 1e-12
    a_top = np.pi * np.conj(seed.spec.beta0) / 2
    rot, tr = f.coeff(-2)
    assert np.max(np.abs(rot - a_top * L_I)) < 1e-12 and np.max(np.abs(tr)) < 1e-15
    rot0, tr0 = f.coeff(0)
    assert np.max(np.abs(rot0)) < 1e-15 and np.max(np.abs(tr0)) < 1e-15
    _, u0 = f.coeff(-1)
    assert np.max(np.abs(u0 - spinor_u(seed.spec, 0.0))) < 1e-12


def test_lax_project_matches_spinor_form():
    seed = standard_torus_killing_seed(1.0, 1.0)
    proj = lax_project(seed.field)
    a_top = np.pi * np.conj(seed.spec.beta0) / 2
    assert np.max(np.abs(proj[-2][0] - a_top * L_I)) < 1e-12
    assert np.max(np.abs(proj[-1][1] - spinor_u(seed.spec, 0.0))) < 1e-12
    assert np.max(np.abs(proj[0][0])) < 1e-12    # no compact component here


def test_lax_project_top_only_field():
    d = 2
    rot = np.zeros((5, 4, 4), dtype=complex)
    trans = np.zeros((5, 4), dtype=complex)
    rot[0] = (1.3 - 0.4j) * L_I
    rot[4] = np.conj(rot[0])
    f = KillingField(d, rot, trans)
    proj = lax_project(f)
    assert np.max(np.abs(proj[-1][0])) == 0 and np.max(np.abs(proj[-1][1])) == 0
    assert np.max(np.abs(proj[0][0])) < 1e-15
    # flow of such a field is constant: all brackets vanish
    moved = flow_field(f, 0.0, 0.3 + 0.4j, step=0.01)
    assert np.max(np.abs(moved.rot - f.rot)) < 1e-14
    assert np.max(np.abs(moved.trans - f.trans)) < 1e-14


@pytest.fixture(scope="module")
def standard_flow():
    seed = standard_torus_killing_seed(1.0, 1.0)
    lat = seed.spec.lattice
    n = 8
    path = [i / n * lat.g1 for i in range(1, n + 1)]
    path += [lat.g1 + i / n * lat.g2 for i in range(1, n + 1)]
    return seed, lax_integrate(seed.field, path, lattice=lat)


def test_standard_flow_invariants(standard_flow):
    seed, res = standard_flow
    assert res.max_spill < 1e-12
    assert res.coefficient_drift(-2) < 1e-12
    assert res.even_coefficient_drift() < 1e-10
    assert res.isospectral_drift() < 1e-8
    for f in res.fields:
        assert f.twist_residual() < 1e-9
        assert f.reality_residual() < 1e-9


def test_standard_flow_reproduces_spinor_field(standard_flow):
    seed, res = standard_flow
    worst = 0.0
    for z, f in zip(res.points, res.fields):
        _, u = f.coeff(-1)
        worst = max(worst, float(np.max(np.abs(u - spinor_u(seed.spec, z)))))
    assert worst < 1e-9


def test_standard_flow_surface_agreement():
    # the flowed data integrates (through the linear construction) to the
    # golden torus, expressed in the rotated coordinate
    seed = standard_torus_killing_seed(1.0, 1.0)
    golden = standard_torus(1.0, 1.0)
    ws = seed.spec.lattice.grid(6) + 0.01 + 0.03j
    got = immerse(seed.spec, ws)
    want = golden.closed_form(seed.rotation * ws)
    assert np.max(np.abs(got - want)) < 1e-12


def test_rhombic_seed_and_flow():
    seed = rhombic_killing_seed()
    assert seed.field.d == 6
    lat = seed.spec.lattice
    path = [i / 6 * lat.g1 for i in range(1, 7)]
    res = lax_integrate(seed.field, path, lattice=lat)
    assert res.coefficient_drift(-6) < 1e-12
    assert res.even_coefficient_drift() < 1e-10
    assert res.isospectral_drift() < 1e-8
    worst = 0.0
    for z, f in zip(res.points, res.fields):
        _, u = f.coeff(-5)
        worst = max(worst, float(np.max(np.abs(u - spinor_u(seed.spec, z)))))
    assert worst < 1e-9
    # no Fourier exponent 0 mod 4 except the end coefficients
    for k in (-4, 0, 4):
        rot, tr = seed.field.coeff(k)
        assert np.max(np.abs(rot)) < 1e-15 and np.max(np.abs(tr)) < 1e-15


def test_lax_curvature_residual():
    seed = standard_torus_killing_seed(1.0, 1.0)
    xi = flow_field(seed.field, 0.0, 0.31 + 0.17j, step=1e-3)
    for lam in (1.0, np.exp(0.4j)):
        assert lax_flatness_residual(xi, lam) < 1e-6


# --- formal series ---------------------------------------------------------------

@pytest.fixture(scope="module")
def standard_formal():
    spec = standard_torus(1.0, 1.0).spec
    u_modes = _u_modes(spec)
    a = np.pi * np.conj(spec.beta0) / 2
    return spec, u_modes, a, formal_killing(u_modes, a, n_coeffs=24)


def test_formal_killing_w2_vanishes_exactly(standard_formal):
    _, _, _, ws = standard_formal
    assert np.all(ws[2][1] == 0)


def test_formal_killing_adapted_leading_terms(standard_formal):
    spec, u_modes, a, ws = standard_formal
    zetas = zeta_coefficients(ws, u_modes, a)
    z0 = 0.23 + 0.41j
    # order 0 translation cancels; order 1 reproduces the spinor field
    assert np.max(np.abs(_mode_sum(*zetas[0], z0))) < 1e-12
    assert np.max(np.abs(_mode_sum(*zetas[1], z0) - spinor_u(spec, z0))) < 1e-12
    assert np.max(np.abs(_mode_sum(*zetas[2], z0))) < 1e-12


def test_formal_killing_elliptic_equation(standard_formal):
    spec, _, _, ws = standard_formal
    k2 = np.pi ** 2 * abs(spec.beta0) ** 2
    zs = spec.lattice.grid(3) + 0.07 + 0.11j
    h = 1e-3
    for w in ws:
        def f(z, w=w):
            return _mode_sum(*w, z)

        resid = 0.25 * fd_laplacian4(f, zs, h) + 0.25 * k2 * f(zs)
        # (d^2/dz dzbar + |a|^2) psi = Lap/4 + pi^2|beta0|^2/4 psi
        assert np.max(np.abs(resid)) < 1e-6


def test_formal_killing_antiholomorphic_equation(standard_formal):
    # coefficientwise (0,1)-equation of the adapted series
    spec, u_modes, a, ws = standard_formal
    zetas = zeta_coefficients(ws, u_modes, a)

    def dzbar(table):
        freqs, vecs = table
        return freqs, 1j * np.pi * freqs[:, None] * vecs

    z0 = 0.19 - 0.23j
    ubar_at = np.conj(spinor_u(spec, z0))
    for n in range(1, 20):
        lhs = _mode_sum(*dzbar(zetas[n]), z0)
        # bracket with (lam^2 abar L_i, lam ubar): translation parts only
        rhs = np.zeros(4, dtype=complex)
        if n == 0:
            rhs += a * 0
        if n - 1 >= 0:
            # [ (aL_i, .), (0, ubar) ] contributes a L_i ubar at order n for n-1 = rot order 0
            pass
        # zeta rotation sits at order 0 only: contributes [rot, lam ubar] at n = 1
        if n == 1:
            rhs += a * (L_I @ ubar_at)
        # translation orders n-2 bracket against lam^2 abar L_i
        if n - 2 >= 0:
            rhs -= np.conj(a) * (L_I @ _mode_sum(*zetas[n - 2], z0))
        assert np.max(np.abs(lhs - rhs)) < 1e-10, n


# --- scalar recurrences -----------------------------------------------------------

def test_fourier_recurrence_genus_zero_closure():
    beta0 = 2.0
    ok = fourier_recurrence(beta0, {}, {1j: 1.0, -1j: 0.5}, 0)
    assert all(v["ok"] for v in ok.values())
    bad = fourier_recurrence(beta0, {}, {1.0: 1.0}, 0)
    assert not bad[1.0]["ok"]


def test_fourier_recurrence_geometric_chain(rng):
    beta0 = 2.0 + 0j
    gamma = 1j
    p = 2
    cs = {q: 0.0 for q in range(-p, p)}
    rep = fourier_recurrence(beta0, cs, {gamma: 1.5 - 0.5j}, p)
    chain = rep[gamma]["chain"]
    ratio = (2 * np.conj(gamma) / np.conj(beta0)) ** 2
    for j, val in enumerate(chain):
        assert abs(val - (1.5 - 0.5j) * ratio ** j) < 1e-12


def test_recurrence_closure_iff_polynomial_root(rng):
    beta0 = 2.0 + 0j
    p = 1
    gamma0 = np.exp(0.37j) * abs(beta0) / 2     # circle point to be forced
    c0 = complex(rng.normal(), rng.normal())
    # solve for c_{-1} so gamma0 is a polynomial root
    base, _ = polynomial_condition(beta0, {-1: 0.0, 0: c0}, p)
    unit, _ = polynomial_condition(beta0, {-1: 1.0, 0: c0}, p)
    val0 = np.polynomial.polynomial.polyval(gamma0, base)
    slope = np.polynomial.polynomial.polyval(gamma0, unit - base)
    cm1 = -val0 / slope
    cs = {-1: cm1, 0: c0}
    coeffs, roots = polynomial_condition(beta0, cs, p)
    assert min(abs(roots - gamma0)) < 1e-9
    rep = fourier_recurrence(beta0, cs, {gamma0: 1.0}, p)
    assert rep[gamma0]["ok"]
    # a generic circle point off the root set fails the closure
    other = np.exp(1.1j) * abs(beta0) / 2
    rep2 = fourier_recurrence(beta0, cs, {other: 1.0}, p)
    assert not rep2[other]["ok"]


def test_polynomial_condition_genus_zero():
    for beta0 in (2.0, 1 + 1j, -np.sqrt(2)):
        coeffs, roots = polynomial_condition(beta0, {}, 0)
        want = abs(beta0) / 2
        assert len(roots) == 2
        assert min(abs(roots - 1j * want)) < 1e-12
        assert min(abs(roots + 1j * want)) < 1e-12


def test_polynomial_condition_degree_and_membership():
    cs = {-1: 2.0 + 0j, 0: 2.0 + 0j}
    coeffs, roots = polynomial_condition(2.0, cs, 1)
    assert len(roots) == 6
    # roots pair up and include the hexagonal frequencies
    from hamstat.tori import rhombic_torus
    spec = rhombic_torus().spec
    fs = enumerate_frequencies(spec.lattice, 2.0)
    for g in fs:
        assert min(abs(roots - g)) < 1e-9
    # square-lattice genus-zero cross-check
    from hamstat.lattices import Lattice
    _, r2 = polynomial_condition(2.0, {}, 0)
    fs2 = enumerate_frequencies(Lattice.square(), 2.0)
    for g in fs2:
        assert min(abs(r2 - g)) < 1e-12
