import json
import tracemalloc

import numpy as np
import pytest

from conftest import fd_laplacian4
from hamstat.algebra import (EPS, G0_BASIS, L_I, L_J, R_I, R_J, R_K,
                             ROTATION_BASIS, coords, from_coords)
from hamstat.errors import ConvergenceFailure, SingularInput, StepSizeUnderflow
from hamstat.finitetype import (_BRACKET_RE, _MULT_1, _MULT_I, _REACH, _ROOTS,
                                KillingField, _field_coords, _flow_coords,
                                _lax_taylor, flow_field, formal_killing,
                                lax_flatness_residual, lax_integrate,
                                lax_project, polynomial_condition, r_op,
                                rhombic_killing_seed,
                                standard_torus_killing_seed)
from hamstat.lattices import enumerate_frequencies
from hamstat.tori import standard_torus
from hamstat.weierstrass import _mode_sum, _u_modes, immerse, spinor_u


def rand_g0c(rng):
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    return b[0] * R_I + b[1] * R_J + b[2] * R_K


# --- splitting operator -------------------------------------------------------

def b0_basis() -> np.ndarray:
    """Real basis (3 x 4 x 4 complex) of the ray-stabilizer subalgebra."""
    return np.stack([1j * R_I + R_K, -R_I + 1j * R_K, 1j * R_J])


def pi_g0(zeta) -> np.ndarray:
    """Projection of a complexified compact-type element onto the real part
    along the ray-stabilizer subalgebra."""
    r = r_op(zeta)
    return r + np.conj(r)


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


def _reference_splitting():
    """The splitting from its definition: b0 is the nullspace of the
    real-linear map zeta -> (zeta.eps modulo R.eps) on the 6 real coordinates
    (Re b, Im b) of zeta = sum b_a R_a, and pi keeps the span_R(R_a) part of
    zeta in g0^C = span_R(R_a) + b0.  Returns b0's basis and pi."""
    units = from_coords(np.r_[np.eye(3), 1j * np.eye(3)], G0_BASIS)
    v = units @ EPS                                           # 6 x 4
    ray = np.r_[EPS.real, EPS.imag] / np.linalg.norm(EPS)
    system = (np.eye(8) - np.outer(ray, ray)) @ np.c_[v.real, v.imag].T
    _, s, vt = np.linalg.svd(system)
    assert np.sum(s > 1e-10) == 3
    null = vt[3:]
    solve = np.linalg.inv(np.r_[np.eye(6)[:3], null].T)

    def pi(zeta):
        b = coords(zeta, G0_BASIS)
        return from_coords((solve @ np.r_[b.real, b.imag])[:3] + 0j, G0_BASIS)
    return np.einsum("bk,kij->bij", null, units), pi


def test_splitting_matches_its_definition(rng):
    ref_basis, ref_pi = _reference_splitting()
    both = np.stack([np.r_[b.real.ravel(), b.imag.ravel()]
                     for b in np.concatenate([b0_basis(), ref_basis])])
    assert np.linalg.matrix_rank(both, tol=1e-10) == 3
    # components off g0 included: both drop them
    for _ in range(100):
        zeta = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        want = 0.5 * (ref_pi(zeta) - 1j * ref_pi(1j * zeta))
        assert np.max(np.abs(r_op(zeta) - want)) < 1e-15


def test_pi_g0_fixes_the_real_form_and_r_op_is_complex_linear(rng):
    # with pi(b0) = 0 and a real image, these fix pi uniquely
    for _ in range(20):
        x = from_coords(rng.normal(size=3), G0_BASIS)
        assert np.max(np.abs(pi_g0(x) - x)) < 1e-15
        zeta = rand_g0c(rng)
        assert np.max(np.abs(r_op(1j * zeta) - 1j * r_op(zeta))) < 1e-15


# --- Killing field container -----------------------------------------------------

def test_killing_field_serialization():
    seed = standard_torus_killing_seed(1.0, 1.0).field
    back = KillingField.from_dict(json.loads(seed.to_json()))
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


@pytest.mark.parametrize("key, value", [
    ("degree", True), ("degree", "2"), ("k", True), ("k", -0.5),
    ("k", float("-inf")), ("k", 0.9), ("k", float("nan")), ("k", "0")])
def test_killing_field_from_dict_rejects_non_integer(key, value):
    # int() read true as 1, truncated -0.5 and 0.9 onto exponent 0, and
    # raised OverflowError on an infinity; an integral float is an integer
    rec = {"k": 0, "rotation": [[[0.0, 0.0]] * 4] * 4,
           "translation": [[1.0, 0.0]] * 4}
    data = {"degree": 1, "coefficients": [rec]}
    assert KillingField.from_dict(data).d == 1
    four = KillingField.from_dict({"degree": 4,
                                   "coefficients": [{**rec, "k": 4.0}]})
    assert np.all(four.coeff(4)[1] == 1.0) and np.all(four.coeff(0)[1] == 0.0)
    if key == "k":
        rec[key] = value
    else:
        data[key] = value
    with pytest.raises(ValueError, match="is not an integer"):
        KillingField.from_dict(data)


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

    # the dense-layout formulas, reality over 0..d, and twist over -d..d:
    # the distance from the twisted loop of the E+ halves, whose lam^k
    # rotation is diag(C, i^-k C) in the frame (E+, L_j E+), C = 0 at odd k,
    # and translation is E+ q + i^k L_j E+ q, q = 0 at even k
    e_plus = np.array([[1, 0], [-1j, 0], [0, 1], [0, -1j]]) / np.sqrt(2.0)
    frame = np.concatenate([e_plus, L_J @ e_plus], axis=1)
    rot_off = trans_off = 0.0
    for k in range(-d, d + 1):
        r, t = rot[k + d], trans[k + d]
        c = e_plus.conj().T @ r @ e_plus * (k % 2 == 0)
        q = e_plus.conj().T @ t * (k % 2 == 1)
        blocks = np.zeros((4, 4), dtype=complex)
        blocks[:2, :2], blocks[2:, 2:] = c, 1j ** -k * c
        rot_off += np.max(np.abs(r - frame @ blocks @ frame.conj().T))
        trans_off += np.max(np.abs(t - frame @ np.r_[q, 1j ** k * q]))
    twist = max(rot_off, trans_off)
    reality = 0.0
    for k in range(0, d + 1):
        reality = max(reality,
                      float(np.max(np.abs(np.conj(rot[k + d]) - rot[-k + d]))),
                      float(np.max(np.abs(np.conj(trans[k + d]) - trans[-k + d]))))
    assert f.twist_residual() == pytest.approx(twist, rel=1e-14) and twist > 0
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


def test_flow_field_step_budget():
    # across the lattice the standard seed's coefficients ask for steps of
    # about a quarter of |g2|: a floor of |g2| refuses the flow
    seed = standard_torus_killing_seed(1.0, 1.0)
    g2 = seed.spec.lattice.g2
    with pytest.raises(ConvergenceFailure, match="steps below"):
        flow_field(seed.field, 0.0, 4 * g2, step=abs(g2))
    res = lax_integrate(seed.field, [4 * g2], step=abs(g2) / 8)
    assert 8 < res.steps <= 32


@pytest.mark.parametrize("tilt, moves", [(0.0, False), (1e-13, True)],
                         ids=["real-axis", "tilted-1e-13"])
def test_flow_tells_a_stationary_step_from_rounding(tilt, moves):
    # along the real axis the standard seed's field does not move, and its
    # x_1 is rounding well below 64 eps of |shifted(x)| @ |block(x)|: one
    # step covers 0 -> 80 and leaves x as it was (read as decay, the
    # rounding takes 25).  Tilted by 1e-13 rad, x_1 sits a few hundred ulps
    # of that bound above it, and the radius rule runs
    seed = standard_torus_killing_seed(1.0, 1.0)
    x = _field_coords(seed.field)
    zdot = np.exp(1j * tilt)
    sx, blk = _window_and_block(x, zdot)
    bound = np.abs(sx) @ np.abs(blk) * np.finfo(float).eps
    ulps = np.max(np.abs(sx @ blk)[bound > 0] / bound[bound > 0])
    assert np.all(np.abs(sx @ blk)[bound == 0] == 0)
    moved, steps, spill = _flow_coords(_lax_taylor(len(x)), x.copy(), 0.0,
                                       80 * zdot, 1e-3)
    if moves:
        assert 64 < ulps < 1000 and steps > 1
    else:
        assert ulps < 1 and steps == 1 and spill == 0.0
        assert np.array_equal(moved, x)


# --- reference per-exponent Lax flow -------------------------------------------

def _aimed_orders(n, zdot):
    """The orders of a fresh `_lax_taylor` plan, aimed along zdot as
    `_flow_coords` aims a segment."""
    orders, rmt, _ = _lax_taylor(n)
    np.add(zdot.real * _MULT_1, zdot.imag * _MULT_I, out=rmt)
    return orders


def _window_and_block(x, zdot):
    """shifted(pad x), (n + 4, 80), and block(x), (80, 16), of a Lax plan's
    first order along zdot: their product is x's derivative."""
    n = len(x)
    window = np.r_[2:n + 2, 0, 1, n + 2, n + 3][:, None] + 4 - np.arange(5)
    sx = np.pad(x.view(float), ((4, 4), (0, 0)))[window].reshape(n + 4, 80)
    g = x[:3].view(float).reshape(48) @ (zdot.real * _MULT_1 + zdot.imag * _MULT_I)
    return sx, (g.reshape(5, 16) @ _BRACKET_RE).reshape(80, 16)


def _reference_rhs(rot, trans, zdot):
    """Per-exponent form of the Lax derivative: the projected connection
    (lam^-2, lam^-1 and r at lam^0) and its conjugate give the multiplier
    at exponents -2..2; each exponent is bracketed with the whole field.
    Returns the rotations and translations at exponents -d-2..d+2."""
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
    return out_rot, out_trans


def _reference_flow(field, z_from, z_to, step):
    """RK4 with the per-exponent derivative at a fixed step."""
    seg = complex(z_to) - complex(z_from)
    nsteps = max(1, int(np.ceil(abs(seg) / step)))
    h = abs(seg) / nsteps
    zdot = seg / abs(seg)

    def rhs(rot, trans):
        r, t = _reference_rhs(rot, trans, zdot)
        return r[2:-2], t[2:-2]

    rot, trans = field.rot, field.trans
    for _ in range(nsteps):
        r1, t1 = rhs(rot, trans)
        r2, t2 = rhs(rot + 0.5 * h * r1, trans + 0.5 * h * t1)
        r3, t3 = rhs(rot + 0.5 * h * r2, trans + 0.5 * h * t2)
        r4, t4 = rhs(rot + h * r3, trans + h * t3)
        rot = rot + (h / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
        trans = trans + (h / 6.0) * (t1 + 2 * t2 + 2 * t3 + t4)
    return rot, trans


def _random_algebra_field(rng, d):
    rot = from_coords(rng.normal(size=(2 * d + 1, 4))
                      + 1j * rng.normal(size=(2 * d + 1, 4)), ROTATION_BASIS)
    trans = rng.normal(size=(2 * d + 1, 4)) + 1j * rng.normal(size=(2 * d + 1, 4))
    return KillingField(d, rot, trans)


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
    # the form's rows: exponents -d..d, then the padding -d-2, -d-1, d+1, d+2
    rows = np.r_[2:2 * d + 3, 0, 1, 2 * d + 3, 2 * d + 4]
    for _ in range(20):
        f0, f1 = _random_algebra_field(rng, d), _random_algebra_field(rng, d)
        assert np.all(f0.trans != 0)
        x0, x1 = _field_coords(f0), _field_coords(f1)
        scale = [max(np.max(np.abs(f.rot)), np.max(np.abs(f.trans)))
                 for f in (f0, f1)]
        for zdot in (1.0, np.exp(0.7j)):
            def form(x, y):
                return (_window_and_block(x, zdot)[0]
                        @ _window_and_block(y, zdot)[1]).view(complex)
            got = form(x0, x0)
            assert np.array_equal(_aimed_orders(2 * d + 1, zdot)(x0)[1][0], got)
            want_rot, want_trans = _reference_rhs(f0.rot, f0.trans, zdot)
            got_rot = from_coords(got[:, :4], ROTATION_BASIS)
            assert np.max(np.abs(got_rot - want_rot[rows])) < 1e-13 * scale[0]
            assert (np.max(np.abs(got[:, 4:] - want_trans[rows]))
                    < 1e-13 * scale[0])
            # two coefficients: B(x0, x1) + B(x1, x0) by polarization
            q = [np.concatenate([coords(r, ROTATION_BASIS), t], axis=1)
                 for r, t in (_reference_rhs(f.rot, f.trans, zdot)
                              for f in (f0, f1, KillingField(
                                  d, f0.rot + f1.rot, f0.trans + f1.trans)))]
            cross = form(x0, x1) + form(x1, x0)
            assert (np.max(np.abs(cross - (q[2] - q[0] - q[1])[rows]))
                    < 1e-13 * max(scale))


def test_taylor_orders_sum_the_polarized_derivative(rng):
    # each order of one step sums B(x_j, x_{k-j}) from the cached blocks and
    # windows of the coefficients; B is the polarization of the per-exponent
    # derivative Q.  The polarization loses eps max(|a|, |b|)^2, so the field
    # is scaled until the step's sixteen coefficients stay near 1
    d, zdot = 6, np.exp(0.7j)
    f = _random_algebra_field(rng, d)
    x0 = _field_coords(KillingField(d, 0.2 * f.rot, 0.2 * f.trans))
    xs, prods = _aimed_orders(2 * d + 1, zdot)(x0)
    assert 0.1 < np.min(np.abs(xs).max(axis=(1, 2))) <= np.max(np.abs(xs)) < 2
    rows = np.r_[2:2 * d + 3, 0, 1, 2 * d + 3, 2 * d + 4]

    def q(x):
        r, t = _reference_rhs(from_coords(x[:, :4], ROTATION_BASIS), x[:, 4:],
                              zdot)
        return np.concatenate([coords(r, ROTATION_BASIS), t], axis=1)[rows]
    for k in range(16):
        want = sum(0.5 * (q(xs[j] + xs[k - j]) - q(xs[j]) - q(xs[k - j]))
                   for j in range(k + 1))
        scale = np.max(np.abs(xs[:k + 1])) ** 2
        assert np.max(np.abs(prods[k] - want)) < 1e-13 * scale
        assert np.array_equal(xs[k + 1], prods[k, :2 * d + 1] / (k + 1))


@pytest.mark.parametrize("make_seed", [
    lambda: standard_torus_killing_seed(1.0, 1.0), rhombic_killing_seed],
    ids=["standard", "rhombic"])
def test_taylor_orders_pinned_to_40_digits(make_seed):
    # orders 0..4 of one step along e^0.7i by the same recurrence at 40
    # digits: the tables' nonzero entries are small integers and the seed's
    # rows are read as exact binary values.  Each order keeps to 8 eps of its
    # scale, the largest entry of sum_j |window_j| @ |block_{k-j}|; both seeds
    # read at most 1.6 eps
    mpmath = pytest.importorskip("mpmath")
    x0 = _field_coords(make_seed().field)
    n = len(x0)
    _, prods = _aimed_orders(n, np.exp(0.7j))(x0)
    # the field row that slot s of window row m reads (padding outside 0..n-1)
    reads = np.r_[2:n + 2, 0, 1, n + 2, n + 3][:, None] - np.arange(5)
    with mpmath.workdps(40):
        cos, sin = mpmath.cos(0.7), mpmath.sin(0.7)
        mult = [[(i, cos * a + sin * b) for i, (a, b) in
                 enumerate(zip(_MULT_1[:, o], _MULT_I[:, o])) if a or b]
                for o in range(80)]
        bracket = [[(q, mpmath.mpf(v)) for q, v in enumerate(col) if v]
                   for col in _BRACKET_RE.T]

        def block(x):                   # blk[s][16 c + o], as the (5, 256) rows
            f = [v for row in x[:3] for v in row]
            g = [mpmath.fsum(f[i] * v for i, v in col) for col in mult]
            return [[mpmath.fsum(g[16 * s + q] * v for q, v in col)
                     for col in bracket] for s in range(5)]

        xs, blocks = [[[mpmath.mpf(v) for v in row] for row in x0.view(float)]], []
        for k in range(5):
            blocks.append(block(xs[k]))
            terms = [[[] for _ in range(16)] for _ in range(n + 4)]
            for j in range(k + 1):
                for m, s in np.ndindex(n + 4, 5):
                    if 0 <= reads[m, s] < n:
                        for c, v in enumerate(xs[j][reads[m, s]]):
                            for o in range(16):
                                terms[m][o].append(v * blocks[k - j][s][16 * c + o])
            exact = [[mpmath.fsum(t) for t in row] for row in terms]
            scale = max(float(mpmath.fsum(map(abs, t))) for row in terms for t in row)
            err = np.abs(prods[k].view(float) - np.array(exact, dtype=float))
            assert np.max(err) <= 8 * np.finfo(float).eps * scale, k
            xs.append([[v / (k + 1) for v in row] for row in exact[:n]])


def test_one_lax_step_pinned_to_40_digits():
    # one whole step of the standard seed along i: orders 1..16 and their
    # products by the same recurrence at 40 digits, and the step's Horner
    # sum at the h of the radius rule.  Along i the multiplier is _MULT_I,
    # whose entries and the bracket's are exact, as are the seed's binary
    # values.  Order k's products keep to 8 eps of their scale, the largest
    # entry of sum_j |window_j| @ |block_{k-j}| (order k + 1 to that over
    # k + 1), and each entry of the moved field to 8 eps of sum_k |x_k| h^k;
    # they read at most 0.98 and 0.52 eps
    mpmath = pytest.importorskip("mpmath")
    x0 = _field_coords(standard_torus_killing_seed(1.0, 1.0).field)
    n, eps = len(x0), np.finfo(float).eps
    xs, prods = _aimed_orders(n, 1j)(x0)
    size = np.max(np.abs(xs[[0, -2, -1]]), axis=(1, 2))
    h = _REACH / np.max((size[1:] / size[0]) ** _ROOTS)
    moved, steps, _ = _flow_coords(_lax_taylor(n), x0, 0.0, h * 1j, h)
    assert steps == 1
    # the (row, slot) pairs of the window that read field row r
    reads = np.r_[2:n + 2, 0, 1, n + 2, n + 3][:, None] - np.arange(5)
    slots = {r: list(zip(*np.nonzero(reads == r))) for r in range(n)}
    with mpmath.workdps(40):
        mult = [[(o, mpmath.mpf(v)) for o, v in enumerate(row) if v]
                for row in _MULT_I]
        bracket = [[(col, mpmath.mpf(v)) for col, v in enumerate(row) if v]
                   for row in _BRACKET_RE]

        def block(x):     # {(s, c): {o: blk[16 s + c, o]}} of a sparse x
            g, out = {}, {}
            for (r, c), v in x.items():
                for o, w in mult[16 * r + c] if r < 3 else ():
                    g[o] = g.get(o, 0) + v * w
            for so, v in g.items():
                for col, w in bracket[so % 16]:
                    entry = out.setdefault((so // 16, col // 16), {})
                    entry[col % 16] = entry.get(col % 16, 0) + v * w
            return out

        def dense(x, rows):
            out = np.zeros((rows, 16))
            for i, v in x.items():
                out[i] = float(v)
            return out

        exact = [{i: mpmath.mpf(v) for i, v in np.ndenumerate(x0.view(float)) if v}]
        blocks = []
        for k in range(16):
            blocks.append(block(exact[k]))
            total, mag = {}, {}
            for j in range(k + 1):
                for (r, c), v in exact[j].items():
                    for m, s in slots[r]:
                        for o, w in blocks[k - j].get((s, c), {}).items():
                            total[m, o] = total.get((m, o), 0) + v * w
                            mag[m, o] = mag.get((m, o), 0) + abs(v * w)
            scale = float(max(mag.values()))
            err = np.abs(prods[k].view(float) - dense(total, n + 4))
            assert np.max(err) <= 8 * eps * scale, k
            exact.append({(m, o): v / (k + 1) for (m, o), v in total.items() if m < n})
            err = np.abs(xs[k + 1].view(float) - dense(exact[-1], n))
            assert np.max(err) <= 8 * eps * scale / (k + 1), k
        terms = [[x.get(i, 0) * mpmath.mpf(h) ** k for k, x in enumerate(exact)]
                 for i in np.ndindex(n, 16)]
        step_sum = np.array([float(mpmath.fsum(t)) for t in terms])
        scale = np.array([float(mpmath.fsum(map(abs, t))) for t in terms])
    err = np.abs(moved.view(float).ravel() - step_sum)
    assert np.all(err <= 8 * eps * scale)


@pytest.mark.parametrize("which", ["rhombic", "non-real"])
def test_flow_step_is_np_polyval_bit_for_bit(which):
    # the in-place Horner of the step polynomial and the Python-float Horner
    # of the spill take np.polyval's operations in its order: on a segment
    # short enough for one step, both match it bit for bit.  A non-real
    # field has O(1) padding at every order, where a sum of powers of h
    # rounds differently
    if which == "rhombic":
        seed = rhombic_killing_seed()
        field, h = seed.field, 0.02 * seed.spec.lattice.diameter()
    else:
        field, h = _random_algebra_field(np.random.default_rng(7), 2), 0.01
    x = _field_coords(field)
    zdot = np.exp(0.3j)
    moved, steps, spill = _flow_coords(_lax_taylor(len(x)), x, 0.0, h * zdot, 1e-6)
    assert steps == 1
    xs, prods = _aimed_orders(len(x), zdot)(x, still=True)
    want = np.polyval(xs[::-1], h)
    assert moved.tobytes() == want.tobytes() and not np.array_equal(moved, x)
    pads = np.max(np.abs(prods[::-1, len(x):]), axis=(1, 2))
    assert np.float64(spill).tobytes() == np.polyval(pads, h).tobytes() and spill > 0


@pytest.mark.parametrize("make_seed, turns", [
    (lambda: standard_torus_killing_seed(1.0, 1.0), [0.3, 0.3 + 0.2j, 0.1 + 0.35j]),
    (rhombic_killing_seed, [0.15 + 0.1j, 0.05 + 0.25j, -0.1 + 0.15j])],
    ids=["standard", "rhombic"])
def test_one_plan_serves_every_segment_of_a_flow(make_seed, turns):
    # a plan kept across three segments that turn gives the bits of a fresh
    # plan per segment.  The standard seed's first segment runs along the
    # real axis, where the field is still: that step zeroes the plan's
    # orders and products, which the next segments overwrite
    seed = make_seed()
    diam = seed.spec.lattice.diameter()
    points = [0.0] + [diam * z for z in turns]
    shared = fresh = _field_coords(seed.field)
    plan, runs = _lax_taylor(len(shared)), []
    for a, b in zip(points, points[1:]):
        shared, *got = _flow_coords(plan, shared, a, b, diam / 2048)
        fresh, *want = _flow_coords(_lax_taylor(len(fresh)), fresh, a, b, diam / 2048)
        assert np.array_equal(shared, fresh) and got == want
        runs.append(got)
    still = seed.field.d == 2          # one step, no spill
    assert (runs[0] == [1, 0.0]) == still
    assert all(steps > 1 for steps, _ in runs[1:])


def test_lax_integrate_keeps_no_state_between_calls():
    def flow(seed):
        diam = seed.spec.lattice.diameter()
        res = lax_integrate(seed.field, [0.1 * diam, (0.1 + 0.15j) * diam],
                            lattice=seed.spec.lattice)
        return ([f.rot.tobytes() + f.trans.tobytes() for f in res.fields],
                res.steps, res.max_spill)
    first = flow(rhombic_killing_seed())
    flow(standard_torus_killing_seed(1.0, 1.0))
    assert flow(rhombic_killing_seed()) == first


def test_flow_window_memory_at_largest_degree(rng):
    # a flow holds 16 windows of (2d + 5, 80) floats, 5.3 MB at d = 256,
    # and nothing that grows as the square of the degree
    d = 256
    field = _random_algebra_field(rng, d)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        moved = flow_field(field, 0, 0.01, 1e-6)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.isfinite(moved.trans).all()
    assert peak <= 12e6, peak


def test_spill_of_non_real_field():
    # an algebra-valued field that is not real leaks O(1) bracket mass past
    # the exponent range; the first step's order-0 product carries the
    # derivative's own padding rows, and the spill bounds them
    field = _random_algebra_field(np.random.default_rng(2), 2)
    rot, trans = _reference_rhs(field.rot, field.trans, 1.0)
    pads = np.r_[0, 1, -2, -1]
    want = max(np.max(np.abs(coords(rot[pads], ROTATION_BASIS))),
               np.max(np.abs(trans[pads])))
    res = lax_integrate(field, [0.1, 0.2], step=1e-3)
    assert 0.1 < want <= res.max_spill * (1 + 1e-14) < np.inf
    assert res.max_spill < 1e3 * want and res.steps >= 2
    moved = flow_field(field, 0.0, 0.2, step=1e-3)
    assert np.max(np.abs(moved.trans - res.fields[-1].trans)) < 1e-12


@pytest.mark.parametrize("make_seed", [
    lambda: standard_torus_killing_seed(1.0, 1.0), rhombic_killing_seed],
    ids=["standard", "rhombic"])
def test_flow_field_matches_reference_rk4(make_seed):
    # the truncation of per-exponent RK4 at diameter / 16384 is far below
    # the bound on this segment
    seed = make_seed()
    lat = seed.spec.lattice
    z_to = 0.05 * lat.g1 + 0.03 * lat.g2
    step = lat.diameter() / 2048.0
    got = flow_field(seed.field, 0.0, z_to, step)
    rot, trans = _reference_flow(seed.field, 0.0, z_to, lat.diameter() / 16384)
    assert np.max(np.abs(got.rot - rot)) < 1e-13
    assert np.max(np.abs(got.trans - trans)) < 1e-13
    res = lax_integrate(seed.field, [z_to], step=step)
    d = seed.field.d
    assert 1 <= res.steps <= int(np.ceil(abs(z_to) / step))
    assert res.max_spill < 1e-12
    assert res.coefficient_drift(-d) <= 1e-15
    assert res.even_coefficient_drift() <= 1e-15
    assert res.isospectral_drift() <= 1e-15


def test_flow_of_non_contiguous_coefficients():
    # the stage reads float views of the coordinates, so a field held in
    # strided or Fortran-ordered arrays must flow bit for bit as its copy
    seed = rhombic_killing_seed()
    field = seed.field
    n = 2 * field.d + 1
    rot_big = np.zeros((n, 4, 4, 2), dtype=complex)
    rot_big[..., 1] = field.rot
    trans_big = np.zeros((2 * n, 4), dtype=complex)
    trans_big[::2] = field.trans
    through_init = KillingField(field.d, np.asfortranarray(field.rot),
                                trans_big[::2])
    assigned = field.copy()
    assigned.rot, assigned.trans = rot_big[..., 1], np.asfortranarray(field.trans)
    assert not (assigned.rot.flags.c_contiguous
                or assigned.trans.flags.c_contiguous)
    z_to = 0.05 * seed.spec.lattice.g1 + 0.03 * seed.spec.lattice.g2
    step = seed.spec.lattice.diameter() / 2048.0
    want = flow_field(field.copy(), 0.0, z_to, step)
    want_res = lax_integrate(field.copy(), [z_to, 2 * z_to], step=step)
    for xi in (through_init, assigned):
        got = flow_field(xi, 0.0, z_to, step)
        assert np.array_equal(got.rot, want.rot)
        assert np.array_equal(got.trans, want.trans)
        res = lax_integrate(xi, [z_to, 2 * z_to], step=step)
        assert res.max_spill == want_res.max_spill
        for f, g in zip(res.fields[1:], want_res.fields[1:]):
            assert np.array_equal(f.rot, g.rot)
            assert np.array_equal(f.trans, g.trans)


@pytest.mark.parametrize("make_seed", [
    lambda: standard_torus_killing_seed(1.0, 1.0), rhombic_killing_seed],
    ids=["standard", "rhombic"])
def test_shipped_seed_drifts_stay_exactly_zero(make_seed):
    # the top and even coefficients' derivatives cancel in exact zeros, which
    # the real block products must keep
    seed = make_seed()
    lat = seed.spec.lattice
    res = lax_integrate(seed.field, [4 * lat.g1 + 2 * lat.g2], lattice=lat)
    assert res.steps >= 8
    assert res.coefficient_drift(-seed.field.d) == 0.0
    assert res.even_coefficient_drift() == 0.0


@pytest.mark.parametrize("make_seed", [
    lambda: standard_torus_killing_seed(1.1, 0.9), rhombic_killing_seed],
    ids=["standard", "rhombic"])
def test_flow_pinned_to_40_digit_spinor(make_seed):
    # the lowest odd translation coefficient is the spinor field u; against
    # u's modes summed at 40 digits (the float rows read as exact binary
    # values) the flow keeps to a few rounding errors of the mode sum
    mpmath = pytest.importorskip("mpmath")
    seed = make_seed()
    lat = seed.spec.lattice
    res = lax_integrate(seed.field, [0.13 * lat.g1 + 0.07 * lat.g2,
                                     0.21 * lat.g1 - 0.05 * lat.g2],
                        lattice=lat)
    freqs, vecs = _u_modes(seed.spec)
    bound = 8 * np.finfo(float).eps * np.sum(np.abs(vecs))
    for z, f in zip(res.points[1:], res.fields[1:]):
        with mpmath.workdps(40):
            w = mpmath.mpc(z.real, z.imag)
            waves = [mpmath.expjpi(2 * mpmath.re(
                mpmath.conj(mpmath.mpc(g.real, g.imag)) * w)) for g in freqs]
            exact = np.array([complex(mpmath.fsum(
                wave * mpmath.mpc(v.real, v.imag)
                for wave, v in zip(waves, vecs[:, c]))) for c in range(4)])
        _, u = f.coeff(-seed.field.d + 1)
        assert np.max(np.abs(u - exact)) <= bound
        assert np.max(np.abs(spinor_u(seed.spec, z) - exact)) <= bound


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
    # its Taylor coefficients above order 0 are exactly zero, which the step
    # rule reads as an infinite radius; the zero field's are 0 / 0
    for g in (f, KillingField(d, 0 * rot, 0 * trans)):
        res = lax_integrate(g, [0.3 + 0.4j, 1e6], step=0.01)
        assert res.steps == 2 and res.max_spill == 0.0
        assert np.array_equal(res.fields[-1].rot, g.rot)


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


def test_drifts_of_stacked_fields_match_per_field_loops(rng):
    # the invariants read the fields as one stack and make one eigvals call;
    # on an odd degree the even exponents sit at the odd dense rows
    d = 3
    f = _random_algebra_field(rng, d)
    res = lax_integrate(KillingField(d, 0.2 * f.rot, 0.2 * f.trans),
                        [0.1, 0.1 + 0.2j], step=1e-3)

    def drift(k):
        base_r, base_t = res.fields[0].coeff(k)
        return max(max(np.max(np.abs(g.coeff(k)[0] - base_r)),
                       np.max(np.abs(g.coeff(k)[1] - base_t)))
                   for g in res.fields)
    ks = range(-d, d + 1)
    assert [res.coefficient_drift(k) for k in ks] == [drift(k) for k in ks]
    assert res.even_coefficient_drift() == max(map(drift, (-2, 0, 2))) > 0
    lams = np.exp(2j * np.pi * (np.arange(8) + 0.31) / 8)
    spectra = [np.sort_complex(np.linalg.eigvals(g.value_at(lams)[0]))
               for g in res.fields]
    assert res.isospectral_drift() == max(
        np.max(np.abs(e - spectra[0])) for e in spectra) > 0


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


def zeta_coefficients(w_list: list, u_modes, a: complex) -> list:
    """Translation parts of the adapted series, as mode tables: order 0 is
    u + a L_i w0 (identically zero), order n >= 1 is a L_i w_n."""
    freqs, u = u_modes
    step = (complex(a) * L_I).T
    out = [(freqs, u + w_list[0][1] @ step)]
    out += [(freqs, w @ step) for _, w in w_list[1:]]
    return out


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
    with pytest.raises(ValueError, match="nonzero"):     # no a^-1 at a = 0
        formal_killing(u_modes, 0)


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

def fourier_recurrence(beta0: complex, cs: dict, seeds: dict, p: int) -> dict:
    """Run the coefficient chain per frequency and evaluate the closure.

    ``cs`` maps q in -p..p-1 to the constant c_q; ``seeds`` maps each
    frequency gamma (with |gamma| = |beta0|/2) to the bottom coefficient.
    Returns {gamma: {"chain": [...], "closure": residual, "ok": bool}}.
    """
    beta0 = complex(beta0)
    report = {}
    for gamma, bottom in seeds.items():
        gamma = complex(gamma)
        if abs(abs(gamma) - abs(beta0) / 2) > 1e-9 * max(1.0, abs(beta0)):
            raise ValueError(f"frequency {gamma} is off the circle")
        ratio = (2.0 * np.conj(gamma) / np.conj(beta0)) ** 2
        chain = [complex(bottom)]
        for q in range(-p, p):
            chain.append(cs[q] * chain[0] + ratio * chain[-1])
        closure = abs(gamma * chain[0] + np.conj(gamma) * chain[-1])
        report[gamma] = {"chain": chain, "closure": closure,
                         "ok": closure <= 1e-9 * max(1.0, abs(chain[0]))}
    return report


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


def test_seed_chain_matches_fourier_recurrence():
    # the seed's translation string at exponent 4q - 1 sums the spinor modes
    # times their chain multipliers, the chain run from a bottom of 1
    seed = rhombic_killing_seed()
    freqs, vecs = _u_modes(seed.spec)
    rep = fourier_recurrence(seed.spec.beta0, seed.cs,
                             {f: 1.0 for f in freqs.tolist()}, seed.p)
    for q in range(-seed.p, seed.p + 1):
        want = sum(rep[f]["chain"][q + seed.p] * v
                   for f, v in zip(freqs.tolist(), vecs))
        assert np.max(np.abs(seed.field.coeff(4 * q - 1)[1] - want)) < 1e-12


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
