"""Acceptance suite: every stated exit criterion at its stated tolerance.

Each test prints a single PASS line for the criterion it covers; run with
``pytest -s tests/test_acceptance.py`` to see them.
"""

import time

import numpy as np

from conftest import random_twisted_algebra_coeffs, exp_twisted_loop, \
    fd_laplacian4, random_twisted_group_loop
from hamstat.algebra import EPS
from hamstat.checks import (check_conformal, check_harmonic_angle,
                            check_lagrangian, check_mean_curvature)
from hamstat.finitetype import (flow_field, formal_killing,
                                lax_flatness_residual, lax_integrate,
                                polynomial_condition,
                                rhombic_killing_seed,
                                standard_torus_killing_seed)
from hamstat.lattices import Lattice, enumerate_frequencies, period_lattice
from hamstat.loops import (SpecLift, birkhoff, dpw_reconstruct, iwasawa,
                           potential_extract)
from hamstat.tori import castro_urbano, rhombic_torus, standard_torus
from hamstat.weierstrass import TorusSpec, _mode_sum, _u_modes, immerse


def _report(num, text):
    print(f"[acceptance] criterion {num}: PASS  ({text})")


def best_fit_rotation(source, target):
    """U(2) Procrustes: the ambient rotation commuting with the complex
    structure that best maps source points to target points (origin fixed)."""
    def to_c2(v):
        return np.stack([v[..., 0] + 1j * v[..., 1],
                         v[..., 2] + 1j * v[..., 3]], axis=-1)

    s = to_c2(source).reshape(-1, 2)
    t = to_c2(target).reshape(-1, 2)
    b = (t[:, :, None] @ s[:, None, :].conj()).sum(axis=0)
    w, _, vh = np.linalg.svd(b)
    u = w @ vh

    def apply(points):
        c = to_c2(points) @ u.T
        out = np.empty(points.shape)
        out[..., 0] = c[..., 0].real
        out[..., 1] = c[..., 0].imag
        out[..., 2] = c[..., 1].real
        out[..., 3] = c[..., 1].imag
        return out

    return apply


def test_criterion_1_standard_torus_golden():
    t0 = time.perf_counter()
    golden = standard_torus(1.0, 1.0)
    zs = golden.spec.lattice.grid(64)
    built = immerse(golden.spec, zs)
    closed = golden.closed_form(zs)
    fit = best_fit_rotation(built, closed)
    err = float(np.max(np.abs(fit(built) - closed)))
    elapsed = time.perf_counter() - t0
    assert err <= 1e-9, err
    assert elapsed < 1.0, elapsed
    _report(1, f"max err {err:.2e}, {elapsed:.2f}s")


def test_criterion_2_rhombic_torus_golden():
    golden = rhombic_torus()
    spec = golden.spec
    zs = spec.lattice.grid(64)
    err = float(np.max(np.abs(immerse(spec, zs) - golden.closed_form(zs))))
    assert err <= 1e-9, err
    x0 = immerse(spec, 0.0)
    expected = np.array([2 / (np.pi * np.sqrt(3)), -1 / np.pi, 0.0, 0.0])
    assert np.max(np.abs(x0 - expected)) <= 1e-12
    rep = period_lattice(spec)
    omega = np.exp(1j * np.pi / 3)
    assert rep.delta_dual.contains(1.0) and rep.delta_dual.contains(omega)
    assert rep.delta.same_lattice(spec.lattice)
    _report(2, f"pointwise err {err:.2e}, X(0) fixed, period lattice equals "
               "the spec lattice")


def test_criterion_3_geometric_suite():
    t0 = time.perf_counter()
    cu = castro_urbano(3, 1, 1, 3)
    gamma = np.exp(1j * cu.beta) / (2 * np.pi)
    cu_spec = cu.build_spec({gamma: 2.0 + 1.0j, np.conj(gamma): 1.5 - 0.5j})
    specs = [standard_torus(1.0, 1.0).spec, rhombic_torus().spec, cu_spec]
    worst = {}
    for spec in specs:
        f = lambda z: immerse(spec, z)
        reports = [check_conformal(f, spec.lattice, 128, threshold=1e-5),
                   check_lagrangian(f, spec.lattice, 128, threshold=1e-5),
                   check_harmonic_angle(f, spec.lattice, 128, threshold=1e-5),
                   check_mean_curvature(f, spec.lattice, 128, threshold=1e-5)]
        for rep in reports:
            assert rep.passed, (rep.check, rep.residual)
            worst[rep.check] = max(worst.get(rep.check, 0.0), rep.residual)
        # second-order refinement where truncation dominates the stencil
        r1 = check_mean_curvature(f, spec.lattice, 24, fd_step=4e-3,
                                  threshold=np.inf)
        r2 = check_mean_curvature(f, spec.lattice, 24, fd_step=2e-3,
                                  threshold=np.inf)
        assert 3.0 < r1.residual / r2.residual < 5.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    _report(3, "worst residuals " + ", ".join(
        f"{k} {v:.1e}" for k, v in worst.items()) + f"; {elapsed:.1f}s")


def _disk_scan(lattice, beta0, tol=1e-9):
    dl = lattice.dual()
    half = beta0 / 2.0
    pts = set()
    for n in range(-32, 33):
        for m in range(-32, 33):
            g = half + n * dl.g1 + m * dl.g2
            if abs(abs(g) - abs(half)) <= tol and abs(g - half) > tol \
                    and abs(g + half) > tol:
                pts.add((round(g.real, 9), round(g.imag, 9)))
    return pts


def test_criterion_4_frequency_combinatorics():
    sq = Lattice.square()
    fs1 = enumerate_frequencies(sq, 1 + 1j)
    assert len(fs1) == 2
    assert {(round(g.real, 9), round(g.imag, 9)) for g in fs1} == _disk_scan(sq, 1 + 1j)

    fs2 = enumerate_frequencies(sq, 6 + 8j)
    assert len(fs2) == 10
    assert {(round(g.real, 9), round(g.imag, 9)) for g in fs2} == _disk_scan(sq, 6 + 8j)

    cu = castro_urbano(2, 1, 1, 2)
    assert len(cu.circle_points) == 8
    dl = cu.lattice.dual()
    oracle = set()
    for n in range(-16, 17):
        for m in range(-16, 17):
            v = n * dl.g1 + m * dl.g2
            if abs(abs(v) - abs(cu.phi0)) <= 1e-9:
                oracle.add((round(v.real, 9), round(v.imag, 9)))
    got = {(round(v.real, 9), round(v.imag, 9)) for v in cu.circle_points}
    assert got == oracle and len(oracle) == 8
    _report(4, "cards 2 / 10 / 8, exact set equality with the disk scan")


def test_criterion_5_square_cover_proposition():
    rng = np.random.default_rng(7)
    lat = Lattice.square()
    delta0 = Lattice((1 - 1j) / 2, (1 + 1j) / 2)
    done = 0
    attempts = 0
    while done < 20 and attempts < 200:
        attempts += 1
        # random truly periodic slope with guaranteed circle points:
        # half = unit * (1+i)^e2 * (2+i)^e1 * (2-i)^e0 scaled by an integer
        half = (1 + 1j) ** rng.integers(0, 2) * (2 + 1j) ** rng.integers(1, 3) \
            * (2 - 1j) ** rng.integers(0, 2) * (1 + rng.integers(0, 2))
        unit = 1j ** rng.integers(0, 4)
        half = complex(half * unit)
        freq = enumerate_frequencies(lat, 2 * half)
        if not len(freq):
            continue
        points = list(freq)
        rng.shuffle(points)
        active = points[:rng.integers(1, len(points) + 1)]
        spec = TorusSpec.build(lat, 2 * half,
                               {g: complex(rng.normal(), rng.normal())
                                for g in active})
        rep = period_lattice(spec)
        assert rep.rank == 2
        assert delta0.is_sublattice_of(rep.delta), (half, active)
        done += 1
    assert done == 20
    _report(5, f"20 random truly periodic square specs all cover the "
               f"half-density lattice ({attempts} draws)")


def test_criterion_6_iwasawa_birkhoff_batch():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_resid = 0.0
    for trial in range(200):
        deg = int(rng.integers(1, 9))
        loop = random_twisted_group_loop(deg, rng, m=128, amp=0.15)
        u, b = iwasawa(loop, nsamples=128, tol=1e-8)
        m = 128
        ru, tu = u.sample(m)
        rb, tb = b.sample(m)
        rh, th = loop.sample(m)
        resid = max(float(np.max(np.abs(ru @ rb - rh))),
                    float(np.max(np.abs(np.einsum("mij,mj->mi", ru, tb) + tu - th))))
        worst_resid = max(worst_resid, resid)
        assert resid <= 1e-8
        assert u.reality_residual() <= 1e-8
        assert u.twist_residual() <= 1e-8
        assert b.twist_residual() <= 1e-8
        assert np.min(b.ks) >= 0
        b0 = b.rot[b.ks == 0][0]
        be = b0 @ EPS
        ratio = be[0] / EPS[0]
        assert abs(ratio.imag) <= 1e-10 * abs(ratio) and ratio.real > 0
        assert np.max(np.abs(be - ratio * EPS)) <= 1e-10 * max(1.0, abs(ratio))
        if trial % 40 == 0:
            u2, _ = iwasawa(loop, nsamples=256)
            r2, t2 = u2.sample(256)
            r1, t1 = u.sample(256)
            assert np.max(np.abs(r1 - r2)) <= 1e-8
            assert np.max(np.abs(t1 - t2)) <= 1e-8

    worst_bk = 0.0
    for _ in range(20):
        ks, rots, trans = random_twisted_algebra_coeffs(5, rng, amp=0.15, sign=-1)
        gm = exp_twisted_loop(ks, rots, trans, 128)
        ks, rots, trans = random_twisted_algebra_coeffs(5, rng, amp=0.15, sign=+1)
        gp = exp_twisted_loop(ks, rots, trans, 128)
        prod = gm.compose(gp, 256)
        gm2, gp2 = birkhoff(prod, neg_degree=40, nsamples=256)
        for a, bb in ((gm, gm2), (gp, gp2)):
            ra, ta = a.sample(256)
            rb2, tb2 = bb.sample(256)
            err = max(float(np.max(np.abs(ra - rb2))),
                      float(np.max(np.abs(ta - tb2))))
            worst_bk = max(worst_bk, err)
            assert err <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed
    _report(6, f"200 factorizations, worst residual {worst_resid:.1e}; "
               f"20 splitting round trips, worst {worst_bk:.1e}; {elapsed:.1f}s")


def test_criterion_7_dpw_round_trip():
    worst = 0.0
    for golden in (standard_torus(1.0, 1.0), rhombic_torus()):
        spec = golden.spec
        lift = SpecLift(spec)
        pot = potential_extract(lift, nsamples=128)
        lift2 = dpw_reconstruct(pot, nsamples=128, lattice=spec.lattice)
        zs = spec.lattice.grid(32)
        got = lift2.immersion(zs)
        want = immerse(spec, zs) - immerse(spec, 0.0)
        err = float(np.max(np.abs(got - want)))
        worst = max(worst, err)
        assert err <= 1e-7, (golden.name, err)
    _report(7, f"extract-reconstruct reproduces both tori, worst {worst:.1e}")


def test_criterion_8_finite_type_flows():
    results = []
    for seed, segments in ((standard_torus_killing_seed(1.0, 1.0), 10),
                           (rhombic_killing_seed(), 6)):
        lat = seed.spec.lattice
        path = [i / segments * lat.g1 for i in range(1, segments + 1)]
        path += [lat.g1 + i / segments * lat.g2 for i in range(1, segments + 1)]
        res = lax_integrate(seed.field, path, lattice=lat)
        top = res.coefficient_drift(-seed.field.d)
        even = res.even_coefficient_drift()
        iso = res.isospectral_drift()
        assert top <= 1e-12, top
        assert even <= 1e-10, even
        assert iso <= 1e-8, iso
        # projected connection is flat along the flow
        mid = flow_field(seed.field, 0.0, 0.31 * lat.g1 + 0.17 * lat.g2,
                         step=lat.diameter() / 2048)
        for lam in (1.0, np.exp(0.4j)):
            resid = lax_flatness_residual(mid, lam)
            assert resid <= 1e-6, resid
        # frequency bound from the degree
        card = len(enumerate_frequencies(lat, seed.spec.beta0))
        assert card <= seed.field.d
        results.append((seed.field.d, top, even, iso, card))

    coeffs, roots = polynomial_condition(standard_torus_killing_seed(1.0, 1.0)
                                         .spec.beta0, {}, 0)
    want = abs(standard_torus(1.0, 1.0).spec.beta0) / 2
    assert min(abs(roots - 1j * want)) <= 1e-12
    assert min(abs(roots + 1j * want)) <= 1e-12
    _report(8, "; ".join(
        f"d={d}: drifts {t:.1e}/{e:.1e}/{i:.1e}, Card {c} <= d"
        for d, t, e, i, c in results) + "; genus-zero roots at +-i|slope|/2")


def test_criterion_9_formal_killing_identities():
    spec = standard_torus(1.0, 1.0).spec
    u_modes = _u_modes(spec)
    a = np.pi * np.conj(spec.beta0) / 2
    ws = formal_killing(u_modes, a, n_coeffs=24)
    assert np.all(ws[2][1] == 0)         # exact cancellation
    k2 = np.pi ** 2 * abs(spec.beta0) ** 2
    zs = spec.lattice.grid(3) + 0.07 + 0.11j
    h = 1e-3
    worst = 0.0
    for w in ws:
        def f(z, w=w):
            return _mode_sum(*w, z)

        resid = 0.25 * fd_laplacian4(f, zs, h) + 0.25 * k2 * f(zs)
        worst = max(worst, float(np.max(np.abs(resid))))
    assert worst <= 1e-6, worst
    _report(9, f"w2 identically zero; elliptic residual {worst:.1e} over 24 "
               "coefficients")
