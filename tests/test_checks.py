import tracemalloc

import numpy as np
import pytest
from mean_curvature_reference import reference_residual

from hamstat.checks import (SpinorFields, check_conformal, check_flatness,
                            check_harmonic_angle, check_lagrangian,
                            check_mean_curvature, run_suite)
from hamstat.errors import AngleUnwrapFailure, DegenerateMetric
from hamstat.lattices import Lattice
from hamstat.tori import castro_urbano, rhombic_torus, standard_torus
from hamstat.weierstrass import TorusSpec, _affine_frame, immerse


@pytest.fixture(scope="module")
def tori():
    cu = castro_urbano(3, 1, 1, 3)
    gamma = np.exp(1j * cu.beta) / (2 * np.pi)
    cu_spec = cu.build_spec({gamma: 2.0 + 1.0j, np.conj(gamma): 1.5 - 0.5j})
    return [standard_torus(1.0, 1.0).spec, rhombic_torus().spec, cu_spec]


def test_suites_pass_on_golden_tori(tori):
    for spec in tori:
        reports = run_suite(lambda z: immerse(spec, z), spec.lattice, 64,
                            spec=spec)
        for rep in reports:
            assert rep.passed, (rep.check, rep.residual)


def test_angle_slope_recovery(tori):
    for spec in tori:
        rep = check_harmonic_angle(lambda z: immerse(spec, z),
                                   spec.lattice, 48)
        got = complex(*rep.extra["beta0_fit"])
        assert abs(got - spec.beta0) < 1e-8


def test_sheared_probe_fails_conformal():
    def sheared(z):
        z = np.asarray(z, dtype=complex)
        zero = np.zeros_like(z.real)
        return np.stack([z.real, zero, z.imag + 0.1 * z.real, zero], axis=-1)

    rep = check_conformal(sheared, Lattice.square(), 16)
    assert not rep.passed
    assert 0.01 < rep.residual < 1.0


def test_constant_map_has_degenerate_metric():
    def point(z):
        return np.zeros(np.shape(z) + (4,))

    with pytest.raises(DegenerateMetric):
        check_conformal(point, Lattice.square(), 8)


def test_non_gradient_graph_fails_lagrangian():
    def graph(z):
        z = np.asarray(z, dtype=complex)
        zero = np.zeros_like(z.real)
        return np.stack([z.real, z.imag, z.imag, zero], axis=-1)

    rep = check_lagrangian(graph, Lattice.square(), 16)
    assert not rep.passed
    assert rep.residual > 0.1


def test_sphere_probe_fails_mean_curvature():
    def sphere(z):
        z = np.asarray(z, dtype=complex)
        th = 0.6 * np.pi * (0.2 + 0.6 * z.real) + 0.3
        ph = 2 * np.pi * z.imag
        return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th), np.zeros_like(th)], axis=-1)

    rep = check_mean_curvature(sphere, Lattice.square(), 12)
    assert not rep.passed


def test_angle_check_fails_on_nonlagrangian_surface():
    # a minimal-surface style probe that is nowhere Lagrangian: either the
    # unwrap trips or the residual is large
    def probe(z):
        z = np.asarray(z, dtype=complex)
        return np.stack([z.real, z.imag,
                         0.3 * np.cos(4 * np.pi * z.real),
                         0.2 * np.sin(6 * np.pi * z.imag)], axis=-1)

    try:
        rep = check_harmonic_angle(probe, Lattice.square(), 32)
    except AngleUnwrapFailure:
        return
    assert rep.residual > 1e-3


def test_flatness_at_unit_parameters(tori):
    for spec in tori[:2]:
        for lam in (1.0, 1j):
            rep = check_flatness(spec, lam, 8)
            assert rep.passed, rep.residual


def test_flatness_quadratic_angle_probe():
    # non-harmonic angle: the curvature concentrates on the phase generator
    # with the analytic factor (lam^-2 - lam^2); note that factor vanishes
    # at fourth roots of unity, so probe away from them
    q = 0.7
    lat = Lattice.square()
    fields = SpinorFields(
        lambda z: q * np.conj(np.asarray(z, dtype=complex)),
        lambda z: np.zeros(np.shape(z) + (4,), dtype=complex), lat)
    for lam in (np.exp(0.3j), np.exp(1.1j)):
        rep = check_flatness(fields, lam, 8)
        predicted = abs(1j * q * (lam ** -2 - lam ** 2))
        assert abs(rep.residual - predicted) < 1e-6
    # degenerate parameter: the rotation residual factor vanishes
    rep = check_flatness(fields, 1j, 8)
    assert rep.residual < 1e-9


@pytest.mark.parametrize("factor", [1e3, 1e-3])
def test_flatness_is_scale_free(factor):
    # a homothety of R^4 scales u, and with it the translation part of the
    # curvature; the residual is taken relative to max|u|
    spec = standard_torus(1.0, 1.0).spec
    scaled = TorusSpec.build(spec.lattice, spec.beta0,
                             {g: factor * a for g, a in spec.items()})
    for lam in (1.0, 1j):
        base = check_flatness(spec, lam, 8).residual
        rep = check_flatness(scaled, lam, 8)
        assert rep.passed, rep.residual
        assert abs(rep.residual - base) <= 0.01 * base


def test_flatness_rejects_sine_perturbed_spinor():
    spec = standard_torus(1.0, 1.0).spec
    exact = SpinorFields.from_spec(spec)
    bump = np.array([1.0, 1j, 0.0, 0.0])

    def u(z):
        wave = np.sin(2 * np.pi * np.real(z))
        return exact.u(z) + 1e-3 * wave[..., None] * bump

    fields = SpinorFields(exact.beta_z, u, spec.lattice)
    for lam in (1.0, 1j):
        rep = check_flatness(fields, lam, 8)
        assert not rep.passed, rep.residual


def test_mean_curvature_second_order_refinement(tori):
    # thresholds disabled so the raw stencil order is measured
    for spec in tori[:2]:
        f = lambda z: immerse(spec, z)
        r1 = check_mean_curvature(f, spec.lattice, 24, fd_step=4e-3,
                                  threshold=np.inf)
        r2 = check_mean_curvature(f, spec.lattice, 24, fd_step=2e-3,
                                  threshold=np.inf)
        assert 3.0 < r1.residual / r2.residual < 5.0


def test_conformal_refinement_on_rhombic():
    spec = rhombic_torus().spec
    f = lambda z: immerse(spec, z)
    r1 = check_conformal(f, spec.lattice, 24, fd_step=4e-3, threshold=np.inf)
    r2 = check_conformal(f, spec.lattice, 24, fd_step=2e-3, threshold=np.inf)
    assert 3.0 < r1.residual / r2.residual < 5.0


def test_richardson_fallback_rescues_coarse_steps(tori):
    spec = tori[1]
    f = lambda z: immerse(spec, z)
    coarse = check_conformal(f, spec.lattice, 16, fd_step=2e-2,
                             threshold=np.inf)
    rescued = check_conformal(f, spec.lattice, 16, fd_step=2e-2,
                              threshold=1e-5)
    assert rescued.extra.get("richardson")
    assert rescued.residual < 0.02 * coarse.residual


def test_report_json_shape(tori):
    rep = check_conformal(lambda z: immerse(tori[0], z), tori[0].lattice, 16)
    data = rep.to_dict()
    for key in ("check", "grid_n", "residual", "threshold", "pass"):
        assert key in data


@pytest.mark.parametrize("where", ["value", "argument"])
def test_suite_rejects_sine_perturbation(tori, where):
    # perturbing the value leaves immerse on its separable grid path;
    # perturbing the argument feeds it off-grid points and the loop runs
    spec = tori[1]
    delta = 1e-5

    def wave(z):
        return delta * np.sin(2 * np.pi * np.asarray(z).real)

    def perturbed(z):
        if where == "value":
            return immerse(spec, z) + wave(z)[..., None]
        return immerse(spec, z + wave(z))

    zs = spec.lattice.grid(32)
    assert _affine_frame(zs) is not None and _affine_frame(zs + wave(zs)) is None
    good = run_suite(lambda z: immerse(spec, z), spec.lattice, 32, spec=spec)
    bad = run_suite(perturbed, spec.lattice, 32, spec=spec)
    assert all(r.passed for r in good)
    assert not bad[0].passed                    # conformal


class _Counted:
    """Immersion of a spec that counts its calls."""

    def __init__(self, spec):
        self.spec = spec
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        return immerse(self.spec, z)


def test_mean_curvature_takes_one_13_point_stencil(tori):
    spec = tori[0]
    f = _Counted(spec)
    rep = check_mean_curvature(f, spec.lattice, 16)
    assert rep.passed and not rep.extra.get("richardson")
    assert f.calls == 13
    f.calls = 0
    check_mean_curvature(f, spec.lattice, 16, threshold=0.0)   # fallback runs
    assert f.calls == 26
    f.calls = 0
    reports = run_suite(f, spec.lattice, 16, spec=spec)
    assert all(r.passed and not r.extra.get("richardson") for r in reports)
    assert f.calls == 29


@pytest.mark.parametrize("grid_n", [16, 64, 128])
def test_mean_curvature_matches_30_evaluation_reference(tori, grid_n):
    for spec in tori:
        f = lambda z: immerse(spec, z)
        rep = check_mean_curvature(f, spec.lattice, grid_n, threshold=np.inf)
        ref = reference_residual(f, spec.lattice, grid_n, rep.extra["fd_step"])
        assert abs(rep.residual - ref) <= 2e-2 * ref, (grid_n, rep.residual, ref)


def test_mean_curvature_peak_memory_within_reference(tori):
    spec = tori[0]
    f = lambda z: immerse(spec, z)
    h = 3e-5 * spec.lattice.diameter()

    def peak(run):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        new = peak(lambda: check_mean_curvature(f, spec.lattice, 128,
                                                threshold=np.inf))
        ref = peak(lambda: reference_residual(f, spec.lattice, 128, h))
    finally:
        tracemalloc.stop()
    assert new <= ref, (new, ref)
