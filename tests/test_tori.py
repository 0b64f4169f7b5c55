import numpy as np
import pytest

from hamstat.errors import FrequencyBoxTooLarge, NoRealSolution
from hamstat.lattices import (PeriodicityClass, enumerate_frequencies,
                              period_lattice, periodicity_class)
from hamstat.tori import castro_urbano, rhombic_torus, standard_torus
from hamstat.weierstrass import immerse, regularity_scan


def admissible(cu):
    """The candidates in the coset and off the excluded pair."""
    return tuple(g for g, in_coset, excluded in cu.candidates
                 if in_coset and not excluded)


def test_standard_torus_agreement():
    for w1, w2 in ((1.0, 1.0), (1.0, 2.0), (0.7, 1.3)):
        g = standard_torus(w1, w2)
        zs = g.spec.lattice.grid(11) + 0.013 + 0.027j
        assert np.max(np.abs(immerse(g.spec, zs) - g.closed_form(zs))) < 1e-12
        x0 = immerse(g.spec, 0.0)
        assert np.max(np.abs(x0 - np.array([0.0, -w1, 0.0, -w2]))) < 1e-12
        assert periodicity_class(g.spec.lattice, g.spec.beta0) \
            is PeriodicityClass.ANTI_PERIODIC
    with pytest.raises(ValueError, match="periods must be positive"):
        standard_torus(0, 1)


def test_rhombic_torus_values(rng):
    g = rhombic_torus()
    x0 = immerse(g.spec, 0.0)
    expected = np.array([2.0 / (np.pi * np.sqrt(3)), -1.0 / np.pi, 0.0, 0.0])
    assert np.max(np.abs(x0 - expected)) < 1e-12
    # two independent code paths agree on random points
    zs = (rng.normal(size=100) + 1j * rng.normal(size=100))
    assert np.max(np.abs(immerse(g.spec, zs) - g.closed_form(zs))) < 1e-10
    assert periodicity_class(g.spec.lattice, 2.0) is PeriodicityClass.TRULY_PERIODIC
    rep = period_lattice(g.spec)
    assert rep.delta.same_lattice(g.spec.lattice)


def test_castro_urbano_2112():
    cu = castro_urbano(2, 1, 1, 2)
    # the footnote family: tan(beta) rational, complementary angles
    assert abs(np.tan(cu.beta) - 2.0) < 1e-12
    assert abs(cu.alpha + cu.beta - np.pi / 2) < 1e-12
    # dual lattice is the scaled square lattice
    d = cu.lattice.dual()
    s = 1.0 / (np.pi * np.sqrt(5))
    assert abs(abs(d.g1) - s) < 1e-12 and abs(abs(d.g2) - s) < 1e-12
    # slope has dual coordinates (p, r)
    assert abs(cu.phi0 - (2 * d.g1 + 1 * d.g2)) < 1e-12
    assert len(cu.circle_points) == 8
    # half-circle candidates: only the conjugate-slope pair survives the coset
    assert len(admissible(cu)) == 2
    fs = enumerate_frequencies(cu.lattice, cu.phi0)
    assert len(fs) == 2


def test_castro_urbano_circle_points_vs_disk_scan():
    cu = castro_urbano(2, 1, 1, 2)
    d = cu.lattice.dual()
    radius = abs(cu.phi0)
    pts = set()
    for n in range(-12, 13):
        for m in range(-12, 13):
            v = n * d.g1 + m * d.g2
            if abs(abs(v) - radius) < 1e-9:
                pts.add((round(v.real, 9), round(v.imag, 9)))
    assert {(round(v.real, 9), round(v.imag, 9)) for v in cu.circle_points} == pts
    assert len(pts) == 8


def test_castro_urbano_3113_all_candidates_admissible():
    cu = castro_urbano(3, 1, 1, 3)
    assert len(cu.circle_points) == 8
    keys = {(round(g.real, 9), round(g.imag, 9)) for g in admissible(cu)}
    assert len(keys) == 6
    fs = enumerate_frequencies(cu.lattice, cu.phi0)
    assert {(round(g.real, 9), round(g.imag, 9)) for g in fs} == keys


def test_castro_urbano_constraints_and_spec():
    cu = castro_urbano(3, 1, 1, 3)
    gamma = np.exp(1j * cu.beta) / (2 * np.pi)
    seed = {gamma: 1.3 - 0.4j, np.conj(gamma): 0.8 + 0.2j}
    coeffs = cu.constrain_coefficients(seed)
    a_g = coeffs[gamma]
    assert abs(coeffs[-gamma]
               + np.exp(-1j * (cu.beta + cu.alpha)) * np.conj(a_g)) < 1e-12
    a_gc = coeffs[np.conj(gamma)]
    assert abs(coeffs[-np.conj(gamma)]
               - np.exp(1j * (cu.beta - cu.alpha)) * np.conj(a_gc)) < 1e-12
    spec = cu.build_spec(seed)
    assert regularity_scan(spec, 24) > 0


def test_castro_urbano_degenerate_and_invalid():
    cu = castro_urbano(1, 1, 1, 1)      # alpha = beta: rectangular limit
    assert cu.degenerate_rectangular
    with pytest.raises(NoRealSolution):
        castro_urbano(1, 2, 1, 2)       # cos alpha < cos beta and sin alpha < sin beta
    with pytest.raises(NoRealSolution):
        castro_urbano(5, 1, 4, 1)
    with pytest.raises(NoRealSolution, match="positive integers"):
        castro_urbano(0, 1, 1, 1)
    # the circle scan's cap: 853^2 candidates pass, 1,135^2 are refused
    # before they are allocated
    assert len(castro_urbano(300, 300, 300, 300).circle_points) == 20
    with pytest.raises(FrequencyBoxTooLarge):
        castro_urbano(400, 400, 400, 400)


def test_real_slope_removes_conjugate_pair():
    # when the slope is real the two conjugate-slope points coincide with the
    # excluded resonant pair (the square-lattice slope-2 case shows this)
    from hamstat.lattices import Lattice
    fs = enumerate_frequencies(Lattice.square(), 2.0)
    pts = {(round(g.real, 9), round(g.imag, 9)) for g in fs}
    assert (1.0, 0.0) not in pts and (-1.0, 0.0) not in pts
    assert pts == {(0.0, 1.0), (0.0, -1.0)}
