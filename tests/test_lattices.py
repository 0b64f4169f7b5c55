import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamstat.algebra import exp_g2
from hamstat.errors import (DegenerateLattice, EmptySpectrum,
                            FrequencyBoxTooLarge, SlopeNotInDualLattice)
from hamstat.lattices import (MAX_SEARCH_BOX, Lattice, PeriodicityClass,
                              affine_grid, enumerate_frequencies, integer_span_lattice,
                              period_lattice, periodicity_class)
from hamstat.tori import rhombic_torus, standard_torus
from hamstat.numerics import dot_r2
from hamstat.weierstrass import TorusSpec, immerse


def disk_scan_oracle(lattice, beta0, tol=1e-9):
    """Independent brute-force enumeration: scan a generous integer box of
    the shifted dual coset and keep exact circle points."""
    dl = lattice.dual()
    half = beta0 / 2.0
    # deliberately cruder bound than the library: grow the box until stable
    out = None
    for box in (8, 16, 32):
        pts = set()
        for n in range(-box, box + 1):
            for m in range(-box, box + 1):
                g = half + n * dl.g1 + m * dl.g2
                if abs(abs(g) - abs(half)) <= tol and abs(g - half) > tol \
                        and abs(g + half) > tol:
                    pts.add((round(g.real, 9), round(g.imag, 9)))
        if out == pts:
            break
        out = pts
    return out


def as_set(points):
    return {(round(p.real, 9), round(p.imag, 9)) for p in points}


def test_dual_square_self_dual():
    lat = Lattice.square()
    d = lat.dual()
    assert lat.same_lattice(d)


def test_dual_rectangular():
    lat = Lattice(2.0, 3.0j)
    d = lat.dual()
    assert as_set([d.g1, d.g2]) == as_set([0.5, 1j / 3.0])


def test_dual_hexagonal_gram():
    lat = Lattice(1.0, np.exp(1j * np.pi / 3))
    d = lat.dual()
    gens = [lat.g1, lat.g2]
    duals = [d.g1, d.g2]
    for i, gd in enumerate(duals):
        for j, g in enumerate(gens):
            dot = np.real(np.conj(gd) * g)
            assert abs(dot - (1.0 if i == j else 0.0)) < 1e-12
    assert d.dual().same_lattice(lat)


def test_degenerate_lattice_rejected():
    with pytest.raises(DegenerateLattice):
        Lattice(1.0, 2.0)
    with pytest.raises(DegenerateLattice):
        Lattice(0.0, 0.0)
    with pytest.raises(DegenerateLattice):       # no overflow from squaring
        Lattice(1e300, 1j)


@pytest.mark.parametrize("g1", [complex("inf"), complex("nan"),
                                complex(1.0, float("-inf"))])
def test_non_finite_generator_rejected(g1):
    with pytest.raises(ValueError, match="finite"):
        Lattice(g1, 1j)


def test_dual_out_of_float_range_names_the_generators():
    # the inverse basis underflows to subnormals (5.9e-309 and -0 without
    # the check, reported as a collinear dual); tiny generators overflow it
    for g1, g2 in ((1.7e308 + 1.7e308j, -1.7e308 + 1.7e308j),
                   (1e-320, 1e-320j)):
        lat = Lattice(g1, g2)
        with pytest.raises(DegenerateLattice) as err:
            lat.dual()
        assert f"generators {lat.g1}, {lat.g2} have no dual basis" in str(err.value)
    # generators near the range ends with a normal dual still invert
    for scale in (1e300, 1e-300):
        d = Lattice(scale, scale * 1j).dual()
        assert d.g1 == 1.0 / scale and d.g2 == 1j / scale


def test_enumerate_square_basic():
    fs = enumerate_frequencies(Lattice.square(), 1 + 1j)
    assert len(fs) == 2
    assert as_set(fs) == {(0.5, -0.5), (-0.5, 0.5)}
    assert as_set(fs) == disk_scan_oracle(Lattice.square(), 1 + 1j)


def test_enumerate_square_norm25():
    fs = enumerate_frequencies(Lattice.square(), 6 + 8j)
    assert len(fs) == 10
    assert as_set(fs) == disk_scan_oracle(Lattice.square(), 6 + 8j)


def test_enumerate_square_beta0_two():
    fs = enumerate_frequencies(Lattice.square(), 2.0)
    assert as_set(fs) == {(0.0, 1.0), (0.0, -1.0)}


def test_enumerate_hexagonal_dual():
    # lattice whose dual is the hexagonal Z + omega Z
    omega = np.exp(1j * np.pi / 3)
    lat = Lattice(1.0, omega).dual()
    fs = enumerate_frequencies(lat, 2.0)
    assert len(fs) == 4
    pts = as_set(fs)
    for g in (omega, omega ** 2, -omega, -omega ** 2):
        assert (round(g.real, 9), round(g.imag, 9)) in pts
    assert pts == disk_scan_oracle(lat, 2.0)


def test_enumerate_caps_search_box():
    # on the square lattice, slope s(1 + i) scans (2 ceil(2 sqrt2 s/2) + 3)^2
    # candidates: 1023^2 at s = 360, 1025^2 at s = 361
    assert 1023 ** 2 <= MAX_SEARCH_BOX < 1025 ** 2
    assert len(enumerate_frequencies(Lattice.square(), 360 + 360j)) > 0
    for slope in (361 + 361j, 1e12 + 1e12j, 1e300 + 1e300j):
        with pytest.raises(FrequencyBoxTooLarge):
            enumerate_frequencies(Lattice.square(), slope)


def test_enumerate_rejects_bad_slope():
    with pytest.raises(SlopeNotInDualLattice):
        enumerate_frequencies(Lattice.square(), 0.3 + 0.4j)
    with pytest.raises(SlopeNotInDualLattice):
        enumerate_frequencies(Lattice.square(), 0.0)
    # a modulus past the float range, checked before any abs()
    for slope in (1.7e308 + 1.7e308j, complex("inf"), complex("nan")):
        with pytest.raises(SlopeNotInDualLattice, match="finite modulus"):
            enumerate_frequencies(Lattice.square(), slope)
        with pytest.raises(SlopeNotInDualLattice, match="finite modulus"):
            periodicity_class(Lattice.square(), slope)


def test_frequency_set_invariants(rng):
    # closure under negation, even cardinality, coset/circle membership
    for beta0 in (1 + 1j, 2.0, 4 + 2j, 6 + 8j):
        fs = enumerate_frequencies(Lattice.square(), beta0)
        assert len(fs) % 2 == 0
        pts = as_set(fs)
        dl = Lattice.square().dual()
        for g in fs:
            assert (round(-g.real, 9), round(-g.imag, 9)) in pts
            assert abs(abs(g) - abs(beta0) / 2) < 1e-9
            assert dl.contains(g - beta0 / 2)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(rhombic=st.booleans(), n=st.integers(-3, 3), m=st.integers(-3, 3))
def test_enumeration_matches_disk_scan_property(rhombic, n, m):
    lat = rhombic_torus().spec.lattice if rhombic else Lattice.square()
    dl = lat.dual()
    beta0 = n * dl.g1 + m * dl.g2
    if (n, m) == (0, 0):
        with pytest.raises(SlopeNotInDualLattice):
            enumerate_frequencies(lat, beta0)
        return
    got = as_set(enumerate_frequencies(lat, beta0))
    assert got == disk_scan_oracle(lat, beta0)


def test_parity_relation_truly_periodic_square():
    # for square lattices and a slope with half in the dual, coordinates of
    # every frequency match the half-slope parity componentwise
    for half in (1 + 2j, 3 + 4j, 5 + 0j):
        fs = enumerate_frequencies(Lattice.square(), 2 * half)
        for g in fs:
            p, q = round(g.real), round(g.imag)
            assert (p - round(half.real)) % 2 == (q - round(half.imag)) % 2


def test_periodicity_classification():
    assert periodicity_class(Lattice.square(), 2.0) is PeriodicityClass.TRULY_PERIODIC
    st = standard_torus(1.0, 2.0).spec
    assert periodicity_class(st.lattice, st.beta0) is PeriodicityClass.ANTI_PERIODIC
    # hexagonal-dual torus: slope 2 has half 1 in the dual lattice, which
    # here is the hexagonal one
    rh = rhombic_torus().spec
    assert periodicity_class(rh.lattice, 2.0) is PeriodicityClass.TRULY_PERIODIC


def test_period_lattice_square_torus():
    spec = standard_torus(1.0, 1.0).spec
    rep = period_lattice(spec)
    assert rep.rank == 2
    assert rep.delta.same_lattice(spec.lattice)
    assert not rep.multiple_cover


def test_period_lattice_rhombic_not_a_cover():
    spec = rhombic_torus().spec
    rep = period_lattice(spec)
    assert rep.delta.same_lattice(spec.lattice)
    assert not rep.multiple_cover
    # the dual span contains both hexagonal generators
    omega = np.exp(1j * np.pi / 3)
    assert rep.delta_dual.contains(1.0)
    assert rep.delta_dual.contains(omega)


def test_period_lattice_twofold_cover():
    # truly periodic square spec: always covers the half-density lattice
    lat = Lattice.square()
    spec = TorusSpec.build(lat, 2.0, {1j: 1.0 + 0j, -1j: 1.0 + 0j})
    rep = period_lattice(spec)
    delta0 = Lattice((1 - 1j) / 2, (1 + 1j) / 2)
    assert delta0.is_sublattice_of(rep.delta)
    assert rep.multiple_cover


def test_period_lattice_single_frequency_has_full_rank():
    # one frequency still spans rank 2: the two shifted generators are
    # never collinear on the circle
    lat = Lattice.square()
    spec = TorusSpec.build(lat, 2.0, {1j: 1.0 + 0j})
    rep = period_lattice(spec)
    assert rep.rank == 2


def test_period_lattice_empty_spectrum():
    lat = Lattice.square()
    spec = TorusSpec(lat, 2.0, {})
    with pytest.raises(EmptySpectrum):
        period_lattice(spec)


PROPERTY_LATTICES = {"square": Lattice.square(),
                     "hexagonal": Lattice(1.0, np.exp(1j * np.pi / 3)),
                     "rectangular": Lattice(1.0, 1.7j)}


@settings(max_examples=30, derandomize=True, deadline=None)
@given(kind=st.sampled_from(sorted(PROPERTY_LATTICES)),
       slope=st.tuples(st.integers(-3, 3), st.integers(-3, 3))
       .filter(lambda nm: nm != (0, 0)),
       shift=st.complex_numbers(max_magnitude=1.0), data=st.data())
def test_period_lattice_generators_are_periods_property(kind, slope, shift,
                                                         data):
    lat = PROPERTY_LATTICES[kind]
    dl = lat.dual()
    beta0 = slope[0] * dl.g1 + slope[1] * dl.g2
    freqs = list(enumerate_frequencies(lat, beta0))
    if not freqs:
        return
    active = data.draw(st.lists(st.sampled_from(freqs), min_size=1,
                                unique=True))
    coeffs = data.draw(st.lists(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
        min_size=len(active), max_size=len(active)))
    spec = TorusSpec.build(lat, beta0, dict(zip(active, coeffs)))
    rep = period_lattice(spec)
    if rep.rank != 2:
        return
    zs = lat.grid(3) + 0.1 + 0.2j
    x = immerse(spec, zs)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(x))))
    for p in (rep.delta.g1, rep.delta.g2):
        assert np.max(np.abs(immerse(spec, zs + p) - x)) <= tol
    # a basepoint translation only rotates the mode phases: same frequencies,
    # so the same period lattice
    moved = TorusSpec.build(lat, beta0, {
        g: a * np.exp(2j * np.pi * dot_r2(g, shift)) for g, a in spec.items()})
    rotation = exp_g2(np.pi * dot_r2(beta0, shift))
    got = immerse(moved, zs) @ rotation.T
    assert np.max(np.abs(immerse(spec, zs + shift) - got)) <= tol
    back = period_lattice(moved)
    assert back.rank == 2 and back.multiple_cover == rep.multiple_cover
    assert back.delta.same_lattice(rep.delta)
    assert back.delta_dual.same_lattice(rep.delta_dual)


def test_integer_span_lattice_reduction():
    base = Lattice.square()
    span, rank = integer_span_lattice([2.0, 4j, 2 + 2j], base)
    assert rank == 2
    assert span.contains(2.0) and span.contains(2j)
    assert not span.contains(1.0)
    # below rank 2 there is no lattice: collinear points, or none
    assert integer_span_lattice([2.0, 4.0, -6.0], base) == (None, 1)
    assert integer_span_lattice([3j, 0.0], base) == (None, 1)
    assert integer_span_lattice([], base) == (None, 0)
    # the 2 x 2 minors of these rows have gcd 4, the span's index in Z[i]
    vecs = [2 + 4j, 6 + 2j, 6j]
    span, rank = integer_span_lattice(vecs, base)
    assert rank == 2 and np.all(span.contains(vecs))
    assert abs(np.linalg.det(span.basis_matrix())) == pytest.approx(4.0)


def test_lattice_from_config_fractions():
    lat = Lattice.from_config({"g1": ["3/2", "0"], "g2": ["0", "1/3"]})
    assert abs(lat.g1 - 1.5) < 1e-15
    assert abs(lat.g2 - 1j / 3) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 16, 128, 256])
def test_grid_matches_meshgrid_formula(n):
    s = np.arange(n) / n
    ss, tt = np.meshgrid(s, s, indexing="ij")
    for scale in (1.0, 1e3):
        for lat in (Lattice(scale, scale * 1j),
                    Lattice(scale, scale * np.exp(1j * np.pi / 3)),
                    Lattice(scale * (1.3 - 0.2j), scale * (0.4 + 0.9j))):
            ref = ss * lat.g1 + tt * lat.g2
            assert np.array_equal(lat.grid(n).view(float), ref.view(float))


def _marked(z):
    return getattr(z, "affine", False)


def test_scalar_shift_keeps_the_affine_mark():
    z = Lattice(1.3 - 0.2j, 0.4 + 0.9j).grid(6)
    ref = np.array(z)
    assert _marked(z)
    for c in (0.25 - 0.5j, 1e-5, np.float64(2.0), np.array(3j)):
        for shifted, want in ((z + c, ref + c), (c + z, c + ref),
                              (z - c, ref - c), (c - z, c - ref)):
            assert _marked(shifted) and not shifted.flags.writeable
            assert np.array_equal(shifted, want)


def test_every_other_operation_drops_the_affine_mark():
    z = affine_grid(np.arange(5) * 0.2, np.arange(4) * 0.3j)
    other = np.ones(z.shape)
    for out in (z[1:], z[:, 0], z.T, z.reshape(-1), z[[0, 2]], z.copy(),
                np.asarray(z), z * 2, z + other, np.add(z, other), z + z,
                np.conj(z), z.real):
        assert not _marked(out)


def test_affine_grid_is_read_only():
    z = Lattice.square().grid(4)
    with pytest.raises(ValueError):
        z[0, 0] = 0
    with pytest.raises(ValueError):
        z += 1
    assert np.array_equal(z, Lattice.square().grid(4))
