import json
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamstat.algebra import L_J
from hamstat.cli import (_BLOCK_ROWS, _face_block, _write_obj, _write_ply, main,
                         parse_complex)
from hamstat.finitetype import standard_torus_killing_seed
from hamstat.tori import standard_torus


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "std.json"
    path.write_text(standard_torus(1.0, 1.0).spec.to_json())
    return str(path)


@pytest.fixture
def seed_file(tmp_path):
    seed = standard_torus_killing_seed(1.0, 1.0)
    lat = seed.spec.lattice
    payload = {"field": seed.field.to_dict(),
               "lattice": {"g1": [lat.g1.real, lat.g1.imag],
                           "g2": [lat.g2.real, lat.g2.imag]}}
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(payload))
    return str(path)


def assert_input_error(argv, capsys):
    """The command exits 2 with a one-line error, no traceback and no
    warning (which the command line would print on stderr)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as err:
            main(argv)
    assert err.value.code == 2
    assert not caught, [str(w.message) for w in caught]
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert captured.out == ""


def test_parse_complex_forms():
    assert parse_complex("1+1i") == 1 + 1j
    assert parse_complex("2") == 2.0
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("0.3,0.4") == 0.3 + 0.4j


def test_enumerate_text_and_json(capsys):
    rc = main(["enumerate", "--g1", "1", "--g2", "1i", "--beta0", "1+1i",
               "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 2
    assert data["moduli_dimension"] == 9
    assert data["periodicity"] == "anti-periodic"


def test_enumerate_hexagonal_includes_sixth_roots(capsys):
    # lattice with hexagonal dual: generators computed from the dual basis
    from hamstat.lattices import Lattice
    lat = Lattice(1.0, np.exp(1j * np.pi / 3)).dual()
    rc = main(["enumerate", "--g1", f"{lat.g1.real}{lat.g1.imag:+}i",
               "--g2", f"{lat.g2.real}{lat.g2.imag:+}i", "--beta0", "2",
               "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    pts = {(round(p[0], 6), round(p[1], 6)) for p in data["frequencies"]}
    omega = np.exp(1j * np.pi / 3)
    assert (round(omega.real, 6), round(omega.imag, 6)) in pts
    assert (round((omega ** 2).real, 6), round((omega ** 2).imag, 6)) in pts


def test_enumerate_bad_slope_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--g1", "1", "--g2", "1i", "--beta0", "0.3+0.4i"])
    assert err.value.code == 2


def test_enumerate_config_file_with_fractions(tmp_path, capsys):
    cfg = tmp_path / "lattice.json"
    cfg.write_text(json.dumps({"lattice": {"g1": ["1", "0"], "g2": ["0", "1"]},
                               "beta0": [1.0, 1.0]}))
    rc = main(["enumerate", "--config", str(cfg), "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


def test_mesh_obj_watertight(tmp_path, spec_file, capsys):
    out = tmp_path / "mesh.obj"
    rc = main(["mesh", spec_file, "--grid", "16", "--out", str(out)])
    assert rc == 0
    verts = faces = 0
    edges = set()
    for line in out.read_text().splitlines():
        if line.startswith("v "):
            verts += 1
        elif line.startswith("f "):
            faces += 1
            idx = [int(t) - 1 for t in line.split()[1:]]
            for a, b in zip(idx, idx[1:] + idx[:1]):
                edges.add((min(a, b), max(a, b)))
    assert verts == 16 * 16 == faces
    assert verts - len(edges) + faces == 0      # closed genus-one mesh


def test_mesh_deterministic(tmp_path, spec_file):
    out1, out2 = tmp_path / "a.obj", tmp_path / "b.obj"
    main(["mesh", spec_file, "--grid", "12", "--out", str(out1)])
    main(["mesh", spec_file, "--grid", "12", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_mesh_ply_and_stereo(tmp_path, spec_file):
    out = tmp_path / "mesh.ply"
    rc = main(["mesh", spec_file, "--grid", "12", "--format", "ply",
               "--project", "stereo", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("ply")
    assert "element vertex 144" in text


def test_mesh_stereo_pole_error(tmp_path):
    # a spec whose surface passes near the projection pole on the sphere:
    # the standard torus divided by its norm hits the pole when x2 = x4
    # direction aligns; easier: drop projection with invalid index
    path = tmp_path / "std.json"
    path.write_text(standard_torus(1.0, 1.0).spec.to_json())
    with pytest.raises(SystemExit) as err:
        main(["mesh", str(path), "--grid", "8", "--project", "drop:7",
              "--out", str(tmp_path / "x.obj")])
    assert err.value.code == 2


def test_verify_pass_and_fail(tmp_path, spec_file, capsys):
    rc = main(["verify", spec_file, "--grid", "32"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["pass"]
    # corrupt the spec: move a coefficient off its admissible value by
    # breaking the lattice (stretch generators so beta0 leaves the dual)
    with open(spec_file) as fh:
        data = json.load(fh)
    data["coefficients"][0]["re"] *= 1.7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    # unequal coefficients still give a stationary surface; instead check
    # that a malformed file errors with exit 2
    data.pop("beta0")
    bad.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as err:
        main(["verify", str(bad)])
    assert err.value.code == 2


def test_verify_passes_on_a_homothety(tmp_path, capsys):
    # the surface scaled by 1000 is as stationary as the unit one
    spec = standard_torus(1.0, 1.0).spec.to_dict()
    for coeff in spec["coefficients"]:
        coeff["re"] *= 1000.0
        coeff["im"] *= 1000.0
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    assert main(["verify", str(path), "--grid", "32"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_main_keeps_no_state_between_calls(tmp_path, spec_file, capsys):
    # one parser serves every call: flags of one call must not reach the next
    ply, obj = tmp_path / "a.ply", tmp_path / "b.obj"
    assert main(["mesh", spec_file, "--grid", "4", "--format", "ply",
                 "--out", str(ply)]) == 0
    assert main(["mesh", spec_file, "--grid", "4", "--out", str(obj)]) == 0
    assert ply.read_bytes().startswith(b"ply\n")
    assert obj.read_bytes().startswith(b"# spec ")
    capsys.readouterr()
    assert main(["verify", spec_file, "--grid", "8", "--tol", "0.5"]) in (0, 1)
    loose = json.loads(capsys.readouterr().out)["reports"]
    assert main(["family", spec_file, "--grid", "4", "--format", "ply",
                 "--out", str(tmp_path / "fam")]) == 0
    capsys.readouterr()
    assert main(["family", spec_file, "--grid", "4",
                 "--out", str(tmp_path / "fam")]) == 0
    member = json.loads(capsys.readouterr().out)["members"][0]
    assert member["mesh"].endswith(".obj") and "period_defects" in member
    assert main(["verify", spec_file, "--grid", "8"]) in (0, 1)
    strict = json.loads(capsys.readouterr().out)["reports"]
    assert {r["threshold"] for r in loose} == {0.5}
    assert {r["threshold"] for r in strict} == {1e-5, 1e-6}


def test_family_reports_monodromy(spec_file, capsys):
    rc = main(["family", spec_file, "--lambda", "1,0.70710678118654757+0.70710678118654746i"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["members"][0]["periodic"]
    assert not data["members"][1]["periodic"]


def test_family_mesh_output(tmp_path, spec_file, capsys):
    rc = main(["family", spec_file, "--lambda", "1", "--grid", "8",
               "--out", str(tmp_path / "fam")])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert "mesh" in data["members"][0]
    # the unit member coincides with the plain mesh export (the two code
    # paths differ only in rounding)
    main(["mesh", spec_file, "--grid", "8", "--out", str(tmp_path / "plain.obj")])
    capsys.readouterr()

    def verts(path):
        with open(path) as fh:
            return np.array([[float(t) for t in l.split()[1:]]
                             for l in fh if l.startswith("v ")])

    diff = verts(data["members"][0]["mesh"]) - verts(tmp_path / "plain.obj")
    assert np.max(np.abs(diff)) < 1e-12


def test_lax_subcommand(seed_file, capsys):
    rc = main(["lax", seed_file, "--grid", "4", "--steps", "1024"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["isospectral_drift"] <= 1e-8
    assert out["top_coefficient_drift"] <= 1e-10
    # the CLI path: --grid steps along g1, then along g2, at step diam/--steps
    lat = standard_torus_killing_seed(1.0, 1.0).spec.lattice
    step = lat.diameter() / 1024
    path = [0.0] + [i / 4 * lat.g1 for i in range(1, 5)]
    path += [lat.g1 + i / 4 * lat.g2 for i in range(1, 5)]
    assert out["rk_steps"] == sum(max(1, math.ceil(abs(b - a) / step))
                                  for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("grid", ["0", "1", "2"])
def test_verify_grid_too_small(spec_file, capsys, grid):
    assert_input_error(["verify", spec_file, "--grid", grid], capsys)


@pytest.mark.parametrize("grid", ["0", "2"])
def test_mesh_grid_too_small(tmp_path, spec_file, capsys, grid):
    out = tmp_path / "mesh.obj"
    assert_input_error(["mesh", spec_file, "--grid", grid, "--out", str(out)],
                       capsys)
    assert not out.exists()


def test_family_grid_too_small(tmp_path, spec_file, capsys):
    assert_input_error(["family", spec_file, "--grid", "2",
                        "--out", str(tmp_path / "fam")], capsys)


def test_smallest_accepted_grid(tmp_path, spec_file, capsys):
    assert main(["verify", spec_file, "--grid", "3"]) in (0, 1)
    assert main(["mesh", spec_file, "--grid", "3",
                 "--out", str(tmp_path / "m.obj")]) == 0


@pytest.mark.parametrize("flag", ["--grid", "--steps"])
def test_lax_counts_below_one(seed_file, capsys, flag):
    assert_input_error(["lax", seed_file, flag, "0"], capsys)


@pytest.mark.parametrize("k", [-3, 3])
def test_lax_seed_exponent_out_of_range(seed_file, capsys, k):
    with open(seed_file) as fh:
        payload = json.load(fh)
    payload["field"]["coefficients"][0]["k"] = k      # degree-2 seed
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    assert_input_error(["lax", seed_file], capsys)


def test_lax_seed_non_numeric_entry(seed_file, capsys):
    with open(seed_file) as fh:
        payload = json.load(fh)
    payload["field"]["coefficients"][0]["translation"][0] = [None, 0.0]
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    assert_input_error(["lax", seed_file], capsys)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_lax_seed_non_finite_entry(seed_file, capsys, value):
    with open(seed_file) as fh:
        payload = json.load(fh)
    payload["field"]["coefficients"][0]["translation"][0] = [value, 0.0]
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    assert_input_error(["lax", seed_file], capsys)


def test_lax_seed_off_algebra_rotation(seed_file, capsys):
    # an L_j rotation coefficient lies outside u(2) (x) C |x C^4
    with open(seed_file) as fh:
        payload = json.load(fh)
    rec = payload["field"]["coefficients"][0]
    rec["rotation"] = [[[v, 0.0] for v in row] for row in L_J.tolist()]
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    assert_input_error(["lax", seed_file], capsys)


@pytest.mark.parametrize("lams", ["1,0.6+0.8x", "1,", "1,0.6+0.8i+"])
def test_family_malformed_lambda(spec_file, capsys, lams):
    assert_input_error(["family", spec_file, "--lambda", lams], capsys)


def test_family_exact_unit_lambda(spec_file, capsys):
    assert main(["family", spec_file, "--lambda", "1,0.6+0.8i"]) == 0
    members = json.loads(capsys.readouterr().out)["members"]
    assert [m["lambda"] for m in members] == [[1.0, 0.0], [0.6, 0.8]]


def _spec_with(edit):
    data = standard_torus(1.0, 1.0).spec.to_dict()
    edit(data)
    return data


@pytest.mark.parametrize("payload", [
    _spec_with(lambda d: d["coefficients"][0].update(re=None)),
    _spec_with(lambda d: d.update(coefficients="x")),
    _spec_with(lambda d: d.update(lattice=[1, 2])),
    _spec_with(lambda d: d.update(beta0=[1])),
    _spec_with(lambda d: d["coefficients"][0].update(gamma="ab")),
    [1, 2],
    _spec_with(lambda d: d["coefficients"][0].update(re=float("nan"))),
    _spec_with(lambda d: d["coefficients"][0].update(im=float("inf"))),
    _spec_with(lambda d: d["coefficients"][1].update(re=float("-inf"))),
    # finite, but its squared modulus overflows
    _spec_with(lambda d: d["coefficients"][0].update(re=1e308)),
    # its square is finite, but the metric determinant (its fourth power)
    # is not
    _spec_with(lambda d: d["coefficients"][0].update(re=1e150)),
    # a search box of 8e24 candidates: refused before anything is allocated
    _spec_with(lambda d: d.update(beta0=[1e12, 1e12])),
    _spec_with(lambda d: d["lattice"].update(g1=[1e300, 0.0])),
    _spec_with(lambda d: d["lattice"].update(g1=[float("inf"), 0.0])),
    # |beta0| overflows: Python abs() would raise OverflowError
    _spec_with(lambda d: d.update(beta0=[1.7e308, 1.7e308])),
    _spec_with(lambda d: d.update(beta0=[float("inf"), 0.0])),
    # finite generators whose dual basis underflows
    _spec_with(lambda d: d["lattice"].update(g1=[1.7e308, 1.7e308],
                                             g2=[-1.7e308, 1.7e308])),
], ids=["re-null", "coefficients-string", "lattice-list", "beta0-short",
        "gamma-string", "top-level-list", "re-nan", "im-inf", "re-minus-inf",
        "re-huge", "re-1e150",
        "beta0-huge", "g1-huge", "g1-inf", "beta0-overflow", "beta0-inf",
        "dual-underflow"])
def test_malformed_spec_is_input_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    mesh = tmp_path / "bad.obj"
    for argv in (["verify", str(path)], ["family", str(path)],
                 ["mesh", str(path), "--out", str(mesh)]):
        assert_input_error(argv, capsys)
    assert not mesh.exists()


# --- mesh writers --------------------------------------------------------------

def _reference_faces(n):
    faces = []
    for i in range(n):
        for j in range(n):
            a = i * n + j
            b = ((i + 1) % n) * n + j
            c = ((i + 1) % n) * n + (j + 1) % n
            d = i * n + (j + 1) % n
            faces.append((a, b, c, d))
    return faces


def _reference_obj(path, verts, n, header):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for v in verts:
            fh.write(f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}\n")
        for f in _reference_faces(n):
            fh.write("f " + " ".join(str(i + 1) for i in f) + "\n")


def _reference_ply(path, verts, n, header):
    faces = _reference_faces(n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"comment {header}\n")
        fh.write(f"element vertex {len(verts)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write(f"element face {len(faces)}\n")
        fh.write("property list uchar int vertex_indices\nend_header\n")
        for v in verts:
            fh.write(f"{v[0]:.12g} {v[1]:.12g} {v[2]:.12g}\n")
        for f in faces:
            fh.write("4 " + " ".join(str(i) for i in f) + "\n")


@pytest.mark.parametrize("n", [3, 64, 256])
def test_mesh_writers_match_per_line_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    verts = (rng.choice([-1.0, 1.0], size=(n * n, 3))
             * 10.0 ** rng.uniform(-8, 8, size=(n * n, 3)))
    verts[0] = [0.0, -0.0, 1e-8]
    verts[-1] = [1e8, -1e8, 0.1]
    writers = {"obj": (_write_obj, _reference_obj),
               "ply": (_write_ply, _reference_ply)}
    for order in (("ply", "obj"), ("obj", "ply")):
        _face_block.cache_clear()            # each order starts cold
        for fmt in order:
            ours, ref = writers[fmt]
            ours(tmp_path / f"ours.{fmt}", verts, n, f"test {n}")
            ref(tmp_path / f"ref.{fmt}", verts, n, f"test {n}")
            assert ((tmp_path / f"ours.{fmt}").read_bytes()
                    == (tmp_path / f"ref.{fmt}").read_bytes()), (order, fmt)


def _assert_writers_match_reference(tmp_path, verts, n=3):
    for fmt, ours, ref in (("obj", _write_obj, _reference_obj),
                           ("ply", _write_ply, _reference_ply)):
        ours(tmp_path / f"ours.{fmt}", verts, n, "case")
        ref(tmp_path / f"ref.{fmt}", verts, n, "case")
        assert ((tmp_path / f"ours.{fmt}").read_bytes()
                == (tmp_path / f"ref.{fmt}").read_bytes()), fmt


def _power_of_ten_neighbours():
    """A few ulps either side of the double nearest 10^k, k = -5..3."""
    out = []
    for k in range(-5, 4):
        x = float(f"1e{k}")
        below = above = x
        out.append(x)
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            out += [below, above]
    return out


def _dyadic_ties():
    """Doubles k / 2^p whose exact decimal value has 13 significant digits
    ending in 5, so "%.12g" rounds a true tie (half to even): with p = 12 - e
    an odd k in [10^e 2^p, 10^(e+1) 2^p) has exactly that form."""
    out = []
    for e in range(-5, 4):
        p = 12 - e
        low = math.ceil(Decimal(10) ** e * 2 ** p) | 1
        high = math.ceil(Decimal(10) ** (e + 1) * 2 ** p)
        for k in range(low, min(low + 40, high), 2):
            exact = Decimal(k) / Decimal(2 ** p)
            digits = exact.as_tuple().digits
            assert len(digits) == 13 and digits[-1] == 5, exact
            assert exact == Decimal(k / 2 ** p)           # a double
            out.append(k / 2 ** p)
    return out


FIXED_VALUES = ([0.0, -0.0, math.nan, math.inf, -math.inf]
                + _power_of_ten_neighbours() + _dyadic_ties()
                + [9.9999999999996, 9.99999999999949, 99.9999999999996,
                   999.99999999999, 999.999999999499, 999.9999999995,
                   0.0999999999999996, 0.000999999999999996,
                   0.0000999999999999996, 1e-4 * 0.99999999999996])


def test_vertex_text_fixed_cases(tmp_path):
    values = np.array(FIXED_VALUES)
    values = np.concatenate([values, -values])
    if len(values) % 3:
        values = np.concatenate([values, np.zeros(3 - len(values) % 3)])
    rows = values.reshape(-1, 3)
    for shift in range(3):                  # each value in every column
        _assert_writers_match_reference(tmp_path, np.roll(rows, shift, axis=1))


@pytest.mark.parametrize("count", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                   _BLOCK_ROWS + 1])
def test_vertex_text_block_edges(tmp_path, count):
    rng = np.random.default_rng(count)
    verts = rng.uniform(-3.0, 3.0, size=(count, 3))
    # exact-path values on both sides of the first block boundary
    for row in (_BLOCK_ROWS - 1, _BLOCK_ROWS):
        if row < count:
            verts[row] = [0.0, math.nan, 1e300]
    _assert_writers_match_reference(tmp_path, verts)


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(st.floats(), st.floats(-1e3, 1e3),
                          st.floats(-1e-3, 1e-3)),
                min_size=3, max_size=300).map(
                    lambda xs: np.array(xs[:len(xs) // 3 * 3]).reshape(-1, 3)))
def test_vertex_text_matches_per_line_reference_property(tmp_path, verts):
    _assert_writers_match_reference(tmp_path, verts)
