import json
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import spec_vanishing_at
from hamstat import finitetype, weierstrass
from hamstat.algebra import L_J
from hamstat.cli import (_BLOCK_ROWS, MAX_GRID, _face_block, _write_mesh_file,
                         main, parse_complex)
from hamstat.finitetype import (lax_integrate, rhombic_killing_seed,
                                standard_torus_killing_seed)
from hamstat.lattices import Lattice
from hamstat.tori import standard_torus
from hamstat.weierstrass import spinor_u


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
    argv = ["enumerate", "--g1", "1", "--g2", "1i", "--beta0", "1+1i"]
    assert main(argv) == 0                  # the README's example
    assert capsys.readouterr().out.splitlines() == [
        "beta0 = (1+1j)  [anti-periodic]",
        "count = 2   moduli dimension = 9",
        "  +0.5 -0.5i",
        "  -0.5 +0.5i"]
    assert main(argv + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 2
    assert data["moduli_dimension"] == 9
    assert data["periodicity"] == "anti-periodic"


def test_enumerate_hexagonal_includes_sixth_roots(capsys):
    # lattice with hexagonal dual: generators computed from the dual basis
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


@pytest.mark.parametrize("config", [
    # the third entry used to be dropped silently
    {"lattice": {"g1": [1, 0], "g2": [0, 1]}, "beta0": [1, 1, 99]},
    # indexing a list by key used to end in a TypeError traceback
    [1, 2],
    # a generator is a [re, im] pair: complex() called "3/2" malformed
    # and read 1.5 as a real generator
    {"lattice": {"g1": "3/2", "g2": [0, 1]}, "beta0": [1, 1]},
    {"lattice": {"g1": 1.5, "g2": [0, 1]}, "beta0": [1, 1]},
    # JSON true used to read as 1
    {"lattice": {"g1": [1, 0], "g2": [0, 1]}, "beta0": [True, True]},
], ids=["beta0-three", "top-level-list", "g1-fraction-string", "g1-number",
        "beta0-true"])
def test_enumerate_config_is_input_error(tmp_path, capsys, config):
    cfg = tmp_path / "lattice.json"
    cfg.write_text(json.dumps(config))
    assert_input_error(["enumerate", "--config", str(cfg)], capsys)


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


def test_mesh_warns_when_the_spinor_vanishes_on_the_grid(tmp_path, capsys):
    # u vanishes at a point of the 16 x 16 lattice grid that both the
    # regularity scan and the mesh sample
    spec = tmp_path / "zero.json"
    spec.write_text(spec_vanishing_at(5 / 16 + 3j / 16).to_json())
    out = tmp_path / "mesh.obj"
    rc = main(["mesh", str(spec), "--grid", "16", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("warning: grid may be degenerate")
    verts = sum(line.startswith("v ") for line in out.read_text().splitlines())
    assert verts == 256


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


def test_mesh_drop_index_out_of_range_is_input_error(tmp_path):
    # drop:7 names no coordinate of R^4
    path = tmp_path / "std.json"
    path.write_text(standard_torus(1.0, 1.0).spec.to_json())
    with pytest.raises(SystemExit) as err:
        main(["mesh", str(path), "--grid", "8", "--project", "drop:7",
              "--out", str(tmp_path / "x.obj")])
    assert err.value.code == 2


@pytest.mark.parametrize("point, message", [
    ((0.0, 0.0, 0.0, 0.0), "stereo projection undefined: surface meets 0"),
    ((2.5, 0.0, 0.0, 0.0), "stereo projection hits the pole")])
def test_mesh_stereo_refuses_origin_and_pole(tmp_path, spec_file, capsys,
                                             monkeypatch, point, message):
    # one grid point of the patched surface sits at 0 or on the positive x1
    # axis, which the normalized points send to the pole (1, 0, 0, 0)
    def immerse(spec, z):
        x = np.ones(np.shape(z) + (4,))
        x[1, 2] = point
        return x

    monkeypatch.setattr(weierstrass, "immerse", immerse)
    with pytest.raises(SystemExit) as err:
        main(["mesh", spec_file, "--grid", "8", "--project", "stereo",
              "--out", str(tmp_path / "m.obj")])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not (tmp_path / "m.obj").exists()


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
    # the CLI path: --grid segments along g1, then along g2, with flow steps
    # of at least diam/--steps
    seed = standard_torus_killing_seed(1.0, 1.0)
    lat = seed.spec.lattice
    path = [i / 4 * lat.g1 for i in range(1, 5)]
    path += [lat.g1 + i / 4 * lat.g2 for i in range(1, 5)]
    res = lax_integrate(seed.field, path, step=lat.diameter() / 1024)
    assert out["steps"] == res.steps >= 8
    assert out["truncation_spill"] == res.max_spill


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


@pytest.mark.parametrize("k", [-3, 3, math.inf, -math.inf, -1.5, True])
def test_lax_seed_exponent_out_of_range(seed_file, capsys, k):
    # int() raised OverflowError on an infinity, moved -1.5 onto exponent -1
    # and read true as exponent 1
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


@pytest.mark.parametrize("path, value", [
    (("field", "coefficients", 0, "rotation", 0, 0), "x"),
    (("field", "coefficients", 0, "translation", 0), []),
    (("lattice", "g1"), [1]),
    (("field", "coefficients", 0, "rotation", 0, 0), [False, 0.0]),
    (("field", "coefficients", 0, "translation", 0), [0.0, False]),
    (("lattice", "g1"), [True, 0.0]),
    # the k = -1 record carries the spinor translation
    (("field", "coefficients", 1, "translation"), [[0.0, 0.0]]),
    (("field", "coefficients", 1, "rotation"), [[[0.0, 0.0]] * 4]),
], ids=["rotation-string", "translation-empty", "lattice-one-number",
        "rotation-false", "translation-false", "lattice-true",
        "translation-one-pair", "rotation-one-row"])
def test_lax_seed_entry_not_a_pair(seed_file, capsys, path, value):
    # indexing such an entry unchecked ends in an IndexError traceback, a
    # JSON boolean used to read as the number 1 or 0, and one translation
    # pair or one rotation row was broadcast to all four (a zero pair
    # silently flowed a zero translation)
    with open(seed_file) as fh:
        payload = json.load(fh)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    assert_input_error(["lax", seed_file], capsys)


@pytest.mark.parametrize("degree", [0, 1e12, float("inf")],
                         ids=["0", "1e12", "inf"])
def test_lax_seed_degree_out_of_range(seed_file, capsys, degree):
    # unchecked, degree 0 failed in the first Lax stage's matmul, and the
    # dense field of 2 degree + 1 rows was allocated: a MemoryError, or an
    # OverflowError from int(inf)
    with open(seed_file) as fh:
        payload = json.load(fh)
    payload["field"]["degree"] = degree
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    assert_input_error(["lax", seed_file], capsys)


@pytest.mark.parametrize("degree", [2.5, 3.9])
def test_lax_seed_degree_not_integral(seed_file, capsys, degree):
    # int() alone flowed these as degree 2 and 3 and exited 0
    with open(seed_file) as fh:
        payload = json.load(fh)
    payload["field"]["degree"] = degree
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    assert_input_error(["lax", seed_file], capsys)


def test_lax_seed_degree_integral_float(seed_file, capsys):
    with open(seed_file) as fh:
        payload = json.load(fh)
    payload["field"]["degree"] = 2.0
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    assert main(["lax", seed_file, "--grid", "1", "--steps", "64"]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 2


@pytest.mark.parametrize("g1", [1e6, 1e12], ids=["1e6", "1e12"])
def test_lax_flow_overflow(seed_file, capsys, g1):
    # the flow along a segment this long needs steps far below diameter / 64;
    # under fixed-step RK4 it overflowed, which unguarded warned and ended in
    # a LinAlgError traceback from isospectral_drift
    with open(seed_file) as fh:
        payload = json.load(fh)
    payload["lattice"]["g1"] = [g1, 0.0]
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    assert_input_error(["lax", seed_file, "--grid", "1", "--steps", "64"],
                       capsys)


def _run_lax(seed_file, payload, argv, capsys):
    """Exit code, stdout and stderr of `lax` on the payload."""
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    try:
        rc = main(["lax", seed_file, *argv])
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} in the JSON output")


@pytest.mark.parametrize("steps", [["--steps", "64"], []],
                         ids=["steps64", "default"])
@pytest.mark.parametrize("g", [80, 100, 200, 1e3])
def test_lax_long_lattice_flow_is_right_or_refused(seed_file, capsys, g,
                                                   steps):
    # fixed-step RK4 at --steps 64 passed g = 80, 100 and 200 with fields off
    # by 6.4, 4.5e19 and 5.9e106, and called g = 1e3 a failed verification
    with open(seed_file) as fh:
        payload = json.load(fh)
    payload["lattice"]["g1"] = [g, 0.0]
    rc, out, err = _run_lax(seed_file, payload, ["--grid", "1", *steps],
                            capsys)
    if rc == 2:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and not out
        return
    assert rc == 0 and not err
    seed = standard_torus_killing_seed(1.0, 1.0)
    lat = Lattice(g, seed.spec.lattice.g2)
    res = lax_integrate(seed.field, [lat.g1, lat.g1 + lat.g2],
                        step=lat.diameter() / int(steps[1] if steps else 2048))
    assert json.loads(out)["steps"] == res.steps
    for z, f in zip(res.points, res.fields):
        assert np.max(np.abs(f.coeff(-1)[1] - spinor_u(seed.spec, z))) < 1e-12


@pytest.mark.parametrize("g", [80, 100, 200, 1e3, 1e6])
def test_lax_stationary_leg_takes_one_step(seed_file, capsys, g):
    # the standard seed's field does not move along g1 = g on the real
    # axis: each of the 8 segments there is one step, so the default floor
    # (diameter / 2048) holds up to g = 1e6; read as decay, the rounding
    # there takes 39 and 320 steps at g = 80 and 1e3, with spills of 1e-11,
    # and refuses g = 1e6
    with open(seed_file) as fh:
        payload = json.load(fh)
    payload["lattice"]["g1"] = [g, 0.0]
    rc, out, err = _run_lax(seed_file, payload, [], capsys)
    assert rc == 0 and not err
    seed = standard_torus_killing_seed(1.0, 1.0)
    lat = Lattice(g, seed.spec.lattice.g2)
    path = [i / 8 * lat.g1 for i in range(1, 9)]
    path += [lat.g1 + i / 8 * lat.g2 for i in range(1, 9)]
    res = lax_integrate(seed.field, path, step=lat.diameter() / 2048)
    assert json.loads(out)["steps"] == res.steps
    assert res.steps < 2 * 8 + 8 and res.max_spill < 1e-14
    for z, f in zip(res.points, res.fields):
        assert np.max(np.abs(f.coeff(-1)[1] - spinor_u(seed.spec, z))) < 1e-12


LAX_FUZZ_VALUES = [0, -1, 5e-324, 1e12, 1e55, 1e70, 1.7e308, math.nan,
                   math.inf, -math.inf, "x", None, [], [1], {}, True]


def test_lax_seed_file_fuzz(seed_file, capsys):
    # one leaf at a time of the degree, the lattice and each coefficient
    # record (its exponent, a rotation pair and a translation pair) takes
    # each value; every run ends in a result or a one-line input error
    with open(seed_file) as fh:
        payload = json.load(fh)
    paths = [("field", "degree")]
    paths += [("lattice", g, i) for g in ("g1", "g2") for i in (0, 1)]
    for j in range(len(payload["field"]["coefficients"])):
        rec = ("field", "coefficients", j)
        paths += [rec + ("k",), rec + ("rotation", 0, 1, 0),
                  rec + ("rotation", 0, 1, 1), rec + ("translation", 0, 0)]
    failures = []
    for path in paths:
        for value in LAX_FUZZ_VALUES:
            edited = json.loads(json.dumps(payload))
            parent = edited
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            try:
                rc, out, err = _run_lax(seed_file, edited,
                                        ["--grid", "1", "--steps", "64"],
                                        capsys)
                lines = err.strip().splitlines()
                if rc == 2:
                    ok = (len(lines) == 1 and lines[0].startswith("error:")
                          and not out)
                else:
                    ok = rc in (0, 1) and not err and isinstance(
                        json.loads(out, parse_constant=_reject_constant), dict)
            except Exception as exc:          # noqa: BLE001 - reported below
                ok, rc = False, repr(exc)
            if not ok:
                failures.append((path, value, rc))
    assert not failures, failures


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


@pytest.mark.parametrize("make", [lambda: standard_torus_killing_seed(1.0, 1.0),
                                  rhombic_killing_seed],
                         ids=["standard", "rhombic"])
def test_lax_refuses_a_seed_off_the_twisted_real_loops(seed_file, capsys, make):
    # +0.3 on one entry of the k = -1 translation moves neither drift the
    # exit code reads: every drift read 0.0 and the run exited 0, with a
    # truncation spill near 1, while the twist and reality residuals read 0.3
    seed = make()
    lat = seed.spec.lattice
    payload = {"field": seed.field.to_dict(),
               "lattice": {"g1": [lat.g1.real, lat.g1.imag],
                           "g2": [lat.g2.real, lat.g2.imag]}}
    rc, out, err = _run_lax(seed_file, payload, [], capsys)
    assert rc == 0 and not err and json.loads(out)["truncation_spill"] < 1e-13
    rec = next(r for r in payload["field"]["coefficients"] if r["k"] == -1)
    rec["translation"][0][0] += 0.3
    with open(seed_file, "w") as fh:
        json.dump(payload, fh)
    assert_input_error(["lax", seed_file], capsys)


def test_lax_refuses_a_seed_off_the_li_commutant_as_untwisted(seed_file,
                                                             capsys):
    # 0.1 L_j at k = 0 is real and in the tau-eigenspace but does not commute
    # with L_i: the seed check read twist residual 0, and the flow refused
    # the seed later, as off u(2)
    with open(seed_file) as fh:
        payload = json.load(fh)
    rec = next(r for r in payload["field"]["coefficients"] if r["k"] == 0)
    rec["rotation"] = [[[a + 0.1 * v, b] for (a, b), v in zip(row, lj)]
                       for row, lj in zip(rec["rotation"], L_J.tolist())]
    rc, out, err = _run_lax(seed_file, payload, [], capsys)
    assert rc == 2 and not out
    assert err.startswith("error: seed is not a twisted, real loop: twist "
                          "residual 1.00e-01,") and len(err.splitlines()) == 1


def test_lax_seed_sums_the_records_of_one_exponent(seed_file, capsys):
    # the k = -1 record given as two halves: the last record alone was kept
    with open(seed_file) as fh:
        payload = json.load(fh)
    want = _run_lax(seed_file, payload, [], capsys)
    field = finitetype.KillingField.from_dict(payload["field"])
    rec = next(r for r in payload["field"]["coefficients"] if r["k"] == -1)
    rec["translation"] = [[a / 2, b / 2] for a, b in rec["translation"]]
    payload["field"]["coefficients"].append(json.loads(json.dumps(rec)))
    split = finitetype.KillingField.from_dict(payload["field"])
    assert np.array_equal(split.rot, field.rot)
    assert np.array_equal(split.trans, field.trans)
    assert _run_lax(seed_file, payload, [], capsys) == want
    assert want[0] == 0


@pytest.mark.parametrize("lams", ["1,0.6+0.8x", "1,", "1,0.6+0.8i+", "nan",
                                  "1,nan"])
def test_family_malformed_lambda(spec_file, capsys, lams):
    assert_input_error(["family", spec_file, "--lambda", lams], capsys)


def test_family_refuses_lambdas_sharing_a_mesh_name(tmp_path, spec_file,
                                                   capsys):
    # e^0.1i and e^0.1001i both round to lam+0.995+0.100: the second mesh
    # overwrote the first, and the report listed both at one path
    lams = ",".join(f"{math.cos(t)!r}+{math.sin(t)!r}i" for t in (0.1, 0.1001))
    assert_input_error(["family", spec_file, "--lambda", lams, "--grid", "4",
                        "--out", str(tmp_path / "fam")], capsys)
    assert not list(tmp_path.glob("fam*"))
    # without meshes there is nothing to lose
    assert main(["family", spec_file, "--lambda", lams, "--grid", "4"]) == 0


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
    # a third entry used to be dropped silently
    _spec_with(lambda d: d["beta0"].append(99)),
    _spec_with(lambda d: d["coefficients"][0]["gamma"].append("x")),
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
    # JSON true used to read as 1: the standard spec verified at beta0 1+1i
    _spec_with(lambda d: d.update(beta0=[True, True])),
    _spec_with(lambda d: d["coefficients"][0].update(re=True)),
    _spec_with(lambda d: d["coefficients"][0].update(im=False)),
    _spec_with(lambda d: d["lattice"].update(g1=[True, 0.0])),
], ids=["re-null", "coefficients-string", "lattice-list", "beta0-short",
        "gamma-string", "beta0-three", "gamma-three", "top-level-list", "re-nan", "im-inf", "re-minus-inf",
        "re-huge", "re-1e150",
        "beta0-huge", "g1-huge", "g1-inf", "beta0-overflow", "beta0-inf",
        "dual-underflow", "beta0-true", "re-true", "im-false", "g1-true"])
def test_malformed_spec_is_input_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    mesh = tmp_path / "bad.obj"
    for argv in (["verify", str(path)], ["family", str(path)],
                 ["mesh", str(path), "--out", str(mesh)]):
        assert_input_error(argv, capsys)
    assert not mesh.exists()


def _spec_edits():
    """(name, payload) for the standard spec with one leaf replaced by each
    fuzz value, or one key dropped."""
    data = standard_torus(1.0, 1.0).spec.to_dict()
    leaves = [("lattice", g, i) for g in ("g1", "g2") for i in (0, 1)]
    leaves += [("beta0", 0), ("beta0", 1)]
    keys = [("lattice",), ("beta0",), ("coefficients",), ("lattice", "g1"),
            ("lattice", "g2")]
    for j in range(len(data["coefficients"])):
        rec = ("coefficients", j)
        leaves += [rec + ("gamma", 0), rec + ("gamma", 1), rec + ("re",),
                   rec + ("im",)]
        keys += [rec + (k,) for k in ("gamma", "re", "im")]

    def edited(path, drop, value=None):
        out = json.loads(json.dumps(data))
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return out

    for path in leaves:
        for value in LAX_FUZZ_VALUES:
            yield f"{path}={value!r}", edited(path, False, value)
    for path in keys:
        yield f"drop {path}", edited(path, True)


def _run_spec(tmp_path, payload, argv, capsys):
    """Exit code, stdout and stderr of a spec command on the payload."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(payload))
    try:
        rc = main([argv[0], str(path), *argv[1:]])
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _keeps_exit_contract(rc, out, err, json_out=True):
    """Exit 2 prints one `error:` line and nothing else; exits 0 and 1 print
    nothing on stderr and, for JSON commands, JSON without NaN."""
    lines = err.strip().splitlines()
    if rc == 2:
        return len(lines) == 1 and lines[0].startswith("error:") and not out
    if rc not in (0, 1) or err:
        return False
    if json_out:
        return isinstance(json.loads(out, parse_constant=_reject_constant),
                          dict)
    return out.startswith("wrote ")


def test_mesh_and_family_spec_fuzz(tmp_path, capsys):
    # every leaf of the standard spec takes each fuzz value, and every key
    # is dropped once; each run ends in a result or a one-line input error
    commands = (["mesh", "--grid", "4", "--out", str(tmp_path / "m.obj")],
                ["family", "--grid", "4", "--out", str(tmp_path / "f")])
    failures = []
    for name, payload in _spec_edits():
        for argv in commands:
            try:
                rc, out, err = _run_spec(tmp_path, payload, argv, capsys)
                ok = _keeps_exit_contract(rc, out, err, argv[0] == "family")
            except Exception as exc:          # noqa: BLE001 - reported below
                ok, rc = False, repr(exc)
            if not ok:
                failures.append((argv[0], name, rc))
    assert not failures, failures


def _overflows_verify(payload):
    # mean curvature is not yet scale-free: a coefficient part of 1e55 or
    # 1e70 overflows the check's products in a RuntimeWarning
    return any(c.get(k) in (1e55, 1e70)
               for c in payload.get("coefficients", []) for k in ("re", "im"))


_VERIFY_EDITS = list(_spec_edits())


def test_verify_spec_fuzz(tmp_path, capsys):
    failures = []
    for name, payload in _VERIFY_EDITS:
        if _overflows_verify(payload):
            continue
        try:
            rc, out, err = _run_spec(tmp_path, payload,
                                     ["verify", "--grid", "8"], capsys)
            ok = _keeps_exit_contract(rc, out, err)
        except Exception as exc:              # noqa: BLE001 - reported below
            ok, rc = False, repr(exc)
        if not ok:
            failures.append((name, rc))
    assert not failures, failures


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="verify overflows at this coefficient scale")
@pytest.mark.parametrize("payload", [
    pytest.param(payload, id=name) for name, payload in _VERIFY_EDITS
    if _overflows_verify(payload)])
def test_verify_spec_fuzz_overflow(tmp_path, capsys, payload):
    rc, out, err = _run_spec(tmp_path, payload, ["verify", "--grid", "8"],
                             capsys)
    assert _keeps_exit_contract(rc, out, err)


# --- argv and the one input-error path ----------------------------------------

NOT_JSON = {"json": b'{"lattice": ', "utf8": b"\xff\xfe",
            # json's decoder recurses once per level
            "deep": b"[" * 5000 + b"]" * 5000}


@pytest.mark.parametrize("route", ["library", "argparse", "oserror",
                                   *NOT_JSON])
def test_input_error_routes(tmp_path, seed_file, spec_file, capsys, route):
    # each kind of bad input reaches main's one handler: a HamstatError from
    # the library, an argparse error, an OSError and a file that is not JSON
    # (a non-UTF-8 one and a deeply nested one ended in tracebacks)
    bad = tmp_path / "bad.json"
    if route == "library":
        with open(seed_file) as fh:
            payload = json.load(fh)
        payload["lattice"] = {"g1": [1, 0], "g2": [2, 0]}     # collinear
        bad.write_text(json.dumps(payload))
        argv = ["lax", str(bad)]
    elif route == "argparse":
        argv = ["verify", spec_file, "--grid", "x"]
    elif route == "oserror":
        argv = ["mesh", spec_file, "--grid", "4",
                "--out", str(tmp_path / "missing" / "m.obj")]
    else:
        bad.write_bytes(NOT_JSON[route])
        argv = ["verify", str(bad)]
    assert_input_error(argv, capsys)


def test_enumerate_one_generator_is_input_error(capsys):
    # a lone --g1 used to end in an AttributeError traceback
    assert_input_error(["enumerate", "--g1", "1", "--beta0", "1+1i"], capsys)


@pytest.mark.parametrize("project", ["drop:x", "drop:", "drop:1.5"])
def test_mesh_projection_is_input_error(tmp_path, spec_file, capsys, project):
    # int() of drop:x, drop: and drop:1.5 ended in a ValueError traceback
    out = tmp_path / "m.obj"
    assert_input_error(["mesh", spec_file, "--grid", "4", "--project", project,
                        "--out", str(out)], capsys)
    assert not out.exists()


def test_family_projection_refused_without_out(spec_file, capsys):
    # family read --project only to write a mesh, so this exited 0
    assert_input_error(["family", spec_file, "--project", "foo"], capsys)


class _Reached(Exception):
    """Raised by a patched evaluation: the command got past its checks."""


def _reached(*args, **kwargs):
    raise _Reached


def test_mesh_projection_refused_before_evaluation(tmp_path, spec_file,
                                                   capsys, monkeypatch):
    # mesh refused a bad name only after the scan and the whole immersion
    monkeypatch.setattr(weierstrass, "regularity_scan", _reached)
    assert_input_error(["mesh", spec_file, "--project", "foo",
                        "--out", str(tmp_path / "m.obj")], capsys)


@pytest.mark.parametrize("command", ["mesh", "verify", "family", "lax"])
def test_grid_above_the_bound_is_input_error(tmp_path, spec_file, seed_file,
                                             capsys, monkeypatch, command):
    # a grid in the thousands took gigabytes before any check; the patched
    # grid and flow raise where the allocation would start, so the accepted
    # MAX_GRID reaches them and nothing is allocated
    monkeypatch.setattr(Lattice, "grid", _reached)
    monkeypatch.setattr(finitetype, "lax_integrate", _reached)
    head = {"mesh": ["mesh", spec_file, "--out", str(tmp_path / "m.obj")],
            "verify": ["verify", spec_file],
            "family": ["family", spec_file, "--out", str(tmp_path / "f")],
            "lax": ["lax", seed_file]}[command]
    for grid in ("1025", "100000000"):
        assert_input_error([*head, "--grid", grid], capsys)
    with pytest.raises(_Reached):
        main([*head, "--grid", str(MAX_GRID)])


@pytest.mark.parametrize("tol", ["nan", "inf", "1e400", "-1"])
@pytest.mark.parametrize("command", ["enumerate", "verify", "family", "lax"])
def test_tol_is_finite_and_non_negative(spec_file, seed_file, capsys, command,
                                        tol):
    # verify printed NaN or Infinity thresholds, family called every member
    # non-periodic and enumerate blamed beta0
    head = {"enumerate": ["enumerate", "--g1", "1", "--g2", "1i",
                          "--beta0", "1+1i"],
            "verify": ["verify", spec_file, "--grid", "8"],
            "family": ["family", spec_file],
            "lax": ["lax", seed_file, "--grid", "1", "--steps", "64"]}[command]
    assert_input_error([*head, "--tol", tol], capsys)


def _run_main(argv, capsys):
    """Exit code, stdout, stderr and warnings of one run; an exit 2 that
    main returns instead of raising as SystemExit reads as None."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
            rc = None if rc == 2 else rc
        except SystemExit as exc:
            rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, caught


ARGV_VALUES = ["nan", "inf", "-inf", "-1", "0", "x", "", "1e400"]


def test_cli_argv_fuzz(tmp_path, spec_file, seed_file, capsys, monkeypatch):
    # each option of each subcommand takes each value in turn on a valid
    # file.  Every run ends in a result or one `error:` line, exit 2 comes
    # only as SystemExit, and nothing warns.  Grids stay small: a grid in
    # the thousands allocates gigabytes before any check
    monkeypatch.chdir(tmp_path)            # relative paths land in tmp_path
    (tmp_path / "dir").mkdir()
    commands = [
        (["enumerate"], {"--g1": "1", "--g2": "1i", "--beta0": "1+1i",
                         "--tol": "1e-9", "--format": "json", "--config": None}),
        (["mesh", spec_file], {"--grid": "4", "--project": "drop:4",
                               "--out": "m.obj", "--format": "obj"}),
        (["verify", spec_file], {"--grid": "8", "--tol": "1e-5"}),
        (["family", spec_file], {"--lambda": "1,0.6+0.8i", "--grid": "4",
                                 "--project": "drop:4", "--out": "f",
                                 "--format": "obj", "--tol": "1e-8"}),
        (["lax", seed_file], {"--grid": "1", "--steps": "64", "--tol": "1e-8"}),
    ]
    extra = {"--project": ["drop:x", "drop:", "drop:0", "drop:5", "drop:1.5",
                           "foo"],
             "--lambda": ["1,2,3", "0.6+0.8i,x"]}
    failures = []
    for head, options in commands:
        for option in options:
            values = (["dir", str(tmp_path / "missing" / "out")]
                      if option == "--out"
                      else ARGV_VALUES + extra.get(option, []))
            for value in values:
                argv = list(head)
                for name, base in {**options, option: value}.items():
                    argv += [] if base is None else [name, base]
                try:
                    rc, out, err, caught = _run_main(argv, capsys)
                    ok = not caught and _keeps_exit_contract(
                        rc, out, err, head[0] != "mesh")
                except Exception as exc:       # noqa: BLE001 - reported below
                    ok, rc = False, repr(exc)
                    capsys.readouterr()
                if not ok:
                    failures.append((head[0], option, value, rc))
    assert not failures, failures


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
    refs = {"obj": _reference_obj, "ply": _reference_ply}
    for order in (("ply", "obj"), ("obj", "ply")):
        _face_block.cache_clear()            # each order starts cold
        for fmt in order:
            _write_mesh_file(tmp_path / f"ours.{fmt}", verts, n, f"test {n}", fmt)
            refs[fmt](tmp_path / f"ref.{fmt}", verts, n, f"test {n}")
            assert ((tmp_path / f"ours.{fmt}").read_bytes()
                    == (tmp_path / f"ref.{fmt}").read_bytes()), (order, fmt)


def _assert_writers_match_reference(tmp_path, verts, n=3):
    for fmt, ref in (("obj", _reference_obj), ("ply", _reference_ply)):
        _write_mesh_file(tmp_path / f"ours.{fmt}", verts, n, "case", fmt)
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
