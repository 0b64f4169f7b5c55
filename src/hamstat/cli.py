"""Command-line front end.

Subcommands: ``enumerate`` (frequency tables), ``mesh`` (OBJ/PLY export of a
spec's surface), ``verify`` (geometric residual suite as JSON), ``family``
(circle-parameter sweep with period reports), ``lax`` (flow a Killing-field
seed and report invariant drift).

Exit codes: 0 success, 1 verification failure, 2 input error.  ``family``
reports ``"periodic"`` per member and exits 0 whenever the sweep ran.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import checks, finitetype, lattices, weierstrass
from .errors import HamstatError, SingularInput
from .lattices import Lattice

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a' / 'bi' / 'a,b' complex literals."""
    text = text.strip().replace(" ", "")
    if "," in text:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    return complex(text.replace("i", "j"))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        line = getattr(exc, "lineno", None)
        where = f" (line {line})" if line else ""
        raise SystemExit_input(f"cannot read {path}{where}: {exc}")


def SystemExit_input(msg: str) -> SystemExit:
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(EXIT_INPUT_ERROR)


def _load_spec(path: str) -> weierstrass.TorusSpec:
    data = _load_json(path)
    try:
        return weierstrass.TorusSpec.from_dict(data)
    except (KeyError, IndexError, TypeError, ValueError, HamstatError) as exc:
        raise SystemExit_input(f"invalid spec {path}: {exc}")


def _require_at_least(args, name: str, low: int):
    value = getattr(args, name)
    if value < low:
        raise SystemExit_input(f"--{name} must be at least {low}, got {value}")


def _spec_hash(spec: weierstrass.TorusSpec) -> str:
    return hashlib.sha256(spec.to_json(sort_keys=True).encode()).hexdigest()[:16]


# --- projections -------------------------------------------------------------

def _project(points: np.ndarray, how: str) -> np.ndarray:
    """R^4 -> R^3 for visualization: drop:k keeps the other three
    coordinates; stereo projects the normalized points from the first pole."""
    if how.startswith("drop:"):
        k = int(how.split(":")[1])
        if not 1 <= k <= 4:
            raise SystemExit_input("drop coordinate must be in 1..4")
        keep = [i for i in range(4) if i != k - 1]
        return points[..., keep]
    if how == "stereo":
        norms = np.linalg.norm(points, axis=-1, keepdims=True)
        if np.min(norms) < 1e-9:
            raise SystemExit_input("stereo projection undefined: surface meets 0")
        unit = points / norms
        denom = 1.0 - unit[..., 0]
        if np.min(np.abs(denom)) < 1e-9:
            raise SystemExit_input("stereo projection hits the pole")
        return unit[..., 1:] / denom[..., None]
    raise SystemExit_input(f"unknown projection {how!r}")


# rows per %-format call, so the text and argument tuple of a whole mesh are
# never held at once
_CHUNK_ROWS = 4096


def _format_rows(line: str, rows: np.ndarray):
    """``line`` %-formatted with each row of ``rows``, one string per chunk
    of at most ``_CHUNK_ROWS`` rows."""
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        yield (line * len(chunk)) % tuple(chunk.ravel().tolist())


@functools.lru_cache(maxsize=4)
def _face_block(n: int, fmt: str) -> str:
    """Face lines of the closed n x n quad mesh whose vertex i * n + j is
    grid point (i, j): 1-based for OBJ, 0-based with a vertex count for PLY.
    They depend on (n, fmt) alone, so each block is built once."""
    i, j = np.divmod(np.arange(n * n), n)
    below, right = (i + 1) % n * n, (j + 1) % n
    quads = np.stack([i * n + j, below + j, below + right, i * n + right], axis=1)
    if fmt == "obj":
        return "".join(_format_rows("f %d %d %d %d\n", quads + 1))
    return "".join(_format_rows("4 %d %d %d %d\n", quads))


def _write_obj(path: str, verts: np.ndarray, n: int, header: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.writelines(_format_rows("v %.12g %.12g %.12g\n", verts))
        fh.write(_face_block(n, "obj"))


def _write_ply(path: str, verts: np.ndarray, n: int, header: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"comment {header}\n")
        fh.write(f"element vertex {len(verts)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write(f"element face {n * n}\n")
        fh.write("property list uchar int vertex_indices\nend_header\n")
        fh.writelines(_format_rows("%.12g %.12g %.12g\n", verts))
        fh.write(_face_block(n, "ply"))


def _mesh_from_evaluator(f, lattice, grid_n, project):
    zs = lattice.grid(grid_n)
    pts = np.asarray(f(zs)).reshape(-1, 4)
    return _project(pts, project)


# --- subcommands --------------------------------------------------------------

def cmd_enumerate(args) -> int:
    data = _load_json(args.config) if args.config else {}
    try:
        if args.g1 or args.g2:
            lat = Lattice(parse_complex(args.g1), parse_complex(args.g2))
        else:
            lat = Lattice.from_config(data["lattice"])
        beta0 = (parse_complex(args.beta0) if args.beta0
                 else complex(data["beta0"][0], data["beta0"][1]))
        freq = lattices.enumerate_frequencies(lat, beta0, args.tol)
        per = lattices.periodicity_class(lat, beta0, args.tol)
    except (HamstatError, KeyError, ValueError) as exc:
        raise SystemExit_input(str(exc))
    table = {
        "beta0": [beta0.real, beta0.imag],
        "count": len(freq),
        "periodicity": per.value,
        "moduli_dimension": 2 * len(freq) + 5,
        "frequencies": [[g.real, g.imag] for g in freq],
    }
    if args.format == "json":
        print(json.dumps(table, indent=2))
    else:
        print(f"beta0 = {beta0}  [{per.value}]")
        print(f"count = {len(freq)}   moduli dimension = {2 * len(freq) + 5}")
        for g in freq:
            print(f"  {g.real:+.12g} {g.imag:+.12g}i")
    return EXIT_OK


def cmd_mesh(args) -> int:
    _require_at_least(args, "grid", 3)
    spec = _load_spec(args.spec)
    scan = weierstrass.regularity_scan(spec, max(args.grid, 16))
    if scan.min_abs_u < 1e-6:
        print(f"warning: grid may be degenerate (min |u| = {scan.min_abs_u:.2e})",
              file=sys.stderr)
    header = f"spec {_spec_hash(spec)} projection {args.project} grid {args.grid}"
    verts = _mesh_from_evaluator(
        lambda z: weierstrass.immerse(spec, z), spec.lattice, args.grid,
        args.project)
    writer = _write_ply if args.format == "ply" else _write_obj
    writer(args.out, verts, args.grid, header)
    print(f"wrote {args.out}: {len(verts)} vertices, {args.grid ** 2} faces")
    return EXIT_OK


def cmd_verify(args) -> int:
    _require_at_least(args, "grid", 3)
    spec = _load_spec(args.spec)
    thresholds = None
    if args.tol is not None:
        thresholds = {k: args.tol for k in
                      ("conformal", "lagrangian", "harmonic-angle",
                       "mean-curvature", "flatness")}
    reports = checks.run_suite(lambda z: weierstrass.immerse(spec, z),
                               spec.lattice, args.grid, spec=spec,
                               thresholds=thresholds)
    payload = {"spec": _spec_hash(spec), "grid_n": args.grid,
               "reports": [r.to_dict() for r in reports],
               "pass": all(r.passed for r in reports)}
    print(json.dumps(payload, indent=2))
    return EXIT_OK if payload["pass"] else EXIT_VERIFY_FAILED


def cmd_family(args) -> int:
    _require_at_least(args, "grid", 3)
    spec = _load_spec(args.spec)
    lams = []
    for text in args.lams.split(","):
        try:
            lams.append(parse_complex(text))
        except ValueError:
            raise SystemExit_input(f"invalid family parameter {text!r}")
    report = []
    import warnings as _warnings
    for lam in lams:
        if abs(abs(lam) - 1.0) > 1e-9:
            raise SystemExit_input(f"family parameter {lam} is not unimodular")
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            ev = weierstrass.associated_family(spec, lam, warn=False)
        entry = {"lambda": [lam.real, lam.imag],
                 "period_defects": ev.period_defects,
                 "periodic": max(ev.period_defects.values()) <= args.tol}
        if args.out:
            fname = f"{args.out}.lam{lam.real:+.3f}{lam.imag:+.3f}.{args.format}"
            verts = _mesh_from_evaluator(ev, spec.lattice, args.grid,
                                         args.project)
            writer = _write_ply if args.format == "ply" else _write_obj
            writer(fname, verts, args.grid,
                   f"spec {_spec_hash(spec)} lambda {lam}")
            entry["mesh"] = fname
        report.append(entry)
    print(json.dumps({"members": report}, indent=2))
    return EXIT_OK


def cmd_lax(args) -> int:
    _require_at_least(args, "grid", 1)
    _require_at_least(args, "steps", 1)
    data = _load_json(args.seed)
    try:
        field = finitetype.KillingField.from_dict(data["field"])
        lat = Lattice.from_config(data["lattice"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit_input(f"invalid seed file: {exc}")
    n = args.grid
    path = [i / n * lat.g1 for i in range(1, n + 1)]
    path += [lat.g1 + i / n * lat.g2 for i in range(1, n + 1)]
    step = lat.diameter() / args.steps
    try:
        res = finitetype.lax_integrate(field, path, step=step)
    except SingularInput as exc:
        raise SystemExit_input(f"invalid seed file: {exc}")
    payload = {
        "degree": field.d,
        "samples": len(res.points),
        "top_coefficient_drift": res.coefficient_drift(-field.d),
        "even_coefficient_drift": res.even_coefficient_drift(),
        "isospectral_drift": res.isospectral_drift(),
        "truncation_spill": res.max_spill,
        "rk_steps": res.steps,
    }
    print(json.dumps(payload, indent=2))
    ok = (payload["top_coefficient_drift"] <= args.tol
          and payload["isospectral_drift"] <= args.tol)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hamstat",
        description="Stationary Lagrangian torus toolbox: build, verify, "
                    "deform, and flow.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="frequency set and moduli dimension")
    p.add_argument("--config", help="JSON file with lattice/beta0")
    p.add_argument("--g1", help="lattice generator, e.g. '1' or '1+0.5i'")
    p.add_argument("--g2", help="lattice generator")
    p.add_argument("--beta0", help="angle slope, e.g. '1+1i'")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("mesh", help="export the surface as OBJ/PLY")
    p.add_argument("spec", help="TorusSpec JSON file")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--project", default="drop:4",
                   help="drop:k (k in 1..4) or stereo")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("obj", "ply"), default="obj")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("verify", help="run the geometric residual suite")
    p.add_argument("spec")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--tol", type=float, default=None,
                   help="override every check threshold")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="sweep circle parameters")
    p.add_argument("spec")
    p.add_argument("--lambda", dest="lams", default="1",
                   help="comma-separated unimodular values, e.g. '1,0.6+0.8i'")
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--project", default="drop:4")
    p.add_argument("--out", help="mesh filename stem (optional)")
    p.add_argument("--format", choices=("obj", "ply"), default="obj")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("lax", help="flow a Killing-field seed")
    p.add_argument("seed", help="JSON file with {field, lattice}")
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--steps", type=int, default=2048,
                   help="flow steps per lattice diameter")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_lax)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except HamstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
