"""Command-line front end.

Subcommands: ``enumerate`` (frequency tables), ``mesh`` (OBJ/PLY export of a
spec's surface), ``verify`` (geometric residual suite as JSON), ``family``
(circle-parameter sweep with period reports), ``lax`` (flow a Killing-field
seed and report invariant drift).

Exit codes: 0 success, 1 verification failure, 2 input error.  ``family``
reports ``"periodic"`` per member and exits 0 whenever the sweep ran.
Input errors of every kind -- argv that argparse rejects, an option out of
range, a file that cannot be read or written, a payload the library refuses
-- reach ``main``, which prints one ``error:`` line and raises SystemExit(2).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import checks, finitetype, lattices, weierstrass
from .errors import HamstatError, InputError
from .lattices import Lattice

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
# largest --grid: 4x the largest grid of the tests, demos and benchmark
# (mesh at 256); verify at 1024 holds about 430 MB
MAX_GRID = 1024
PROJECTIONS = ("drop:1", "drop:2", "drop:3", "drop:4", "stereo")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a' / 'bi' / 'a,b' complex literals."""
    text = text.strip().replace(" ", "")
    if "," in text:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    return complex(text.replace("i", "j"))


def _load(path: str, what: str, build):
    """``build`` of the JSON in the file at ``path``: unreadable JSON, or a
    Python error from ``build``, is an InputError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return build(data)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"invalid {what} {path}: {exc}") from None


def _require_at_least(args, **lows):
    """Each named option is finite and at least its low; --grid is also at
    most MAX_GRID, checked before any file is read."""
    for name, low in lows.items():
        value = getattr(args, name)
        if not low <= value < math.inf:         # NaN fails too
            raise InputError(f"--{name} must be finite and >= {low}, got {value}")
        if name == "grid" and value > MAX_GRID:
            raise InputError(f"--grid must be <= {MAX_GRID}, got {value}")


def _spec_hash(spec: weierstrass.TorusSpec) -> str:
    return hashlib.sha256(spec.to_json(sort_keys=True).encode()).hexdigest()[:16]


# --- projections -------------------------------------------------------------

def _project(points: np.ndarray, how: str) -> np.ndarray:
    """R^4 -> R^3 for visualization, ``how`` one of PROJECTIONS: drop:k
    keeps the other three coordinates; stereo projects the normalized points
    from the first pole."""
    if how != "stereo":
        return np.delete(points, int(how[-1]) - 1, axis=-1)
    norms = np.linalg.norm(points, axis=-1, keepdims=True)
    if np.min(norms) < 1e-9:
        raise InputError("stereo projection undefined: surface meets 0")
    unit = points / norms
    denom = 1.0 - unit[..., 0]
    if np.min(np.abs(denom)) < 1e-9:
        raise InputError("stereo projection hits the pole")
    return unit[..., 1:] / denom[..., None]


# rows per %-format call of the face block, so the text and argument tuple
# of a whole mesh are never held at once
_CHUNK_ROWS = 4096


def _format_rows(line: str, rows: np.ndarray):
    """``line`` %-formatted with each row of ``rows``, one string per chunk
    of at most ``_CHUNK_ROWS`` rows."""
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        yield (line * len(chunk)) % tuple(chunk.ravel().tolist())


@functools.lru_cache(maxsize=4)
def _face_block(n: int, fmt: str) -> bytes:
    """Face lines of the closed n x n quad mesh whose vertex i * n + j is
    grid point (i, j): 1-based for OBJ, 0-based with a vertex count for PLY.
    They depend on (n, fmt) alone, so each block is built once."""
    i, j = np.divmod(np.arange(n * n), n)
    below, right = (i + 1) % n * n, (j + 1) % n
    quads = np.stack([i * n + j, below + j, below + right, i * n + right], axis=1)
    if fmt == "obj":
        return "".join(_format_rows("f %d %d %d %d\n", quads + 1)).encode()
    return "".join(_format_rows("4 %d %d %d %d\n", quads)).encode()


# --- vertex text ----------------------------------------------------------------
#
# Vertex rows are Python's "%.12g" text, built from digit tables a block of
# rows at a time.  A value with 1e-4 <= |x| < 1000 prints in fixed notation.
# With e = floor(log10|x|) and p = 10^(11 - e), a power of ten that is exact
# for e in [-4, 2], its 12 digits are M = round(|x| p): only the product
# rounds, by less than 2^-13, so M is the correctly rounded value unless
# |x| p lies within 1e-3 of a half-integer.  The text is the sign and the
# integer part I = floor(M / p), then "." and the fraction M - I p as 15
# digits with trailing zeros stripped: one chunk of 3 digits and three of 4.
# Each part is a 4-byte glyph padded with NULs, so a row is a fixed run of
# uint32 slots, and bytes.translate drops the NULs.  Every other value --
# zeros, NaN, infinities, |x| outside the window, a possible tie, a carry to
# 1000 -- gets Python's own "%.12g" text in its slots.

_BLOCK_ROWS = 8192
_VALUE_SLOTS = 5        # 20 bytes: room for any "%.12g" text (at most 19)


def _glyphs(texts) -> np.ndarray:
    """One uint32 per text of at most 4 ASCII bytes, padded with NULs."""
    return np.array(texts, dtype="S4").view(np.uint32)


def _digit_glyphs(width: int, lead: str = "") -> np.ndarray:
    """``lead`` and the ``width`` digits of each of 0 .. 10**width - 1, then
    the same with trailing zeros stripped (empty when no digit is left)."""
    digits = [f"{c:0{width}d}" for c in range(10 ** width)]
    stripped = [d.rstrip("0") for d in digits]
    return _glyphs([lead + d for d in digits]
                   + [lead + d if d else "" for d in stripped])


def _smallest_double_at_least(q: Fraction) -> float:
    x = float(q)                                # correctly rounded
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


def _exponent_tables():
    """Per binade of |x| (its biased exponent bits), the number k of the
    edges 10^-4 .. 10^3 at or below its low end, and the one edge inside it
    (a binade holds at most one), or inf.  |x| then passes
    k + (|x| >= cut) edges: e + 5 in the window, 0 below it, and 8 above it
    or for NaN."""
    edges = np.array([_smallest_double_at_least(Fraction(10) ** k)
                      for k in range(-4, 4)])
    low = np.ldexp(1.0, np.arange(1, 2047) - 1023)      # normal binades
    count = np.searchsorted(edges, low, side="right")
    nxt = edges[np.minimum(count, len(edges) - 1)]
    cut = np.where((count < len(edges)) & (nxt / 2 < low), nxt, np.inf)
    # zero and subnormals lie below every edge, inf and NaN above them; a
    # NaN cut, which no comparison passes, keeps inf at len(edges)
    return np.r_[0, count, len(edges)], np.r_[np.inf, cut, np.nan]


@functools.cache
def _chunk_glyphs() -> tuple:
    """The glyph table of each of the five parts of a value: sign and
    integer part, "." and 3 fraction digits, then three of 4 digits.  Built
    on first use, since most commands write no mesh."""
    quad = _digit_glyphs(4)
    return (_glyphs([sign + str(i) for sign in ("", "-") for i in range(1000)]),
            _digit_glyphs(3, "."), quad, quad, quad)


_E_COUNT, _E_CUT = _exponent_tables()
# p = 10^(11 - e) by k = e + 5, and 1 outside the window (k = 0 or 8)
_POW = np.array([1.0] + [10.0 ** (16 - k) for k in range(1, 8)] + [1.0])
_SEPARATORS = _glyphs([" ", " ", "\n"])


def _vertex_block(rows: np.ndarray, prefix: np.uint32) -> bytes:
    """The text of ``prefix`` and three "%.12g" values per row of ``rows``."""
    n = len(rows)
    x = rows.ravel()
    ax = np.abs(x)
    binade = ax.view(np.int64) >> 52
    k = _E_COUNT[binade] + (ax >= _E_CUT[binade])
    p = _POW[k]
    with np.errstate(invalid="ignore"):         # exact-path values only
        scaled = ax * p
        m = np.floor(scaled + 0.5)
        whole = np.floor(m / p)
        frac = (m - whole * p) * (1e15 / p)     # 15 digits after the point
        c0 = np.floor(frac / 1e12)
        r0 = frac - c0 * 1e12
        c1 = np.floor(r0 / 1e8)
        r1 = r0 - c1 * 1e8
        c2 = np.floor(r1 / 1e4)
        c3 = r1 - c2 * 1e4
        # each chunk takes its stripped glyph when no digit follows it
        index = np.stack([whole + 1000 * np.signbit(x),
                          c0 + 1000 * (r0 == 0),
                          c1 + 10000 * (r1 == 0),
                          c2 + 10000 * (c3 == 0),
                          c3 + 10000]).astype(np.intp)
        exact = np.flatnonzero((k == 0) | (k == 8) | (whole >= 1000)
                               | (np.abs(scaled - m) > 0.499))
    out = np.empty((n, 1 + 3 * (_VALUE_SLOTS + 1)), dtype=np.uint32)
    out[:, 0] = prefix
    cells = out[:, 1:].reshape(n, 3, _VALUE_SLOTS + 1)
    cells[..., -1] = _SEPARATORS
    for j, table in enumerate(_chunk_glyphs()):
        cells[..., j] = np.take(table, index[j], mode="clip").reshape(n, 3)
    if len(exact):
        text = b"".join([(b"%.12g" % v).ljust(4 * _VALUE_SLOTS, b"\0")
                         for v in x[exact].tolist()])
        start = exact // 3 * out.shape[1] + 1 + exact % 3 * (_VALUE_SLOTS + 1)
        out.reshape(-1)[start[:, None] + np.arange(_VALUE_SLOTS)] = (
            np.frombuffer(text, dtype=np.uint32).reshape(-1, _VALUE_SLOTS))
    return out.tobytes().translate(None, b"\0")


def _vertex_text(verts: np.ndarray, prefix: str):
    """Lines of ``prefix`` and the "%.12g" text of each row of ``verts``
    (n, 3), one bytes object per block of at most ``_BLOCK_ROWS`` rows."""
    lead = _glyphs([prefix])[0]
    verts = np.asarray(verts, dtype=float)
    for start in range(0, len(verts), _BLOCK_ROWS):
        yield _vertex_block(verts[start:start + _BLOCK_ROWS], lead)


def _write_obj(path: str, verts: np.ndarray, n: int, header: str):
    with open(path, "wb") as fh:
        fh.write(f"# {header}\n".encode())
        fh.writelines(_vertex_text(verts, "v "))
        fh.write(_face_block(n, "obj"))


def _write_ply(path: str, verts: np.ndarray, n: int, header: str):
    with open(path, "wb") as fh:
        fh.write((f"ply\nformat ascii 1.0\ncomment {header}\n"
                  f"element vertex {len(verts)}\n"
                  "property float x\nproperty float y\nproperty float z\n"
                  f"element face {n * n}\n"
                  "property list uchar int vertex_indices\nend_header\n"
                  ).encode())
        fh.writelines(_vertex_text(verts, ""))
        fh.write(_face_block(n, "ply"))


def _write_mesh(args, path: str, f, lattice, header: str) -> int:
    """Write the ``args.grid`` mesh of ``f`` over ``lattice``, projected and
    formatted as ``args`` says, to ``path``; returns its vertex count."""
    verts = _project(np.asarray(f(lattice.grid(args.grid))).reshape(-1, 4),
                     args.project)      # the unbound R^4 points die here
    writer = _write_ply if args.format == "ply" else _write_obj
    writer(path, verts, args.grid, header)
    return len(verts)


# --- subcommands --------------------------------------------------------------

def cmd_enumerate(args) -> int:
    _require_at_least(args, tol=0)
    data = _load(args.config, "config", lambda data: data) if args.config else {}
    try:
        if args.g1 or args.g2:
            lat = Lattice(parse_complex(args.g1), parse_complex(args.g2))
        else:
            lat = Lattice.from_config(data["lattice"])
        beta0 = (parse_complex(args.beta0) if args.beta0
                 else lattices.parse_pair(data["beta0"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid lattice or slope: {exc}") from None
    freq = lattices.enumerate_frequencies(lat, beta0, args.tol)
    per = lattices.periodicity_class(lat, beta0, args.tol)
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
    _require_at_least(args, grid=3)
    spec = _load(args.spec, "spec", weierstrass.TorusSpec.from_dict)
    min_u = weierstrass.regularity_scan(spec, max(args.grid, 16))
    if min_u < 1e-6:
        print(f"warning: grid may be degenerate (min |u| = {min_u:.2e})",
              file=sys.stderr)
    header = f"spec {_spec_hash(spec)} projection {args.project} grid {args.grid}"
    count = _write_mesh(args, args.out, lambda z: weierstrass.immerse(spec, z),
                        spec.lattice, header)
    print(f"wrote {args.out}: {count} vertices, {args.grid ** 2} faces")
    return EXIT_OK


def cmd_verify(args) -> int:
    _require_at_least(args, grid=3)
    spec = _load(args.spec, "spec", weierstrass.TorusSpec.from_dict)
    thresholds = None
    if args.tol is not None:
        _require_at_least(args, tol=0)
        thresholds = dict.fromkeys(checks.THRESHOLDS, args.tol)
    reports = checks.run_suite(lambda z: weierstrass.immerse(spec, z),
                               spec.lattice, args.grid, spec=spec,
                               thresholds=thresholds)
    payload = {"spec": _spec_hash(spec), "grid_n": args.grid,
               "reports": [r.to_dict() for r in reports],
               "pass": all(r.passed for r in reports)}
    print(json.dumps(payload, indent=2))
    return EXIT_OK if payload["pass"] else EXIT_VERIFY_FAILED


def cmd_family(args) -> int:
    _require_at_least(args, grid=3, tol=0)
    spec = _load(args.spec, "spec", weierstrass.TorusSpec.from_dict)
    try:
        lams = [parse_complex(text) for text in args.lams.split(",")]
    except ValueError:
        raise InputError(f"invalid --lambda {args.lams!r}") from None
    for lam in lams:
        if not abs(abs(lam) - 1.0) <= 1e-9:     # NaN fails too
            raise InputError(f"family parameter {lam} is not unimodular")
    paths = [f"{args.out}.lam{lam.real:+.3f}{lam.imag:+.3f}.{args.format}"
             for lam in lams]
    if args.out and len(set(paths)) < len(paths):
        raise InputError(f"two --lambda values round to one mesh name (3 "
                         f"decimals) in {args.lams!r}")
    report = []
    for lam, path in zip(lams, paths):
        ev = weierstrass.FamilyEvaluator(spec, lam)
        entry = {"lambda": [lam.real, lam.imag],
                 "period_defects": ev.period_defects,
                 "periodic": max(ev.period_defects.values()) <= args.tol}
        if args.out:
            _write_mesh(args, path, ev, spec.lattice,
                        f"spec {_spec_hash(spec)} lambda {lam}")
            entry["mesh"] = path
        report.append(entry)
    print(json.dumps({"members": report}, indent=2))
    return EXIT_OK


def cmd_lax(args) -> int:
    _require_at_least(args, grid=1, steps=1, tol=0)
    field, lat = _load(args.seed, "seed file", lambda data: (
        finitetype.KillingField.from_dict(data["field"]),
        Lattice.from_config(data["lattice"])))
    finitetype.validate_seed(field)
    n = args.grid
    path = [i / n * lat.g1 for i in range(1, n + 1)]
    path += [lat.g1 + i / n * lat.g2 for i in range(1, n + 1)]
    res = finitetype.lax_integrate(field, path, step=lat.diameter() / args.steps)
    payload = {
        "degree": field.d,
        "samples": len(res.points),
        "top_coefficient_drift": res.coefficient_drift(-field.d),
        "even_coefficient_drift": res.even_coefficient_drift(),
        "isospectral_drift": res.isospectral_drift(),
        "truncation_spill": res.max_spill,
        "steps": res.steps,
    }
    print(json.dumps(payload, indent=2))
    ok = (payload["top_coefficient_drift"] <= args.tol
          and payload["isospectral_drift"] <= args.tol)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """Argument errors raise InputError, for ``main``; subparsers inherit."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hamstat",
        description="Stationary Lagrangian torus toolbox: build, verify, "
                    "deform, and flow.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="frequency set and moduli dimension")
    p.add_argument("--config", help="JSON file with lattice/beta0")
    # an empty default: one generator given without the other is malformed
    p.add_argument("--g1", default="", help="lattice generator, e.g. '1' or '1+0.5i'")
    p.add_argument("--g2", default="", help="lattice generator")
    p.add_argument("--beta0", help="angle slope, e.g. '1+1i'")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("mesh", help="export the surface as OBJ/PLY")
    p.add_argument("spec", help="TorusSpec JSON file")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--project", choices=PROJECTIONS, default="drop:4")
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
    p.add_argument("--project", choices=PROJECTIONS, default="drop:4")
    p.add_argument("--out", help="mesh filename stem (optional)")
    p.add_argument("--format", choices=("obj", "ply"), default="obj")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("lax", help="flow a Killing-field seed")
    p.add_argument("seed", help="JSON file with {field, lattice}")
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--steps", type=int, default=2048,
                   help="most flow steps per lattice diameter: each step is "
                        "at least diameter / STEPS, else exit 2")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_lax)
    return ap


# parse_args leaves the parser as it was, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one subcommand; returns 0 or 1, raises SystemExit(2) on bad input."""
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (HamstatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR) from None


if __name__ == "__main__":
    sys.exit(main())
