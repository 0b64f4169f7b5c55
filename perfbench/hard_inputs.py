#!/usr/bin/env python3
"""Known-hard inputs: run each once and report what the program does.

    python3 perfbench/hard_inputs.py                 # all of them
    python3 perfbench/hard_inputs.py --only family-lambda-0.707

Every op of a timed workload must pass its oracle, so these inputs are kept
out of the workload pools and run here instead.  Each one shows a defect
of the program; the outcome recorded when the benchmark was defined is in
perfbench/README.md.  Prints one JSON object per input.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np                                         # noqa: E402

from hamstat import cli                                    # noqa: E402
from hamstat.checks import run_suite                       # noqa: E402
from hamstat.errors import HamstatError                    # noqa: E402
from hamstat.lattices import Lattice, enumerate_frequencies  # noqa: E402
from hamstat.loops import (SpecLift, dpw_reconstruct,      # noqa: E402
                           potential_extract)
from hamstat.weierstrass import TorusSpec, immerse         # noqa: E402
from workloads import (castro_urbano_spec, design_spec,    # noqa: E402
                       report_ratio, translated)


def verify(spec):
    reports = run_suite(lambda z: immerse(spec, z), spec.lattice, 128,
                        spec=spec)
    return {"pass": report_ratio(reports) <= 1.0,
            "failing": {r.check: r.residual for r in reports if not r.passed},
            "richardson": [r.check for r in reports if r.extra.get("richardson")]}


def roundtrip(spec, grid):
    lat = spec.lattice
    radius = 1.35 * max(1.0, abs(lat.g1) + abs(lat.g2))
    pot = potential_extract(SpecLift(spec), nsamples=128, taylor_radius=radius)
    calls = [0]
    a = pot.a

    def counted(v):
        calls[0] += 1
        return a(v)

    pot.a = counted
    zs = lat.grid(grid)
    try:
        got = dpw_reconstruct(pot, nsamples=128, quad_n=24,
                              lattice=lat).immersion(zs)
    except HamstatError as exc:
        return {"pass": False, "error": repr(exc), "integrand_calls": calls[0]}
    err = float(np.max(np.abs(got - (immerse(spec, zs) - immerse(spec, 0.0)))))
    return {"pass": err <= 1e-7, "max_error": err, "grid": grid,
            "integrand_calls": calls[0]}


def family(spec_path, lams):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["family", spec_path, "--lambda", lams])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:                 # a traceback, not a clean exit
        return {"exit": None, "uncaught": repr(exc)}
    return {"exit": code, "stderr": err.getvalue().strip()}


def near_degenerate(shifts=4):
    """A K=6 square spec with normal random coefficients, whose metric comes
    close to degenerate: the mean-curvature check needs the Richardson
    fallback, and the verdict depends on where the grid samples it."""
    lat = Lattice.square()
    freqs = list(enumerate_frequencies(lat, 1 + 3j))
    rng = np.random.default_rng(6)
    base = TorusSpec.build(lat, 1 + 3j, {g: complex(rng.normal(), rng.normal())
                                         for g in freqs})
    shift_rng = np.random.default_rng(1000)
    runs = []
    for _ in range(shifts):
        i1, i2 = shift_rng.integers(16, size=2)
        spec = translated(base, i1 / 16 * lat.g1 + i2 / 16 * lat.g2)
        reports = run_suite(lambda z: immerse(spec, z), lat, 128, spec=spec)
        runs.append({"shift": [int(i1), int(i2)],
                     "margin_digits": -float(np.log10(report_ratio(reports))),
                     "richardson": [r.check for r in reports
                                    if r.extra.get("richardson")]})
    return {"pass": all(r["margin_digits"] >= 0 for r in runs), "runs": runs}


def cases(workdir, grid_k4):
    spec_path = str(Path(workdir) / "standard.json")
    Path(spec_path).write_text(design_spec(1.0, 1j, (1, 1), False).to_json())
    return {
        "explore-square-K10-6+8i":
            lambda: verify(design_spec(1.0, 1j, (6, 8), False)),
        "explore-near-degenerate-K6": near_degenerate,
        "roundtrip-castro-urbano-3113":
            lambda: roundtrip(castro_urbano_spec(), 8),
        "roundtrip-square-K4-3+4i":
            lambda: roundtrip(design_spec(1.0, 1j, (3, 4), True), grid_k4),
        "family-lambda-0.707": lambda: family(spec_path, "1,0.707+0.707i"),
        "family-lambda-malformed": lambda: family(spec_path, "1,0.6+0.8x"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", nargs="+", help="names of the inputs to run")
    ap.add_argument("--grid-k4", type=int, default=4,
                    help="reconstruction grid of the 3+4i spec (8 takes "
                         "about 30 s before it fails)")
    args = ap.parse_args(argv)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="hard-", dir=ROOT / ".perfbench")
    try:
        for name, fn in cases(workdir, args.grid_k4).items():
            if args.only and name not in args.only:
                continue
            t0 = time.perf_counter()
            outcome = fn()
            print(json.dumps({"name": name,
                              "seconds": round(time.perf_counter() - t0, 2),
                              **outcome}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
