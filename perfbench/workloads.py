"""The four benchmark workloads: seeded inputs, the timed op, and its oracle.

Each workload has
  ``generate(seed)``  the input pool (same seed, same inputs);
  ``run(item, tr)``   one op, with spans around every call into a layer;
  ``check(item, out)`` the oracle, run after the op's timer stops.

``check`` returns a :class:`Verdict`: the worst residual of the op as a
share of its tolerance (the op passes when it is at most 1) plus a few
counts for the traced run.  The tolerances are those of
``tests/test_acceptance.py`` and of the ``hamstat verify`` command line.

Input generation uses only numpy, the algebra constants and the public
constructors, so the inputs stay the same when the program's internals
change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from hamstat import cli
from hamstat.algebra import (EPS, EPS_BAR, L_I, LI_EPS, LI_EPS_BAR, R_I, R_J,
                             R_K, exp_rotation)
from hamstat.checks import run_suite
from hamstat.finitetype import (lax_integrate, rhombic_killing_seed,
                                standard_torus_killing_seed)
from hamstat.lattices import Lattice, enumerate_frequencies
from hamstat.loops import (SpecLift, TwistedLoop, birkhoff, dpw_reconstruct,
                           iwasawa, potential_extract)
from hamstat.tori import castro_urbano, rhombic_torus, standard_torus
from hamstat.weierstrass import TorusSpec, immerse, spinor_u

HEX = complex(0.5, math.sqrt(3.0) / 2.0)


@dataclass
class Verdict:
    ratio: float                 # worst residual / tolerance; pass iff <= 1
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.ratio <= 1.0


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _dot(w, z):
    """Real dot product of complex numbers seen as R^2 vectors."""
    return (np.conj(w) * z).real


def translated(spec: TorusSpec, z0: complex, snap: bool = False) -> TorusSpec:
    """The spec of X(z + z0), up to a U(2) rotation: a congruent surface
    whose coefficients carry the phases exp(2 pi i <gamma, z0>).  With
    ``snap`` the phases are rounded to the nearest of 1, i, -1, -i (exact
    for half-lattice shifts), so real coefficients stay real or imaginary."""
    pairs = {}
    for g, a in spec.items():
        phase = np.exp(2j * np.pi * _dot(g, z0))
        if snap:
            phase = complex(round(phase.real), round(phase.imag))
        pairs[g] = a * phase
    return TorusSpec.build(spec.lattice, spec.beta0, pairs)


def design_spec(g1, g2, slope, complex_coeffs: bool,
                scale: float = 1.0) -> TorusSpec:
    """Spec on the lattice scale*(g1, g2) with slope n g1* + m g2*: a
    dominant pair of unit coefficients on +-gamma_0 and a fixed small
    pattern on the other frequencies, so the surface stays well away
    from a degenerate metric."""
    eps = 0.15
    lat = Lattice(scale * g1, scale * g2)
    dl = lat.dual()
    beta0 = slope[0] * dl.g1 + slope[1] * dl.g2
    freqs = list(enumerate_frequencies(lat, beta0))
    g0 = freqs[0]
    pairs = {}
    others = 0
    for g in freqs:
        if abs(g - g0) < 1e-9 or abs(g + g0) < 1e-9:
            pairs[g] = np.exp(0.25j * np.pi) if complex_coeffs else 1.0
        else:
            others += 1
            if complex_coeffs:
                pairs[g] = eps * np.exp(2j * np.pi * 0.37 * others)
            else:
                pairs[g] = eps * (-1) ** others * (1 + 0.5 * others / len(freqs))
    return TorusSpec.build(lat, beta0, pairs)


def castro_urbano_spec() -> TorusSpec:
    """The (3,1,1,3) spec of acceptance criterion 3."""
    cu = castro_urbano(3, 1, 1, 3)
    gamma = np.exp(1j * cu.beta) / (2 * np.pi)
    return cu.build_spec({gamma: 2.0 + 1.0j, np.conj(gamma): 1.5 - 0.5j})


def basis_terms(spec: TorusSpec) -> int:
    """Basis surfaces ``immerse`` evaluates per point (one for each nonzero
    real and imaginary coefficient part)."""
    return sum((a.real != 0.0) + (a.imag != 0.0) for _, a in spec.items())


# --- explore ----------------------------------------------------------------

VERIFY_GRID = 128
MESH_GRID = 256
FAMILY_GRID = 64
PERIOD_TOL = 1e-8            # hamstat family --tol default
# exactly unimodular decimal literals (Pythagorean triples)
UNIT_LAMBDAS = ("0.6+0.8i", "0.8-0.6i", "-0.28+0.96i", "0.96+0.28i",
                "-0.6-0.8i", "0.28-0.96i", "1i", "-1i")

# name, generators, slope in dual coordinates, complex coefficients, scale
EXPLORE_SLOTS = (
    ("square-K2-real", (1.0, 1j), (1, 1), False, 1.0),
    ("hex-K4-complex", (1.0, HEX), (-4, -4), True, 2.0),
    # the mean-curvature check needs its Richardson fallback here
    ("square-K10-real", (1.0, 1j), (5, 5), False, 1.3),
    ("rect-K4-complex", (1.0, 2j), (-2, -3), True, 1.0),
    ("castro-urbano-3113", None, None, True, None),
    ("square-K6-real", (1.0, 1j), (1, 3), False, 2.0),
    ("square-K4-complex", (1.0, 1j), (3, 4), True, 2.0),
)


@dataclass
class ExploreItem:
    slot: str
    spec_json: str
    lams: str
    terms: int
    spec_path: str
    mesh_path: str
    family_stem: str


@dataclass
class ExploreOutput:
    reports: list
    mesh_code: int
    family_code: int
    family_json: str


class Explore:
    """One op verifies one spec at grid 128 (flatness included), then runs
    ``hamstat mesh --grid 256`` and a ``hamstat family`` sweep with meshes,
    both in-process, writing into the work directory."""

    name = "explore"
    layers = ("weierstrass.spec_load", "weierstrass.immerse",
              "checks.run_suite", "cli.mesh", "cli.family")

    def __init__(self, workdir: str):
        self.workdir = workdir

    def generate(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        items = []
        for i, (slot, gens, slope, cplx, scale) in enumerate(EXPLORE_SLOTS):
            base = (castro_urbano_spec() if gens is None
                    else design_spec(gens[0], gens[1], slope, cplx, scale))
            g1, g2 = base.lattice.g1, base.lattice.g2
            if cplx:
                # any point of the 16 x 16 grid: the verify grids (128 and
                # 16 for flatness) sample the same surface points
                i1, i2 = rng.integers(16, size=2)
                spec = translated(base, i1 / 16 * g1 + i2 / 16 * g2)
            else:
                i1, i2 = rng.integers(2, size=2)
                spec = translated(base, i1 / 2 * g1 + i2 / 2 * g2, snap=True)
            picks = rng.choice(len(UNIT_LAMBDAS), size=3, replace=False)
            lams = ",".join(["1"] + [UNIT_LAMBDAS[k] for k in sorted(picks)])
            stem = os.path.join(self.workdir, f"explore{i}")
            text = spec.to_json()
            with open(stem + ".json", "w", encoding="utf-8") as fh:
                fh.write(text)
            items.append(ExploreItem(slot, text, lams, basis_terms(spec),
                                     stem + ".json", stem + ".obj",
                                     stem + "-family"))
        return items

    @staticmethod
    def fingerprint(items) -> str:
        return _digest(p for it in items for p in (it.spec_json, it.lams))

    def run(self, item: ExploreItem, tr) -> ExploreOutput:
        with tr.span("weierstrass.spec_load"):
            spec = TorusSpec.from_json(item.spec_json)
        evaluator = tr.wrap("weierstrass.immerse", lambda z: immerse(spec, z),
                            count=lambda z: {"points": int(np.size(z)),
                                             "terms": item.terms})
        with tr.span("checks.run_suite"):
            reports = run_suite(evaluator, spec.lattice, VERIFY_GRID, spec=spec)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            with tr.span("cli.mesh"):
                mesh_code = cli.main(["mesh", item.spec_path, "--grid",
                                      str(MESH_GRID), "--out", item.mesh_path])
            mark = out.tell()
            with tr.span("cli.family"):
                family_code = cli.main(["family", item.spec_path, "--lambda",
                                        item.lams, "--grid", str(FAMILY_GRID),
                                        "--out", item.family_stem])
        return ExploreOutput(reports, mesh_code, family_code,
                             out.getvalue()[mark:])

    def check(self, item: ExploreItem, out: ExploreOutput) -> Verdict:
        """Reports, mesh sizes and the lambda = 1 period defects.  The meshes
        are removed once counted, so the next op has to write its own."""
        ratio = report_ratio(out.reports)
        written = 0
        ok = out.mesh_code == 0 and out.family_code == 0
        if ok:
            members = json.loads(out.family_json)["members"]
            ok = len(members) == len(item.lams.split(","))
            meshes = [(item.mesh_path, MESH_GRID)] + [(m["mesh"], FAMILY_GRID)
                                                      for m in members]
            for path, n in meshes:
                written += os.path.getsize(path)
                ok = ok and mesh_counts(path) == (n * n, n * n)
                os.remove(path)
            for m in members:
                if m["lambda"] == [1.0, 0.0]:
                    ratio = max(ratio, max(m["period_defects"].values())
                                / PERIOD_TOL)
        return Verdict(ratio if ok else math.inf, {
            "reports": len(out.reports),
            "richardson": sum(bool(r.extra.get("richardson"))
                              for r in out.reports),
            "bytes": written})


def report_ratio(reports) -> float:
    """Worst residual / threshold over a verification report list."""
    return max(r.residual / r.threshold for r in reports)


def mesh_counts(path: str) -> tuple[int, int]:
    """(vertices, faces) of an OBJ file written by ``hamstat mesh``."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.count(b"\nv "), data.count(b"\nf ")


# --- roundtrip --------------------------------------------------------------

ROUNDTRIP_GRID = 6
ROUNDTRIP_TOL = 1e-7          # acceptance criterion 7


@dataclass
class RoundtripItem:
    slot: str
    spec: TorusSpec
    radius: float
    zs: np.ndarray


class Roundtrip:
    """One op extracts the holomorphic potential of a spec's extended lift
    (128 loop samples, Taylor ring) and reconstructs the immersion on a
    6 x 6 lattice grid (quad_n = 24)."""

    name = "roundtrip"
    layers = ("weierstrass.lift_samples", "loops.extract",
              "loops.reconstruct", "loops.potential_eval")

    def __init__(self, workdir: str):
        self.workdir = workdir

    def generate(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 2])
        sq = Lattice.square()
        sq_freqs = enumerate_frequencies(sq, 1 + 1j)
        bases = (
            ("standard-1x1", standard_torus(1.0, 1.0).spec),
            ("rhombic", rhombic_torus().spec),
            ("standard-1.25x0.8", standard_torus(1.25, 0.8).spec),
            ("rhombic", rhombic_torus().spec),
            ("square-K2-complex",
             TorusSpec.build(sq, 1 + 1j, dict(zip(sq_freqs, (1.0 + 0.5j,
                                                            0.7 - 0.2j))))),
        )
        items = []
        for slot, base in bases:
            lat = base.lattice
            # a congruent surface: the seed moves the basepoint
            spec = translated(base, rng.uniform() * lat.g1
                              + rng.uniform() * lat.g2)
            radius = 1.35 * max(1.0, abs(lat.g1) + abs(lat.g2))
            items.append(RoundtripItem(slot, spec, radius,
                                       lat.grid(ROUNDTRIP_GRID)))
        return items

    @staticmethod
    def fingerprint(items) -> str:
        return _digest(it.spec.to_json() for it in items)

    def run(self, item: RoundtripItem, tr):
        lift = SpecLift(item.spec)
        source = _TimedLift(lift, tr) if tr.enabled else lift
        with tr.span("loops.extract"):
            pot = potential_extract(source, nsamples=128,
                                    taylor_radius=item.radius)
        if tr.enabled:
            # the quadrature calls h, a and b once per integrand evaluation
            pot.h = tr.wrap("loops.potential_eval", pot.h)
            pot.b = tr.wrap("loops.potential_eval", pot.b)
            pot.a = tr.wrap("loops.potential_eval", pot.a,
                            count=lambda v: {"integrand": 1,
                                             "points": int(np.size(v))})
        with tr.span("loops.reconstruct"):
            lift2 = dpw_reconstruct(pot, nsamples=128, quad_n=24,
                                    lattice=item.spec.lattice)
            return lift2.immersion(item.zs)

    def check(self, item: RoundtripItem, got) -> Verdict:
        want = immerse(item.spec, item.zs) - immerse(item.spec, 0.0)
        return Verdict(float(np.max(np.abs(got - want))) / ROUNDTRIP_TOL)


class _TimedLift:
    """A SpecLift whose ``samples`` calls are spans."""

    def __init__(self, lift: SpecLift, tr):
        self.lattice = lift.lattice
        self.h_fn = lift.h_fn
        self.dh = lift.dh
        self.samples = tr.wrap("weierstrass.lift_samples", lift.samples,
                               count=lambda z, m: {"points": int(np.size(z))})


# --- factor -----------------------------------------------------------------

FACTOR_POOL = 32
LOOP_SAMPLES = 128
LOOP_AMP = 0.15               # criterion 6 amplitude
FACTOR_TOL = 1e-8             # residual, twist and reality bounds
SPLIT_TOL = 1e-10             # ray condition and Birkhoff round trip


def random_twisted_algebra_coeffs(deg, rng, amp=LOOP_AMP, sign=0):
    """Coefficients of a twisted algebra-valued loop, drawn as in the test
    suite's conftest; ``sign`` keeps negative-only / nonnegative-only
    exponents."""
    if sign < 0:
        krange = range(-deg, 0)
    elif sign > 0:
        krange = range(0, deg + 1)
    else:
        krange = range(-deg, deg + 1)
    ks, rots, trans = [], [], []
    for k in krange:
        scale = amp / (1 + abs(k)) ** 1.5
        r = np.zeros((4, 4), dtype=complex)
        t = np.zeros(4, dtype=complex)
        km = k % 4
        if km == 0:
            b = scale * (rng.normal(size=3) + 1j * rng.normal(size=3))
            r = b[0] * R_I + b[1] * R_J + b[2] * R_K
        elif km == 2:
            r = scale * (rng.normal() + 1j * rng.normal()) * L_I
        elif km == 3:
            c = scale * (rng.normal(size=2) + 1j * rng.normal(size=2))
            t = c[0] * EPS + c[1] * LI_EPS_BAR
        else:
            c = scale * (rng.normal(size=2) + 1j * rng.normal(size=2))
            t = c[0] * EPS_BAR + c[1] * LI_EPS
        ks.append(k)
        rots.append(r)
        trans.append(t)
    return np.array(ks), np.array(rots), np.array(trans)


def exp_twisted_loop(ks, rots, trans, m: int) -> TwistedLoop:
    """Group-valued twisted loop: pointwise exponential on m circle samples
    (translation part by 24-point Gauss-Legendre on [0, 1])."""
    lams = np.exp(2j * np.pi * np.arange(m) / m)
    powers = lams[:, None] ** np.asarray(ks, dtype=complex)[None, :]
    eta_rot = np.einsum("mk,kij->mij", powers, rots)
    eta_tr = np.einsum("mk,kj->mj", powers, trans)
    a = np.einsum("mij,ij->m", eta_rot, L_I) / 4.0
    b = np.stack([np.einsum("mij,ij->m", eta_rot, r) / 4.0
                  for r in (R_I, R_J, R_K)], axis=-1)
    x, w = np.polynomial.legendre.leggauss(24)
    tr = np.zeros((m, 4), dtype=complex)
    for s, wt in zip(0.5 * (x + 1.0), 0.5 * w):
        tr += wt * np.einsum("mij,mj->mi", exp_rotation(s * a, s * b), eta_tr)
    return TwistedLoop.from_samples(exp_rotation(a, b), tr)


@dataclass
class FactorItem:
    slot: str
    loop: TwistedLoop
    product: TwistedLoop
    minus: TwistedLoop
    plus: TwistedLoop


class Factor:
    """One op runs ``iwasawa`` on a random twisted loop of degree 1-8 and
    ``birkhoff`` on the product of a negative and a positive degree-5 loop."""

    name = "factor"
    layers = ("loops.iwasawa", "loops.birkhoff")

    def __init__(self, workdir: str):
        self.workdir = workdir

    def generate(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 3])
        items = []
        for i in range(FACTOR_POOL):
            deg = 1 + i % 8          # the degree sets the cost: cycle it
            loop = exp_twisted_loop(*random_twisted_algebra_coeffs(deg, rng),
                                    LOOP_SAMPLES)
            gm = exp_twisted_loop(*random_twisted_algebra_coeffs(5, rng, sign=-1),
                                  LOOP_SAMPLES)
            gp = exp_twisted_loop(*random_twisted_algebra_coeffs(5, rng, sign=+1),
                                  LOOP_SAMPLES)
            items.append(FactorItem(f"iwasawa-degree-{deg}", loop,
                                    gm.compose(gp, 256), gm, gp))
        return items

    @staticmethod
    def fingerprint(items) -> str:
        return _digest(a.tobytes() for it in items
                       for a in (it.loop.rot, it.loop.trans,
                                 it.product.rot, it.product.trans))

    def run(self, item: FactorItem, tr):
        with tr.span("loops.iwasawa"):
            u, b = iwasawa(item.loop, nsamples=LOOP_SAMPLES, tol=FACTOR_TOL)
        with tr.span("loops.birkhoff"):
            gm, gp = birkhoff(item.product, neg_degree=40, nsamples=256)
        return u, b, gm, gp

    def check(self, item: FactorItem, out) -> Verdict:
        """Acceptance criterion 6, per loop."""
        u, b, gm, gp = out
        m = LOOP_SAMPLES
        ru, tu = u.sample(m)
        rb, tb = b.sample(m)
        rh, th = item.loop.sample(m)
        resid = max(float(np.max(np.abs(ru @ rb - rh))),
                    float(np.max(np.abs(np.einsum("mij,mj->mi", ru, tb) + tu
                                        - th))))
        ratio = max(resid, u.reality_residual(), u.twist_residual(),
                    b.twist_residual()) / FACTOR_TOL
        b0 = b.rot[b.ks == 0][0]
        be = b0 @ EPS
        scale = be[0] / EPS[0]
        if np.min(b.ks) < 0 or scale.real <= 0:
            return Verdict(math.inf)
        ratio = max(ratio, abs(scale.imag) / (SPLIT_TOL * abs(scale)),
                    float(np.max(np.abs(be - scale * EPS)))
                    / (SPLIT_TOL * max(1.0, abs(scale))))
        for want, got in ((item.minus, gm), (item.plus, gp)):
            ra, ta = want.sample(256)
            rg, tg = got.sample(256)
            err = max(float(np.max(np.abs(ra - rg))),
                      float(np.max(np.abs(ta - tg))))
            ratio = max(ratio, err / SPLIT_TOL)
        return Verdict(ratio)


# --- flow -------------------------------------------------------------------

FLOW_REACH = 0.25             # polyline length, in lattice diameters
FLOW_STEPS_PER_DIAMETER = 2048    # lax_integrate's default step
TOP_TOL, EVEN_TOL, ISO_TOL = 1e-12, 1e-10, 1e-8     # criterion 8
SPINOR_TOL = 1e-8
# groups of (standard, standard, rhombic) seeds in the pool; the accuracy
# margin is a median over the pool, so more distinct inputs steady it
FLOW_GROUPS = 4


@dataclass
class FlowItem:
    slot: str
    seed: object                 # finitetype.KillingSeed
    waypoints: list
    rk_steps: int


class Flow:
    """One op flows a Killing-field seed along a two-segment polyline from
    the basepoint (lax_integrate at its default step, diameter / 2048) and
    computes the drift invariants."""

    name = "flow"
    layers = ("finitetype.flow", "finitetype.invariants")

    def __init__(self, workdir: str):
        self.workdir = workdir

    def generate(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 4])
        seeds = []
        for _ in range(FLOW_GROUPS):
            w1, w2 = rng.uniform(0.8, 1.25, size=2)
            seeds.append(("standard-d2", standard_torus_killing_seed(w1, w2)))
            w1, w2 = rng.uniform(0.8, 1.25, size=2)
            seeds.append(("standard-d2", standard_torus_killing_seed(w1, w2)))
            seeds.append(("rhombic-d6", rhombic_killing_seed()))
        items = []
        for slot, ks in seeds:
            diam = ks.spec.lattice.diameter()
            reach = FLOW_REACH * diam
            split = rng.uniform(0.35, 0.65)
            th1, th2 = rng.uniform(0.0, 2 * np.pi, size=2)
            p1 = split * reach * np.exp(1j * th1)
            p2 = p1 + (1 - split) * reach * np.exp(1j * th2)
            step = diam / FLOW_STEPS_PER_DIAMETER
            steps = sum(max(1, math.ceil(abs(b - a) / step))
                        for a, b in ((0.0, p1), (p1, p2)))
            items.append(FlowItem(slot, ks, [complex(p1), complex(p2)], steps))
        return items

    @staticmethod
    def fingerprint(items) -> str:
        return _digest(p for it in items for p in
                       (it.seed.spec.to_json(), it.seed.field.to_json(),
                        repr(it.waypoints)))

    def run(self, item: FlowItem, tr):
        field_ = item.seed.field
        with tr.span("finitetype.flow", steps=item.rk_steps):
            res = lax_integrate(field_, item.waypoints,
                                lattice=item.seed.spec.lattice)
        with tr.span("finitetype.invariants"):
            drifts = (res.coefficient_drift(-field_.d),
                      res.even_coefficient_drift(), res.isospectral_drift())
        return res, drifts

    def check(self, item: FlowItem, out) -> Verdict:
        """Criterion 8's drift bounds, plus agreement of the lowest odd
        translation coefficient with the spinor field at every waypoint."""
        res, (top, even, iso) = out
        ratio = max(top / TOP_TOL, even / EVEN_TOL, iso / ISO_TOL)
        d = item.seed.field.d
        for z, f in zip(res.points, res.fields):
            _, trans = f.coeff(-d + 1)
            err = float(np.max(np.abs(trans - spinor_u(item.seed.spec, z))))
            ratio = max(ratio, err / SPINOR_TOL)
        return Verdict(ratio)


WORKLOADS = {w.name: w for w in (Explore, Roundtrip, Factor, Flow)}
