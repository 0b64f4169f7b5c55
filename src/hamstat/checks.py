"""Numerical verification oracles for candidate immersions.

Every check is evaluator-agnostic: it takes any callable z -> R^4 together
with the lattice bounding the sample domain, computes derivatives by central
finite differences, and reports a residual against a stated threshold.
Closed-form evaluation lives elsewhere; these stencils are deliberately
independent of it.

A check is a function of the step h that returns its signed residual
fields and their scale, and a ``_PROTOCOL`` entry: the norm of the fields,
the stencil's order and whether a miss takes the Richardson fallback (today
conformal, Lagrangian and mean curvature do).  ``run_check`` alone turns
them into a report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .algebra import L_I, lagrangian_angle_raw, omega, wedge_value
from .errors import DegenerateMetric
from .lattices import affine_grid
from .numerics import TWO_PI, fd_x, fd_x4, fd_y, fd_y4
from .weierstrass import TorusSpec, spinor_u

__all__ = [
    "CheckReport", "check_conformal", "check_lagrangian", "check_harmonic_angle",
    "check_mean_curvature", "check_flatness", "curvature_fields", "run_check",
    "run_suite", "SpinorFields", "THRESHOLDS",
]

# the default threshold of each check, by report name
THRESHOLDS = {"conformal": 1e-5, "lagrangian": 1e-5, "harmonic-angle": 1e-6,
              "mean-curvature": 1e-5, "flatness": 1e-6}


@dataclass
class CheckReport:
    check: str
    grid_n: int
    residual: float
    threshold: float
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold

    def to_dict(self) -> dict:
        return {"check": self.check, "grid_n": self.grid_n,
                "residual": self.residual, "threshold": self.threshold,
                "pass": self.passed, **self.extra}


# each check's norm of its fields relative to their scale, its stencil's
# order, and whether it takes the fallback; flatness divides its translation
# part's max, not the field, which would move the residual by an ulp
_PROTOCOL = {
    "conformal": (lambda fs, s: np.max(np.abs(fs[0]) + np.abs(fs[1])) / s, 2, True),
    "lagrangian": (lambda fs, s: np.max(np.abs(fs[0])) / s, 2, True),
    "harmonic-angle": (lambda fs, s: np.max(np.abs(fs[0])) / s, 4, False),
    "mean-curvature": (lambda fs, s: np.sqrt(np.max(_dot(fs[0], fs[0]))) / s, 2, True),
    "flatness": (lambda fs, s: max(np.max(np.abs(fs[0])), np.max(np.abs(fs[1])) / s),
                 2, False),
}


def run_check(name, grid_n, threshold, h, fields_of_h, extra=None) -> CheckReport:
    """Report of the named check: the norm of the residual fields that
    ``fields_of_h(h)`` returns with their scale.  When the check takes the
    fallback and misses the threshold, each field is extrapolated from h and
    h/2 as (2^p b - a) / (2^p - 1), which cancels the h^p truncation term of
    a stencil of order p, and the smaller residual is kept."""
    norm, order, fallback = _PROTOCOL[name]
    fields, scale = fields_of_h(h)
    res = norm(fields, scale)
    extra = {**(extra or {}), "fd_step": h}
    if fallback and res > threshold:
        w = 2.0 ** order
        halves, scale2 = fields_of_h(h / 2)
        res2 = norm(tuple((w * b - a) / (w - 1.0)
                          for a, b in zip(fields, halves)), scale2)
        if res2 < res:
            res = res2
            extra["richardson"] = True
    return CheckReport(name, grid_n, float(res), threshold, extra)


def _dot(a, b):
    """Row dot product of (..., 4) arrays, summed in the order np.sum uses."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2] + a[..., 3] * b[..., 3])


# the frame checks' signed residual fields and scale, from one frame
_FRAME_FIELDS = {
    "conformal": lambda xx, xy, s: ((_dot(xx, xy), _dot(xx, xx) - _dot(xy, xy)), s),
    "lagrangian": lambda xx, xy, s: ((omega(xx, xy),), s),
}


def _frame_checks(f, lattice, grid_n, fd_step, thresholds) -> list:
    """Reports of the frame checks named in ``thresholds``.  They read one
    cached frame per step, the fallback's h/2 one too: central X_x, X_y on
    the grid and the mean squared |X_x| that scales their residuals."""
    zs = lattice.grid(grid_n)

    @functools.cache
    def frame(h):
        xx, xy = fd_x(f, zs, h), fd_y(f, zs, h)
        scale = float(np.mean(_dot(xx, xx)))
        if scale < 1e-300:
            raise DegenerateMetric("frame vanishes on the whole grid")
        return xx, xy, scale

    h = fd_step or 1e-5 * lattice.diameter()
    return [run_check(name, grid_n, th, h,
                      lambda h, name=name: _FRAME_FIELDS[name](*frame(h)))
            for name, th in thresholds.items()]


def check_conformal(f, lattice, grid_n: int, fd_step: float | None = None,
                    threshold: float = THRESHOLDS["conformal"]) -> CheckReport:
    """Max of |<X_x, X_y>| + ||X_x|^2 - |X_y|^2| over the grid, normalized by
    the mean squared frame length."""
    return _frame_checks(f, lattice, grid_n, fd_step, {"conformal": threshold})[0]


def check_lagrangian(f, lattice, grid_n: int, fd_step: float | None = None,
                     threshold: float = THRESHOLDS["lagrangian"]) -> CheckReport:
    """Max |omega(X_x, X_y)| over the grid (same normalization as above)."""
    return _frame_checks(f, lattice, grid_n, fd_step, {"lagrangian": threshold})[0]


def _unwrap_grid(angles):
    """Row-major unwrap with 2*pi jump correction: each increment moves by a
    multiple of 2*pi to its representative nearest 0, of modulus pi at most
    (up to the rounding of an unwrapped first column)."""
    out = np.array(angles, dtype=float)
    # first column, downwards, then each row left to right
    for axis, sl in ((0, np.s_[:, 0]), (1, np.s_[:, :])):
        a = out[sl]
        d = np.diff(a, axis=axis)
        d_corr = d - TWO_PI * np.round(d / TWO_PI)
        out[sl] = np.concatenate([np.take(a, [0], axis=axis),
                                  np.take(a, [0], axis=axis)
                                  + np.cumsum(d_corr, axis=axis)], axis=axis)
    return out


def check_harmonic_angle(f, lattice, grid_n: int, fd_step: float | None = None,
                         threshold: float = THRESHOLDS["harmonic-angle"]) -> CheckReport:
    """Flat Laplacian of the recovered angle on a square grid.

    The angle of a doubly periodic stationary solution is affine, so the
    five-point Laplacian must vanish up to stencil noise.  Also reports the
    slope recovered by a least-squares fit.
    """
    side = 0.75 * min(abs(lattice.g1), abs(lattice.g2))
    hg = side / (grid_n - 1)
    xs = np.arange(grid_n) * hg
    zz = affine_grid(xs, 1j * xs)

    @functools.cache
    def beta(h):
        xx, xy = fd_x4(f, zz, h), fd_y4(f, zz, h)
        # unnormalized: a positive scale leaves the wedge argument unchanged
        if np.min(_dot(xx, xx)) < 1e-24 or np.min(_dot(xy, xy)) < 1e-24:
            raise DegenerateMetric("frame vanishes at a grid point")
        return _unwrap_grid(lagrangian_angle_raw(xx, xy))

    def fields_of_h(h):
        b = beta(h)
        return ((b[2:, 1:-1] + b[:-2, 1:-1] + b[1:-1, 2:] + b[1:-1, :-2]
                 - 4.0 * b[1:-1, 1:-1]) / hg ** 2,), 1.0

    rep = run_check("harmonic-angle", grid_n, threshold,
                    fd_step or 1e-4 * lattice.diameter(), fields_of_h)
    # slope fit of the angle field read:  beta ~ 2 pi (x b0x + y b0y) + c
    a_mat = np.stack([zz.real.ravel(), zz.imag.ravel(), np.ones(zz.size)], axis=1)
    sol, *_ = np.linalg.lstsq(a_mat, beta(rep.extra["fd_step"]).ravel(), rcond=None)
    beta0_fit = complex(sol[0], sol[1]) / TWO_PI
    rep.extra.update(grid_step=hg, beta0_fit=[beta0_fit.real, beta0_fit.imag])
    return rep


def _central(fp, f0, fm, h):
    """First and second central differences from the values at z + s, z and
    z - s, |s| = h."""
    return (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)


def _corner_terms(f, zs, c, h):
    """X_xy from the corners zs + (+-1 +- i) h, and the angle gradient
    (b_x, b_y) as central differences of the frame angle between the axis
    neighbours zs +- h and zs +- i h.

    The angle at a neighbour is that of the wedge value of its central
    differences left unnormalized (a positive scale leaves it unchanged);
    they take two corners, the centre ``c`` and one point at distance 2h,
    which is evaluated here and nowhere else.  The angle difference of two
    neighbours is the argument of one wedge value times the conjugate of
    the other, already in [-pi, pi].
    """
    pp, pm = f(zs + h + 1j * h), f(zs + h - 1j * h)
    mp, mm = f(zs - h + 1j * h), f(zs - h - 1j * h)
    sxy = (pp - pm - mp + mm) / (4.0 * h * h)
    # one wedge at a time, so its input differences are freed before the
    # next ones are built
    bx = np.angle(wedge_value(f(zs + 2 * h) - c, pp - pm)
                  * np.conj(wedge_value(c - f(zs - 2 * h), mp - mm))) / (2 * h)
    by = np.angle(wedge_value(pp - mp, f(zs + 2j * h) - c)
                  * np.conj(wedge_value(pm - mm, c - f(zs - 2j * h)))) / (2 * h)
    return sxy, bx, by


def check_mean_curvature(f, lattice, grid_n: int, fd_step: float | None = None,
                         threshold: float = THRESHOLDS["mean-curvature"]) -> CheckReport:
    """Residual of the stationary-angle identity for the mean curvature.

    H is the metric half-trace of the second fundamental form (second
    derivatives projected to the normal bundle); the identity it must satisfy
    is ``H = (1/2) J grad(beta)`` with grad the induced-metric gradient,
    matching the half-trace normalization.
    """
    zs = lattice.grid(grid_n)

    def fields_of_h(h):
        # the 13-point stencil zs + (i + j i) h, |i| + |j| <= 2: the corners
        # and the points at distance 2h go into _corner_terms, the axis
        # points into the first and second x and y differences
        c = f(zs)
        sxy, bx, by = _corner_terms(f, zs, c, h)
        xx, sxx = _central(f(zs + h), c, f(zs - h), h)
        xy, syy = _central(f(zs + 1j * h), c, f(zs - 1j * h), h)

        e, g, fg = _dot(xx, xx), _dot(xy, xy), _dot(xx, xy)
        det = e * g - fg ** 2
        if np.min(det) < 1e-12 * np.max(det):
            raise DegenerateMetric("induced metric is singular on the grid")

        # the normal projection is linear: project the metric trace once,
        # subtracting its tangential part in the non-orthogonal frame
        trace = g[..., None] * sxx - 2 * fg[..., None] * sxy + e[..., None] * syy
        a, b = _dot(trace, xx), _dot(trace, xy)
        mean_curv = 0.5 * ((trace - ((g * a - fg * b) / det)[..., None] * xx
                            - ((e * b - fg * a) / det)[..., None] * xy)
                           / det[..., None])
        grad = ((g * bx - fg * by)[..., None] * xx
                + (e * by - fg * bx)[..., None] * xy) / det[..., None]
        target = 0.5 * (grad @ L_I.T)
        return (mean_curv - target,), 1.0

    return run_check("mean-curvature", grid_n, threshold,
                     fd_step or 3e-5 * lattice.diameter(), fields_of_h)


class SpinorFields:
    """Angle-derivative and spinor data entering the deformed connection.

    ``beta_z`` is d(beta)/dz and ``u`` the translation spinor; a TorusSpec
    provides both in closed form, probes may supply anything.
    """

    def __init__(self, beta_z, u, lattice):
        self.beta_z = beta_z
        self.u = u
        self.lattice = lattice

    @classmethod
    def from_spec(cls, spec: TorusSpec) -> "SpinorFields":
        const = np.pi * np.conj(spec.beta0)
        return cls(lambda z: np.full(np.shape(z), const, dtype=complex),
                   lambda z: spinor_u(spec, z), spec.lattice)

    def connection_xy(self, lam: complex, z):
        """alpha(d/dx), alpha(d/dy) as (rotation, translation) pairs."""
        lam = complex(lam)
        bz = np.asarray(self.beta_z(z), dtype=complex)
        u = np.asarray(self.u(z), dtype=complex)
        rot_z = (0.5 / lam ** 2) * bz
        rot_zb = (0.5 * lam ** 2) * np.conj(bz)
        tr_z = u / lam
        tr_zb = lam * np.conj(u)
        rot_x = (rot_z + rot_zb)[..., None, None] * L_I
        rot_y = (1j * (rot_z - rot_zb))[..., None, None] * L_I
        tr_x = tr_z + tr_zb
        tr_y = 1j * (tr_z - tr_zb)
        return (rot_x, tr_x), (rot_y, tr_y)


def curvature_fields(connection, h: float):
    """Rotation and translation parts of d_x A_y - d_y A_x + [A_x, A_y] by
    central differences.

    ``connection(dz)`` returns ((rot_x, tr_x), (rot_y, tr_y)), the connection
    on d/dx and d/dy at the sample points shifted by dz; the bracket is that
    of the motion-group algebra, acting on translations by the rotations.
    """
    (ax_r, ax_t), (ay_r, ay_t) = connection(0.0)
    ayp_r, ayp_t = connection(h)[1]
    aym_r, aym_t = connection(-h)[1]
    axp_r, axp_t = connection(1j * h)[0]
    axm_r, axm_t = connection(-1j * h)[0]
    brack_r = ax_r @ ay_r - ay_r @ ax_r
    brack_t = (np.einsum("...ij,...j->...i", ax_r, ay_t)
               - np.einsum("...ij,...j->...i", ay_r, ax_t))
    return ((ayp_r - aym_r) / (2 * h) - (axp_r - axm_r) / (2 * h) + brack_r,
            (ayp_t - aym_t) / (2 * h) - (axp_t - axm_t) / (2 * h) + brack_t)


def check_flatness(source, lam: complex, grid_n: int,
                   fd_step: float | None = None,
                   threshold: float = THRESHOLDS["flatness"]) -> CheckReport:
    """Curvature residual of the deformed connection built from spinor data.

    Computes  dA(x,y) + [A_x, A_y]  by central differences of the coefficient
    fields; for stationary data this vanishes for every circle parameter.
    The translation part is linear in u, so it is divided by max|u| on the
    grid (unless u vanishes there), which makes the residual the same for
    every homothety of the surface.
    """
    spinors = (SpinorFields.from_spec(source) if isinstance(source, TorusSpec)
               else source)
    zs = spinors.lattice.grid(grid_n)
    u_max = float(np.max(np.abs(spinors.u(zs)))) or 1.0
    return run_check(
        "flatness", grid_n, threshold, fd_step or 1e-5 * spinors.lattice.diameter(),
        lambda h: (curvature_fields(lambda dz: spinors.connection_xy(lam, zs + dz), h),
                   u_max), {"lambda": [lam.real, lam.imag]})


def run_suite(f, lattice, grid_n: int, spec: TorusSpec | None = None,
              thresholds: dict | None = None) -> list[CheckReport]:
    """Run the full geometric suite; adds the flatness checks when a spec is
    supplied (they need spinor data, not just the immersion)."""
    th = {**THRESHOLDS, **(thresholds or {})}
    # the frame cache goes before the angle check allocates
    reports = _frame_checks(f, lattice, grid_n, None,
                            {k: th[k] for k in ("conformal", "lagrangian")})
    reports += [
        check_harmonic_angle(f, lattice, grid_n, threshold=th["harmonic-angle"]),
        check_mean_curvature(f, lattice, grid_n, threshold=th["mean-curvature"]),
    ]
    if spec is not None:
        for lam in (1.0, 1j):
            reports.append(check_flatness(spec, lam, max(8, grid_n // 8),
                                          threshold=th["flatness"]))
    return reports
