"""Numerical verification oracles for candidate immersions.

Every check is evaluator-agnostic: it takes any callable z -> R^4 together
with the lattice bounding the sample domain, computes derivatives by central
finite differences, and reports a residual against a stated threshold.
Closed-form evaluation lives elsewhere; these stencils are deliberately
independent of it.
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
    "CheckReport", "check_conformal", "check_lagrangian",
    "check_harmonic_angle", "check_mean_curvature", "check_flatness",
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


def _default_step(lattice) -> float:
    return 1e-5 * lattice.diameter()


def _with_richardson(name, grid_n, threshold, h, fields_of_h, combine):
    """Evaluate signed residual fields at step h; when their combined norm
    misses the threshold, retry with the step-halving extrapolation that
    cancels the second-order truncation term in each field."""
    fields, scale = fields_of_h(h)
    res = combine(fields) / scale
    extra = {"fd_step": h}
    if res > threshold:
        halves, scale2 = fields_of_h(h / 2)
        refined = tuple((4.0 * b - a) / 3.0 for a, b in zip(fields, halves))
        res2 = combine(refined) / scale2
        if res2 < res:
            res = res2
            extra["richardson"] = True
    return CheckReport(name, grid_n, float(res), threshold, extra)


def _dot(a, b):
    """Row dot product of (..., 4) arrays, summed in the order np.sum uses."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2] + a[..., 3] * b[..., 3])


def _frame(f, zs, h):
    """Central X_x, X_y on the grid and the mean squared |X_x| that
    normalizes the conformal and Lagrangian residuals."""
    xx = fd_x(f, zs, h)
    xy = fd_y(f, zs, h)
    scale = float(np.mean(_dot(xx, xx)))
    if scale < 1e-300:
        raise DegenerateMetric("frame vanishes on the whole grid")
    return xx, xy, scale


def _conformal(frame, grid_n, h, threshold):
    def fields_of_h(h):
        xx, xy, scale = frame(h)
        return (_dot(xx, xy), _dot(xx, xx) - _dot(xy, xy)), scale

    return _with_richardson(
        "conformal", grid_n, threshold, h, fields_of_h,
        lambda fs: float(np.max(np.abs(fs[0]) + np.abs(fs[1]))))


def _lagrangian(frame, grid_n, h, threshold):
    def fields_of_h(h):
        xx, xy, scale = frame(h)
        return (omega(xx, xy),), scale

    return _with_richardson("lagrangian", grid_n, threshold, h, fields_of_h,
                            lambda fs: float(np.max(np.abs(fs[0]))))


def check_conformal(f, lattice, grid_n: int, fd_step: float | None = None,
                    threshold: float = THRESHOLDS["conformal"]) -> CheckReport:
    """Max of |<X_x, X_y>| + ||X_x|^2 - |X_y|^2| over the grid, normalized by
    the mean squared frame length."""
    zs = lattice.grid(grid_n)
    return _conformal(lambda h: _frame(f, zs, h), grid_n,
                      fd_step or _default_step(lattice), threshold)


def check_lagrangian(f, lattice, grid_n: int, fd_step: float | None = None,
                     threshold: float = THRESHOLDS["lagrangian"]) -> CheckReport:
    """Max |omega(X_x, X_y)| over the grid (same normalization as above)."""
    zs = lattice.grid(grid_n)
    return _lagrangian(lambda h: _frame(f, zs, h), grid_n,
                       fd_step or _default_step(lattice), threshold)


def _angle_field(f, zs, h):
    xx = fd_x4(f, zs, h)
    xy = fd_y4(f, zs, h)
    # unnormalized: a positive scale leaves the wedge argument unchanged
    if np.min(_dot(xx, xx)) < 1e-24 or np.min(_dot(xy, xy)) < 1e-24:
        raise DegenerateMetric("frame vanishes at a grid point")
    return lagrangian_angle_raw(xx, xy)


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
    h_fd = fd_step or 1e-4 * lattice.diameter()
    side = 0.75 * min(abs(lattice.g1), abs(lattice.g2))
    hg = side / (grid_n - 1)
    xs = np.arange(grid_n) * hg
    zz = affine_grid(xs, 1j * xs)
    beta = _unwrap_grid(_angle_field(f, zz, h_fd))
    lap = (beta[2:, 1:-1] + beta[:-2, 1:-1] + beta[1:-1, 2:] + beta[1:-1, :-2]
           - 4.0 * beta[1:-1, 1:-1]) / hg ** 2
    res = float(np.max(np.abs(lap)))
    # slope fit:  beta ~ 2 pi (x b0x + y b0y) + c
    a_mat = np.stack([zz.real.ravel(), zz.imag.ravel(),
                      np.ones(zz.size)], axis=1)
    sol, *_ = np.linalg.lstsq(a_mat, beta.ravel(), rcond=None)
    beta0_fit = complex(sol[0], sol[1]) / TWO_PI
    return CheckReport("harmonic-angle", grid_n, res, threshold,
                       {"fd_step": h_fd, "grid_step": hg,
                        "beta0_fit": [beta0_fit.real, beta0_fit.imag]})


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

        e = _dot(xx, xx)
        g = _dot(xy, xy)
        fg = _dot(xx, xy)
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

    return _with_richardson(
        "mean-curvature", grid_n, threshold,
        fd_step or 3e-5 * lattice.diameter(), fields_of_h,
        lambda fs: float(np.sqrt(np.max(_dot(fs[0], fs[0])))))


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

        def beta_z(z):
            return np.full(np.shape(z), const, dtype=complex)

        return cls(beta_z, lambda z: spinor_u(spec, z), spec.lattice)

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


def _curvature_residual(connection, h: float,
                        translation_scale: float = 1.0) -> float:
    """Max entry of d_x A_y - d_y A_x + [A_x, A_y] by central differences.

    ``connection(dz)`` returns ((rot_x, tr_x), (rot_y, tr_y)), the connection
    on d/dx and d/dy at the sample points shifted by dz; the bracket is that
    of the motion-group algebra, acting on translations by the rotations.
    The translation part is divided by ``translation_scale``.
    """
    (ax_r, ax_t), (ay_r, ay_t) = connection(0.0)
    ayp_r, ayp_t = connection(h)[1]
    aym_r, aym_t = connection(-h)[1]
    axp_r, axp_t = connection(1j * h)[0]
    axm_r, axm_t = connection(-1j * h)[0]
    brack_r = ax_r @ ay_r - ay_r @ ax_r
    brack_t = (np.einsum("...ij,...j->...i", ax_r, ay_t)
               - np.einsum("...ij,...j->...i", ay_r, ax_t))
    res_r = (ayp_r - aym_r) / (2 * h) - (axp_r - axm_r) / (2 * h) + brack_r
    res_t = (ayp_t - aym_t) / (2 * h) - (axp_t - axm_t) / (2 * h) + brack_t
    return float(max(np.max(np.abs(res_r)),
                     np.max(np.abs(res_t)) / translation_scale))


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
    fields = (SpinorFields.from_spec(source) if isinstance(source, TorusSpec)
              else source)
    lat = fields.lattice
    h = fd_step or 1e-5 * lat.diameter()
    zs = lat.grid(grid_n)
    u_max = float(np.max(np.abs(fields.u(zs))))
    res = _curvature_residual(lambda dz: fields.connection_xy(lam, zs + dz), h,
                              u_max if u_max > 0.0 else 1.0)
    return CheckReport("flatness", grid_n, res, threshold,
                       {"lambda": [lam.real, lam.imag], "fd_step": h})


def run_suite(f, lattice, grid_n: int, spec: TorusSpec | None = None,
              thresholds: dict | None = None) -> list[CheckReport]:
    """Run the full geometric suite; adds the flatness checks when a spec is
    supplied (they need spinor data, not just the immersion)."""
    th = {**THRESHOLDS, **(thresholds or {})}
    # the conformal and Lagrangian checks read one frame per step, the
    # Richardson h/2 one too; the cache goes before the angle check allocates
    zs = lattice.grid(grid_n)
    frame = functools.cache(lambda h: _frame(f, zs, h))
    h = _default_step(lattice)
    reports = [_conformal(frame, grid_n, h, th["conformal"]),
               _lagrangian(frame, grid_n, h, th["lagrangian"])]
    del frame, zs
    reports += [
        check_harmonic_angle(f, lattice, grid_n, threshold=th["harmonic-angle"]),
        check_mean_curvature(f, lattice, grid_n, threshold=th["mean-curvature"]),
    ]
    if spec is not None:
        for lam in (1.0, 1j):
            reports.append(check_flatness(spec, lam, max(8, grid_n // 8),
                                          threshold=th["flatness"]))
    return reports
